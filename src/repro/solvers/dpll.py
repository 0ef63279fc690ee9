"""A DPLL SAT solver with counter-based unit propagation.

This is substrate, not the paper's contribution: the 3ONESAT-GEN-style
generator needs a *complete* SAT procedure to (a) find models different from
the planted one and (b) prove, at the end, that exactly one model remains.
The solver therefore exposes both :meth:`DpllSolver.solve` and bounded model
counting (:meth:`DpllSolver.count_models`).

Design notes:

* clauses are tuples of non-zero DIMACS-style literals (``3`` means variable
  3 true, ``-3`` false); tautological clauses are dropped at load time and
  duplicate literals collapsed;
* propagation is counter-based: each clause tracks how many of its literals
  are satisfied and how many are unassigned; assigning a literal touches
  only the clauses that contain the variable (via occurrence lists), which
  keeps propagation linear in occurrences rather than in formula size;
* the search assigns decision variables in static frequency order with an
  optional *polarity hint* (the generator hints "away from the planted
  model" to find distant second models quickly);
* model counting uses no pure-literal rule (which would under-count) and
  credits ``2**k`` models when all clauses are satisfied with *k* variables
  still unassigned;
* a node budget guards against pathological instances; exceeding it raises
  :class:`~repro.core.exceptions.SolverError` rather than silently lying.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.exceptions import SolverError

#: A clause: a tuple of non-zero integers, DIMACS sign convention.
Clause = Tuple[int, ...]

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


def normalize_clause(literals: Sequence[int]) -> Optional[Clause]:
    """Sort, deduplicate and screen one clause.

    Returns None for tautologies (a literal and its negation). Raises
    :class:`SolverError` for malformed input (a zero literal).
    """
    seen = set(literals)
    if 0 in seen:
        raise SolverError("clause contains the literal 0")
    # Duplicates are gone, so two literals share a variable only as v, -v.
    if len(set(map(abs, seen))) != len(seen):
        return None
    return tuple(sorted(seen, key=abs))


class DpllSolver:
    """A reusable DPLL engine over a fixed variable count.

    One instance holds one formula; :meth:`solve` and :meth:`count_models`
    can be called repeatedly (all search state is reset per call), and
    :meth:`add_clause` permanently extends the formula — the generator uses
    this to grow an instance clause by clause.
    """

    def __init__(
        self,
        num_vars: int,
        clauses: Sequence[Sequence[int]] = (),
        max_nodes: int = 2_000_000,
    ) -> None:
        if num_vars < 1:
            raise SolverError(f"num_vars must be positive, got {num_vars}")
        self.num_vars = num_vars
        self.max_nodes = max_nodes
        self._clauses: List[Clause] = []
        self._pos_occ: List[List[int]] = [[] for _ in range(num_vars + 1)]
        self._neg_occ: List[List[int]] = [[] for _ in range(num_vars + 1)]
        self._has_empty_clause = False
        for clause in clauses:
            self.add_clause(clause)

    # -- formula management ------------------------------------------------------

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add one clause; returns False if it was a dropped tautology."""
        clause = normalize_clause(literals)
        if clause is None:
            return False
        if len(clause) == 0:
            self._has_empty_clause = True
            return True
        for literal in clause:
            variable = abs(literal)
            if variable > self.num_vars:
                raise SolverError(
                    f"literal {literal} exceeds num_vars={self.num_vars}"
                )
        index = len(self._clauses)
        self._clauses.append(clause)
        for literal in clause:
            occ = self._pos_occ if literal > 0 else self._neg_occ
            occ[abs(literal)].append(index)
        return True

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The (normalized) clauses currently in the formula."""
        return tuple(self._clauses)

    # -- public queries ------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        polarity: Optional[Dict[int, bool]] = None,
    ) -> Optional[Dict[int, bool]]:
        """Find one model (as ``{variable: bool}``) or None if unsatisfiable.

        *assumptions* are literals fixed before search (useful for blocking
        or probing). *polarity* chooses which value each decision variable
        tries first; variables not listed try True first. Free variables in
        a satisfied formula take their polarity-preferred value.
        """
        self._reset()
        if self._has_empty_clause:
            return None
        if not self._assume(assumptions):
            return None
        found = self._search_model(polarity or {})
        if not found:
            return None
        model = {}
        prefer = polarity or {}
        for variable in range(1, self.num_vars + 1):
            state = self._assign[variable]
            if state == _UNASSIGNED:
                model[variable] = prefer.get(variable, True)
            else:
                model[variable] = state == _TRUE
        return model

    def count_models(self, limit: int = 2) -> int:
        """Count models, stopping early at *limit*.

        ``count_models(limit=2)`` is the uniqueness test: 0 = unsat,
        1 = exactly one model, 2 = at least two.
        """
        if limit < 1:
            raise SolverError(f"limit must be positive, got {limit}")
        self._reset()
        if self._has_empty_clause:
            return 0
        return self._search_count(limit)

    def is_satisfiable(self, assumptions: Sequence[int] = ()) -> bool:
        """True if the formula (under *assumptions*) has a model."""
        return self.solve(assumptions) is not None

    # -- search internals ------------------------------------------------------------

    def _reset(self) -> None:
        self._assign: List[int] = [_UNASSIGNED] * (self.num_vars + 1)
        self._sat_count: List[int] = [0] * len(self._clauses)
        self._unassigned_count: List[int] = [
            len(clause) for clause in self._clauses
        ]
        self._num_satisfied = 0
        self._num_assigned = 0
        self._trail: List[int] = []
        self._nodes = 0
        self._order = self._static_order()

    def _static_order(self) -> List[int]:
        frequency = [0] * (self.num_vars + 1)
        for clause in self._clauses:
            for literal in clause:
                frequency[abs(literal)] += 1
        return sorted(
            range(1, self.num_vars + 1),
            key=lambda variable: (-frequency[variable], variable),
        )

    def _assume(self, assumptions: Sequence[int]) -> bool:
        for literal in assumptions:
            if not self._assign_literal(literal):
                return False
        return True

    def _assign_literal(self, literal: int) -> bool:
        """Assign and propagate; False on conflict (caller must undo)."""
        queue = [literal]
        while queue:
            current = queue.pop()
            variable = abs(current)
            value = _TRUE if current > 0 else _FALSE
            state = self._assign[variable]
            if state != _UNASSIGNED:
                if state != value:
                    return False
                continue
            self._assign[variable] = value
            self._num_assigned += 1
            self._trail.append(variable)
            sat_occ = self._pos_occ if value == _TRUE else self._neg_occ
            unsat_occ = self._neg_occ if value == _TRUE else self._pos_occ
            for index in sat_occ[variable]:
                if self._sat_count[index] == 0:
                    self._num_satisfied += 1
                self._sat_count[index] += 1
                self._unassigned_count[index] -= 1
            # Complete every counter update before reporting a conflict:
            # _undo_to reverses whole assignments, so a partial update here
            # would corrupt the counters for the rest of the search.
            conflict = False
            for index in unsat_occ[variable]:
                self._unassigned_count[index] -= 1
                if self._sat_count[index] == 0:
                    remaining = self._unassigned_count[index]
                    if remaining == 0:
                        conflict = True
                    elif remaining == 1 and not conflict:
                        queue.append(self._unit_literal(index))
            if conflict:
                return False
        return True

    def _unit_literal(self, index: int) -> int:
        for literal in self._clauses[index]:
            if self._assign[abs(literal)] == _UNASSIGNED:
                return literal
        raise SolverError(
            f"clause {index} has no unassigned literal despite unit status"
        )

    def _undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            variable = self._trail.pop()
            value = self._assign[variable]
            sat_occ = self._pos_occ if value == _TRUE else self._neg_occ
            unsat_occ = self._neg_occ if value == _TRUE else self._pos_occ
            for index in sat_occ[variable]:
                self._sat_count[index] -= 1
                if self._sat_count[index] == 0:
                    self._num_satisfied -= 1
                self._unassigned_count[index] += 1
            for index in unsat_occ[variable]:
                self._unassigned_count[index] += 1
            self._assign[variable] = _UNASSIGNED
            self._num_assigned -= 1

    def _next_decision(self) -> Optional[int]:
        for variable in self._order:
            if self._assign[variable] == _UNASSIGNED:
                return variable
        return None

    def _bump_nodes(self) -> None:
        self._nodes += 1
        if self._nodes > self.max_nodes:
            raise SolverError(
                f"DPLL node budget exhausted ({self.max_nodes} nodes)"
            )

    def _search_model(self, polarity: Dict[int, bool]) -> bool:
        self._bump_nodes()
        if self._num_satisfied == len(self._clauses):
            return True
        variable = self._next_decision()
        if variable is None:
            # Every variable assigned but some clause unsatisfied.
            return False
        first = polarity.get(variable, True)
        for value in (first, not first):
            literal = variable if value else -variable
            mark = len(self._trail)
            if self._assign_literal(literal) and self._search_model(polarity):
                return True
            self._undo_to(mark)
        return False

    def _search_count(self, limit: int) -> int:
        self._bump_nodes()
        if self._num_satisfied == len(self._clauses):
            free = self.num_vars - self._num_assigned
            return min(limit, 1 << free) if free < 63 else limit
        variable = self._next_decision()
        if variable is None:
            return 0
        total = 0
        for value in (True, False):
            literal = variable if value else -variable
            mark = len(self._trail)
            if self._assign_literal(literal):
                total += self._search_count(limit - total)
            self._undo_to(mark)
            if total >= limit:
                break
        return total


def blocking_clause(model: Dict[int, bool]) -> Clause:
    """The clause excluding exactly *model* (over the variables it assigns)."""
    return tuple(
        -variable if value else variable
        for variable, value in sorted(model.items())
    )
