"""A CDCL SAT solver: watched literals, 1UIP learning, backjumping, restarts.

Why a second SAT engine: the 3ONESAT-GEN-style generator must *prove* that
no second model exists, and its final UNSAT call on a 200-variable
instance is exactly the kind of search that plain DPLL (see
:mod:`repro.solvers.dpll`) struggles with. Conflict-driven clause learning
— the centralized cousin of the paper's distributed nogood learning —
shortens those proofs by orders of magnitude.

The design is the standard modern core, sized for this library's needs
(hundreds of variables, thousands of clauses):

* **two-watched-literal** propagation (lazy clause scanning);
* **first-UIP conflict analysis** with clause minimization skipped (not
  worth its complexity at this scale) and **non-chronological
  backjumping** to the learned clause's assertion level;
* **VSIDS-style activities** with exponential decay via periodic
  rescaling, phase saving for decision polarity;
* **Luby restarts**;
* learned clauses are kept (no deletion): the workloads here never grow
  the database far enough to need it.

The solver is deterministic: no randomized tie-breaking, so identical
inputs yield identical runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.exceptions import SolverError
from .dpll import normalize_clause

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


def luby(index: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    *index* is 1-based. Iterative form of the classic recursion: if the
    index is one below a power of two, it is that half-power; otherwise
    recurse on the remainder of the enclosing block.
    """
    if index < 1:
        raise SolverError(f"luby index must be >= 1, got {index}")
    while True:
        k = index.bit_length()
        if index == (1 << k) - 1:
            return 1 << (k - 1)
        index -= (1 << (k - 1)) - 1


class CdclSolver:
    """Conflict-driven clause learning over a fixed variable count."""

    def __init__(
        self,
        num_vars: int,
        clauses: Sequence[Sequence[int]] = (),
        max_conflicts: int = 2_000_000,
        restart_base: int = 64,
    ) -> None:
        if num_vars < 1:
            raise SolverError(f"num_vars must be positive, got {num_vars}")
        self.num_vars = num_vars
        self.max_conflicts = max_conflicts
        self.restart_base = restart_base
        self._clauses: List[List[int]] = []
        self._has_empty_clause = False
        self._units: List[int] = []
        # Watch lists are keyed by the literal being falsified: watches[lit]
        # holds indices of clauses currently watching lit.
        self._watches: Dict[int, List[int]] = {}
        #: Conflicts met by the last completed :meth:`solve` call.
        self.conflicts = 0
        for clause in clauses:
            self.add_clause(clause)

    # -- formula management -----------------------------------------------------

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause (tautologies dropped; returns False for those)."""
        return self._add(literals, in_order=False)

    def insert_clause(self, literals: Sequence[int]) -> bool:
        """Add a clause at its sorted place in its two watch lists.

        Watch order fixes propagation order. :meth:`add_clause` appends, so
        a solver built from clauses in ``(len, literals)`` order has every
        watch list in that order; this method keeps it so. A solver grown
        by inserting searches exactly like one rebuilt from the sorted
        clauses, which lets a caller add clauses between :meth:`solve`
        calls without changing a single model. Same return and errors as
        :meth:`add_clause`.
        """
        return self._add(literals, in_order=True)

    def _add(self, literals: Sequence[int], in_order: bool) -> bool:
        normalized = normalize_clause(literals)
        if normalized is None:
            return False
        if not normalized:
            self._has_empty_clause = True
            return True
        # Normalised clauses are sorted by variable: the last is the largest.
        if abs(normalized[-1]) > self.num_vars:
            raise SolverError(
                f"literal {normalized[-1]} exceeds num_vars={self.num_vars}"
            )
        if len(normalized) == 1:
            self._units.append(normalized[0])
            return True
        clause = list(normalized)
        index = len(self._clauses)
        self._clauses.append(clause)
        for literal in clause[:2]:
            watching = self._watches.setdefault(literal, [])
            if in_order:
                watching.insert(self._sorted_slot(watching, clause), index)
            else:
                watching.append(index)
        return True

    def _sorted_slot(self, watching: List[int], clause: List[int]) -> int:
        """Where *clause* goes in *watching* by ``(len, literals)`` order.

        Before the first larger clause, so equal keys keep arrival order.
        Watch lists hold a handful of clauses: a linear scan is enough.
        """
        key = (len(clause), clause)
        clauses = self._clauses
        for slot, index in enumerate(watching):
            other = clauses[index]
            if (len(other), other) > key:
                return slot
        return len(watching)

    # -- public API ----------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        polarity: Optional[Dict[int, bool]] = None,
    ) -> Optional[Dict[int, bool]]:
        """One model, or None if unsatisfiable (under *assumptions*).

        Assumptions are enqueued as level-0 facts, so an UNSAT result means
        "unsatisfiable together with the assumptions"; learned clauses may
        depend on them, which is why each :meth:`solve` call starts from a
        fresh search state (learned clauses from previous calls with
        *different* assumptions are discarded along with everything else —
        reuse an instance for its formula, not its learnings).
        """
        state = _SearchState(self, assumptions)
        if polarity:
            for variable, value in polarity.items():
                if 1 <= variable <= self.num_vars:
                    state.phase[variable] = value
        model = state.run()
        self.conflicts = state.conflicts
        return model

    def is_satisfiable(self, assumptions: Sequence[int] = ()) -> bool:
        """True if a model exists under *assumptions*."""
        return self.solve(assumptions) is not None


class _SearchState:
    """One CDCL search run (fresh per solve call)."""

    def __init__(self, solver: CdclSolver, assumptions: Sequence[int]) -> None:
        self.base = solver
        self.num_vars = solver.num_vars
        # Clause database: shared problem clauses are copied by reference;
        # learned clauses are appended locally.
        self.clauses: List[List[int]] = [
            list(clause) for clause in solver._clauses
        ]
        # The truth value of every *literal*, read as vals[literal]: 2n+1
        # slots, so literal -v indexes from the end (slot 2n+1-v) and slot
        # 0 is unused. Assigning a variable writes both of its literals.
        self.vals = [_UNASSIGNED] * (2 * self.num_vars + 1)
        # Watch lists, indexed by literal the same way as vals.
        self.watches: List[List[int]] = [
            [] for _ in range(2 * self.num_vars + 1)
        ]
        for literal, indices in solver._watches.items():
            self.watches[literal] = list(indices)
        self.level = [0] * (self.num_vars + 1)
        self.reason: List[Optional[int]] = [None] * (self.num_vars + 1)
        self.trail: List[int] = []  # literals in assignment order
        self.trail_limits: List[int] = []  # trail length per decision level
        self.queue_head = 0
        self.activity = [0.0] * (self.num_vars + 1)
        self.activity_increment = 1.0
        self.phase = [True] * (self.num_vars + 1)
        self.conflicts = 0
        self.assumptions = list(assumptions)
        self.pending_units = list(solver._units)

    # -- assignment primitives --------------------------------------------------

    def enqueue(self, literal: int, reason: Optional[int]) -> bool:
        current = self.vals[literal]
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        variable = abs(literal)
        self.vals[literal] = _TRUE
        self.vals[-literal] = _FALSE
        self.level[variable] = len(self.trail_limits)
        self.reason[variable] = reason
        self.phase[variable] = literal > 0
        self.trail.append(literal)
        return True

    def propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None.

        The hottest loop of the solver: literal values are read straight
        from ``vals`` and the implied literal is enqueued inline, with the
        same watch order and trail order as :meth:`enqueue` would give.
        """
        vals = self.vals
        clauses = self.clauses
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        phase = self.phase
        decision_level = len(self.trail_limits)
        head = self.queue_head
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watching = watches[falsified]
            if not watching:
                continue
            keep: List[int] = []
            for position, index in enumerate(watching):
                clause = clauses[index]
                # Ensure the falsified literal sits at slot 1.
                first = clause[0]
                if first == falsified:
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                first_value = vals[first]
                if first_value == _TRUE:
                    keep.append(index)
                    continue
                # Look for a replacement watch.
                for slot in range(2, len(clause)):
                    candidate = clause[slot]
                    if vals[candidate] != _FALSE:
                        clause[1], clause[slot] = candidate, clause[1]
                        watches[candidate].append(index)
                        break
                else:
                    keep.append(index)
                    if first_value == _FALSE:
                        keep.extend(watching[position + 1:])
                        watches[falsified] = keep
                        self.queue_head = head
                        return index
                    # Unit: enqueue the unassigned first literal.
                    vals[first] = _TRUE
                    vals[-first] = _FALSE
                    variable = abs(first)
                    level[variable] = decision_level
                    reason[variable] = index
                    phase[variable] = first > 0
                    trail.append(first)
            watches[falsified] = keep
        self.queue_head = head
        return None

    # -- conflict analysis -----------------------------------------------------------

    def bump(self, variable: int) -> None:
        self.activity[variable] += self.activity_increment
        if self.activity[variable] > 1e100:
            for index in range(1, self.num_vars + 1):
                self.activity[index] *= 1e-100
            self.activity_increment *= 1e-100

    def analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """First-UIP learned clause and its backjump level."""
        clauses = self.clauses
        level = self.level
        trail = self.trail
        bump = self.bump
        current_level = len(self.trail_limits)
        learned: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0  # literals of the current level still to resolve
        literal = 0
        index = conflict_index
        trail_position = len(trail) - 1
        while True:
            clause = clauses[index]
            # For a *reason* clause the asserting literal sits at slot 0
            # (propagation maintains this while the clause is locked as a
            # reason) and is the resolved-upon variable: skip it. The
            # initial conflict clause contributes every literal.
            relevant = clause if literal == 0 else clause[1:]
            for clause_literal in relevant:
                variable = abs(clause_literal)
                variable_level = level[variable]
                if seen[variable] or variable_level == 0:
                    continue
                seen[variable] = True
                bump(variable)
                if variable_level == current_level:
                    counter += 1
                else:
                    learned.append(clause_literal)
            # Find the next current-level literal on the trail to resolve.
            while not seen[abs(trail[trail_position])]:
                trail_position -= 1
            literal = trail[trail_position]
            seen[abs(literal)] = False
            counter -= 1
            trail_position -= 1
            if counter == 0:
                learned[0] = -literal
                break
            index = self.reason[abs(literal)]
            if index is None:
                raise SolverError("reached a decision while resolving")
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the learned clause, and
        # put a literal of that level in slot 1 (watch invariant).
        best_slot = 1
        for slot in range(2, len(learned)):
            if level[abs(learned[slot])] > level[abs(learned[best_slot])]:
                best_slot = slot
        learned[1], learned[best_slot] = learned[best_slot], learned[1]
        return learned, level[abs(learned[1])]

    def backjump(self, target_level: int) -> None:
        trail_limits = self.trail_limits
        if len(trail_limits) <= target_level:
            return
        limit = trail_limits[target_level]
        del trail_limits[target_level:]
        vals = self.vals
        reason = self.reason
        trail = self.trail
        for literal in trail[limit:]:
            vals[literal] = _UNASSIGNED
            vals[-literal] = _UNASSIGNED
            reason[abs(literal)] = None
        del trail[limit:]
        self.queue_head = min(self.queue_head, limit)

    # -- the main loop -------------------------------------------------------------------

    def pick_variable(self) -> Optional[int]:
        vals = self.vals
        activity = self.activity
        best = None
        best_activity = -1.0
        for variable in range(1, self.num_vars + 1):
            if vals[variable] == _UNASSIGNED:
                if activity[variable] > best_activity:
                    best_activity = activity[variable]
                    best = variable
        return best

    def run(self) -> Optional[Dict[int, bool]]:
        if self.base._has_empty_clause:
            return None
        for literal in self.pending_units + self.assumptions:
            if not self.enqueue(literal, reason=None):
                return None
        if self.propagate() is not None:
            return None
        restart_index = 1
        conflicts_until_restart = self.base.restart_base * luby(restart_index)
        while True:
            conflict = self.propagate()
            if conflict is not None:
                self.conflicts += 1
                if self.conflicts > self.base.max_conflicts:
                    raise SolverError(
                        f"CDCL conflict budget exhausted "
                        f"({self.base.max_conflicts})"
                    )
                if not self.trail_limits:
                    return None
                learned, backjump_level = self.analyze(conflict)
                self.backjump(backjump_level)
                if len(learned) == 1:
                    if not self.enqueue(learned[0], reason=None):
                        return None
                else:
                    index = len(self.clauses)
                    self.clauses.append(learned)
                    self.watches[learned[0]].append(index)
                    self.watches[learned[1]].append(index)
                    self.enqueue(learned[0], reason=index)
                self.activity_increment *= 1.05
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0 and self.trail_limits:
                    restart_index += 1
                    conflicts_until_restart = self.base.restart_base * luby(
                        restart_index
                    )
                    self.backjump(0)
                continue
            variable = self.pick_variable()
            if variable is None:
                return {
                    v: self.vals[v] == _TRUE
                    for v in range(1, self.num_vars + 1)
                }
            self.trail_limits.append(len(self.trail))
            literal = variable if self.phase[variable] else -variable
            self.enqueue(literal, reason=None)
