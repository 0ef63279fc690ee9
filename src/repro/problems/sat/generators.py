"""Random 3SAT generators in the styles the paper uses.

The paper's 3SAT workloads come from Cha & Iwama's AIM generators:

* **3SAT-GEN** — satisfiable instances at a chosen clause/variable ratio
  (the paper uses m = 4.3 n). We reproduce the defining property with a
  planted-solution generator: fix a hidden model, then sample distinct
  3-clauses uniformly among those the model satisfies, enforcing that every
  variable occurs somewhere (so every agent of the derived DisCSP actually
  participates).

* **3ONESAT-GEN** — satisfiable instances with **exactly one** model at
  ratio ≈ 3.4. We plant a model, start from a planted base formula, and
  repeatedly (a) ask a complete SAT engine (CDCL by default; plain DPLL
  optionally) for a model different from the planted one, (b) add a
  3-clause satisfied by the planted model but
  falsified by the found one. When the solver proves no second model
  exists, the instance is certifiably unique. Padding clauses satisfied by
  the planted model (which can never add models) bring the clause count up
  to the target ratio when the process converges early.

The substitution for the original AIM files is documented in DESIGN.md:
both generators produce instances with exactly the properties the paper's
experiments rely on, machine-checked where it matters (uniqueness).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Union

from ...core.exceptions import GenerationError
from ...runtime.random_source import Seed, derive_rng
from ...solvers.cdcl import CdclSolver
from ...solvers.dpll import Clause, DpllSolver, blocking_clause, normalize_clause
from .cnf import CnfFormula, Model

#: The paper's ratios.
PAPER_3SAT_RATIO = 4.3
PAPER_ONESAT_RATIO = 3.4


@dataclass(frozen=True)
class SatInstance:
    """A generated formula plus its planted model."""

    formula: CnfFormula
    planted: Model

    @property
    def num_vars(self) -> int:
        return self.formula.num_vars


def _random_model(num_vars: int, rng: random.Random) -> Model:
    return {variable: rng.random() < 0.5 for variable in range(1, num_vars + 1)}


def _random_clause_satisfied_by(
    model: Model,
    rng: random.Random,
    num_vars: int,
    include: Sequence[int] = (),
    balanced: bool = True,
) -> Clause:
    """A random non-tautological 3-clause that *model* satisfies.

    *include* forces specific variables into the clause (used to guarantee
    variable coverage). With ``balanced=True`` the clause must also be
    satisfied by the *complement* of the model (i.e. its literals are mixed:
    neither all true nor all false under the model). Complementary planting
    is the standard antidote to the well-known bias of naive planted 3SAT,
    whose polarity statistics point local search straight at the hidden
    solution — with it, the instances behave like the paper's hard
    satisfiable AIM instances rather than like easy planted ones.
    """
    while True:
        variables = list(include)
        while len(variables) < 3:
            candidate = rng.randint(1, num_vars)
            if candidate not in variables:
                variables.append(candidate)
        literals = tuple(
            variable if rng.random() < 0.5 else -variable
            for variable in variables
        )
        agreeing = sum(
            (literal > 0) == model[abs(literal)] for literal in literals
        )
        if balanced:
            acceptable = 0 < agreeing < len(literals)
        else:
            acceptable = agreeing > 0
        if acceptable:
            clause = normalize_clause(literals)
            if clause is not None:
                return clause


def planted_3sat(
    num_vars: int,
    ratio: float = PAPER_3SAT_RATIO,
    seed: Seed = 0,
    num_clauses: Optional[int] = None,
    ensure_coverage: bool = True,
    balanced: bool = True,
) -> SatInstance:
    """A satisfiable random 3SAT instance with a planted model (3SAT-GEN style).

    Clauses are distinct; with *ensure_coverage* every variable occurs in at
    least one clause (feasible only when ``m >= ceil(n / 3)``). With the
    default ``balanced=True`` every clause is satisfied by the planted
    model's complement too, which removes the polarity bias that makes
    naively planted instances easy for local search (see
    :func:`_random_clause_satisfied_by`); the resulting difficulty matches
    the paper's AIM workloads much more closely. Note that the complement is
    then also a model, so the instance has at least two solutions.
    """
    rng = derive_rng(seed, "3sat-gen", num_vars)
    if num_clauses is None:
        num_clauses = round(ratio * num_vars)
    if num_vars < 3:
        raise GenerationError("3SAT generation needs at least 3 variables")
    if ensure_coverage and 3 * num_clauses < num_vars:
        raise GenerationError(
            f"{num_clauses} clauses cannot cover {num_vars} variables"
        )
    model = _random_model(num_vars, rng)
    clauses: Set[Clause] = set()
    attempts = 0
    max_attempts = 200 * num_clauses + 10_000
    while len(clauses) < num_clauses:
        attempts += 1
        if attempts > max_attempts:
            raise GenerationError(
                f"clause sampling did not converge after {max_attempts} draws"
            )
        clauses.add(
            _random_clause_satisfied_by(model, rng, num_vars, balanced=balanced)
        )
    ordered = sorted(clauses)
    if ensure_coverage:
        ordered = _ensure_variable_coverage(
            ordered, model, rng, num_vars, balanced
        )
    formula = CnfFormula(num_vars, ordered)
    return SatInstance(formula=formula, planted=model)


def _ensure_variable_coverage(
    clauses: List[Clause],
    model: Model,
    rng: random.Random,
    num_vars: int,
    balanced: bool = True,
) -> List[Clause]:
    """Swap clauses until every variable occurs, keeping the count fixed.

    Missing variables get fresh clauses containing them; each new clause
    replaces one whose removal keeps all its variables covered elsewhere.
    """
    occurrences: Dict[int, int] = {v: 0 for v in range(1, num_vars + 1)}
    for clause in clauses:
        for literal in clause:
            occurrences[abs(literal)] += 1
    missing = [v for v, count in occurrences.items() if count == 0]
    rng.shuffle(missing)
    clause_set = set(clauses)
    # Cover up to three missing variables per replacement clause.
    while missing:
        batch = missing[:3]
        missing = missing[3:]
        new_clause = None
        for _ in range(1000):
            candidate = _random_clause_satisfied_by(
                model, rng, num_vars, include=batch, balanced=balanced
            )
            if candidate not in clause_set:
                new_clause = candidate
                break
        if new_clause is None:
            raise GenerationError(
                f"could not build a fresh covering clause for {batch}"
            )
        removable = None
        for clause in clause_set:
            if all(occurrences[abs(literal)] >= 2 for literal in clause):
                removable = clause
                break
        if removable is None:
            raise GenerationError(
                "no removable clause while enforcing variable coverage"
            )
        clause_set.remove(removable)
        for literal in removable:
            occurrences[abs(literal)] -= 1
        clause_set.add(new_clause)
        for literal in new_clause:
            occurrences[abs(literal)] += 1
    return sorted(clause_set)


def unique_solution_3sat(
    num_vars: int,
    ratio: float = PAPER_ONESAT_RATIO,
    seed: Seed = 0,
    base_ratio: float = 2.8,
    max_iterations: Optional[int] = None,
    max_nodes: int = 5_000_000,
    verify: bool = False,
    engine: str = "cdcl",
) -> SatInstance:
    """A satisfiable 3SAT instance with exactly one model (3ONESAT-GEN style).

    The uniqueness proof is the final UNSAT call of the elimination loop:
    when the SAT engine (CDCL by default) finds no model besides the
    planted one, exactly one model remains. Padding afterwards only adds
    clauses the planted model satisfies, which cannot create new models.
    Set *verify* for an independent ``count_models(limit=2) == 1``
    re-check (redundant but reassuring; used by the tests).
    """
    rng = derive_rng(seed, "3onesat-gen", num_vars)
    base = planted_3sat(
        num_vars,
        ratio=base_ratio,
        seed=derive_seed_for_base(seed, num_vars),
        ensure_coverage=True,
    )
    model = base.planted
    clauses: Set[Clause] = set(base.formula.clauses)
    block = blocking_clause(model)
    away_from_model = {variable: not value for variable, value in model.items()}
    if max_iterations is None:
        max_iterations = 200 * num_vars + 1000
    solver: Union[CdclSolver, DpllSolver]
    if engine == "cdcl":
        # One solver per instance. Each separating clause goes in at its
        # sorted place among the 3-clauses, ahead of the n-literal block,
        # so every round searches exactly as a rebuild would.
        solver = CdclSolver(num_vars, sorted(clauses))
        solver.add_clause(block)
    elif engine != "dpll":
        raise GenerationError(f"unknown solver engine {engine!r}")
    for _iteration in range(max_iterations):
        if engine == "dpll":
            solver = DpllSolver(
                num_vars, sorted(clauses), max_nodes=max_nodes
            )
            solver.add_clause(block)
        other = solver.solve(polarity=away_from_model)
        if other is None:
            break
        separating = _separating_clause(model, other, rng, num_vars, clauses)
        clauses.add(separating)
        if isinstance(solver, CdclSolver):
            solver.insert_clause(separating)
    else:
        raise GenerationError(
            f"unique-solution elimination did not converge within "
            f"{max_iterations} iterations (n={num_vars})"
        )
    target = round(ratio * num_vars)
    attempts = 0
    while len(clauses) < target:
        attempts += 1
        if attempts > 200 * target + 10_000:
            raise GenerationError("padding did not converge")
        clauses.add(_random_clause_satisfied_by(model, rng, num_vars))
    formula = CnfFormula(num_vars, sorted(clauses))
    if verify:
        checker = DpllSolver(num_vars, formula.clauses, max_nodes=max_nodes)
        count = checker.count_models(limit=2)
        if count != 1:
            raise GenerationError(
                f"uniqueness verification failed: {count} models"
            )
    return SatInstance(formula=formula, planted=model)


def derive_seed_for_base(seed: Seed, num_vars: int) -> int:
    """The seed of the base formula inside :func:`unique_solution_3sat`."""
    from ...runtime.random_source import derive_seed

    return derive_seed(seed, "3onesat-base", num_vars)


def _separating_clause(
    model: Model,
    other: Model,
    rng: random.Random,
    num_vars: int,
    existing: Set[Clause],
) -> Clause:
    """A fresh 3-clause satisfied by *model* but falsified by *other*.

    Literals on variables where the models differ take *model*'s polarity
    (true under it, false under *other*); literals on agreeing variables
    take the polarity falsified by both. At least one literal comes from the
    difference set, so the clause separates the two models.
    """
    difference = [
        variable for variable in range(1, num_vars + 1)
        if model[variable] != other[variable]
    ]
    if not difference:
        raise GenerationError("models to separate are identical")
    agreeing = [
        variable for variable in range(1, num_vars + 1)
        if model[variable] == other[variable]
    ]
    for _ in range(10_000):
        take_diff = rng.randint(1, min(3, len(difference)))
        if 3 - take_diff > len(agreeing):
            take_diff = 3 - len(agreeing)
        take_agree = 3 - take_diff
        variables = rng.sample(difference, take_diff) + rng.sample(
            agreeing, take_agree
        )
        literals = []
        for variable in variables:
            if model[variable] != other[variable]:
                literals.append(variable if model[variable] else -variable)
            else:
                literals.append(-variable if other[variable] else variable)
        clause = normalize_clause(literals)
        if clause is not None and clause not in existing:
            return clause
    raise GenerationError("could not construct a fresh separating clause")
