"""The DPLL substrate: solving, counting, and the blocking-clause helper."""

import itertools
import random

import pytest

from repro.core.exceptions import SolverError
from repro.solvers.dpll import DpllSolver, blocking_clause, normalize_clause


def brute_force_models(num_vars, clauses):
    """All models by enumeration (tiny formulas only)."""
    models = []
    for bits in itertools.product([False, True], repeat=num_vars):
        model = {v: bits[v - 1] for v in range(1, num_vars + 1)}
        ok = all(
            any(
                (lit > 0) == model[abs(lit)]
                for lit in clause
            )
            for clause in clauses
        )
        if ok:
            models.append(model)
    return models


class TestNormalize:
    def test_sorts_and_dedupes(self):
        assert normalize_clause([3, -1, 3]) == (-1, 3)

    def test_tautology_dropped(self):
        assert normalize_clause([1, -1, 2]) is None

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            normalize_clause([1, 0])

    def test_empty_clause_allowed(self):
        assert normalize_clause([]) == ()

    def test_matches_reference_on_random_lists(self):
        # Literals in -4..4 give zeros, duplicates, tautologies and (at
        # length 0) empty lists in one stream.
        rng = random.Random(5)
        for _ in range(2000):
            literals = [rng.randint(-4, 4) for _ in range(rng.randint(0, 6))]
            assert _outcome(normalize_clause, literals) == _outcome(
                reference_normalize, literals
            ), literals


def reference_normalize(literals):
    """The original generator-scan screen, kept as a test oracle."""
    unique = sorted(set(literals), key=abs)
    if any(literal == 0 for literal in unique):
        raise SolverError("clause contains the literal 0")
    seen = set(unique)
    if any(-literal in seen for literal in unique):
        return None
    return tuple(unique)


def _outcome(normalize, literals):
    try:
        return normalize(literals)
    except SolverError as error:
        return ("error", str(error))


class TestSolve:
    def test_trivially_satisfiable(self):
        solver = DpllSolver(2, [[1], [2]])
        model = solver.solve()
        assert model == {1: True, 2: True}

    def test_unit_propagation_chain(self):
        solver = DpllSolver(3, [[1], [-1, 2], [-2, 3]])
        assert solver.solve() == {1: True, 2: True, 3: True}

    def test_unsatisfiable(self):
        solver = DpllSolver(1, [[1], [-1]])
        assert solver.solve() is None

    def test_empty_clause_unsat(self):
        solver = DpllSolver(1, [[]])
        assert solver.solve() is None

    def test_model_actually_satisfies(self):
        clauses = [[1, 2, -3], [-1, 3], [2, 3], [-2, -3, 1]]
        solver = DpllSolver(3, clauses)
        model = solver.solve()
        assert model is not None
        for clause in clauses:
            assert any((lit > 0) == model[abs(lit)] for lit in clause)

    def test_assumptions(self):
        solver = DpllSolver(2, [[1, 2]])
        model = solver.solve(assumptions=[-1])
        assert model[1] is False and model[2] is True
        assert solver.solve(assumptions=[-1, -2]) is None

    def test_polarity_hint_steers_free_variables(self):
        solver = DpllSolver(2, [[1, 2]])
        model = solver.solve(polarity={1: False, 2: True})
        assert model == {1: False, 2: True}

    def test_agreement_with_brute_force(self):
        import random

        rng = random.Random(0)
        for _trial in range(30):
            n = rng.randint(3, 6)
            clauses = [
                [
                    rng.choice([1, -1]) * v
                    for v in rng.sample(range(1, n + 1), 3)
                ]
                for _ in range(rng.randint(3, 14))
            ]
            expected = brute_force_models(n, clauses)
            solver = DpllSolver(n, clauses)
            model = solver.solve()
            assert (model is not None) == bool(expected)
            if model is not None:
                assert model in expected


class TestCounting:
    def test_counts_match_brute_force(self):
        import random

        rng = random.Random(1)
        for _trial in range(30):
            n = rng.randint(3, 6)
            clauses = [
                [
                    rng.choice([1, -1]) * v
                    for v in rng.sample(range(1, n + 1), rng.randint(1, 3))
                ]
                for _ in range(rng.randint(2, 10))
            ]
            exact = len(brute_force_models(n, clauses))
            counted = DpllSolver(n, clauses).count_models(limit=1 << n)
            assert counted == exact

    def test_limit_caps_the_count(self):
        solver = DpllSolver(4, [[1, 2]])
        assert solver.count_models(limit=2) == 2

    def test_free_variables_counted(self):
        # One clause over x1; x2, x3 free: 1 * 2^2 + ... = 4 models with
        # x1 true... plus none with x1 false: total 4.
        solver = DpllSolver(3, [[1]])
        assert solver.count_models(limit=100) == 4

    def test_unsat_counts_zero(self):
        assert DpllSolver(1, [[1], [-1]]).count_models() == 0

    def test_bad_limit_rejected(self):
        with pytest.raises(SolverError):
            DpllSolver(1, [[1]]).count_models(limit=0)


class TestIncremental:
    def test_add_clause_then_resolve(self):
        solver = DpllSolver(2, [[1, 2]])
        assert solver.solve() is not None
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() is None

    def test_tautology_add_reports_false(self):
        solver = DpllSolver(2)
        assert solver.add_clause([1, -1]) is False
        assert solver.add_clause([1]) is True

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(SolverError):
            DpllSolver(2, [[3]])

    def test_node_budget_enforced(self):
        # A pigeonhole-ish formula with an absurdly small budget.
        clauses = [[v, v + 1] for v in range(1, 9)]
        solver = DpllSolver(10, clauses, max_nodes=2)
        with pytest.raises(SolverError):
            solver.count_models(limit=10**6)


class TestBlockingClause:
    def test_excludes_exactly_that_model(self):
        model = {1: True, 2: False}
        clause = blocking_clause(model)
        assert clause == (-1, 2)
        solver = DpllSolver(2, [list(clause)])
        assert solver.count_models(limit=10) == 3  # all but the blocked one

    def test_reusable_for_second_model_search(self):
        solver = DpllSolver(2, [[1, 2]])
        first = solver.solve()
        solver.add_clause(blocking_clause(first))
        second = solver.solve()
        assert second is not None and second != first
