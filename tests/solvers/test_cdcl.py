"""The CDCL solver, cross-checked against DPLL and known-hard formulas."""

import random

import pytest

from repro.core.exceptions import SolverError
from repro.solvers.cdcl import CdclSolver, luby
from repro.solvers.dpll import DpllSolver, blocking_clause, normalize_clause


def pigeonhole(holes: int):
    """PHP(holes+1, holes): unsatisfiable, classically hard for resolution.

    Variables p(i, j) = pigeon i sits in hole j, numbered 1-based.
    """
    pigeons = holes + 1

    def var(i, j):
        return i * holes + j + 1

    clauses = []
    for i in range(pigeons):
        clauses.append([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-var(i1, j), -var(i2, j)])
    return pigeons * holes, clauses


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_invalid_index(self):
        with pytest.raises(SolverError):
            luby(0)


class TestBasics:
    def test_trivial_sat(self):
        assert CdclSolver(2, [[1], [2]]).solve() == {1: True, 2: True}

    def test_unit_chain(self):
        model = CdclSolver(3, [[1], [-1, 2], [-2, 3]]).solve()
        assert model == {1: True, 2: True, 3: True}

    def test_trivial_unsat(self):
        assert CdclSolver(1, [[1], [-1]]).solve() is None

    def test_empty_clause_unsat(self):
        assert CdclSolver(1, [[]]).solve() is None

    def test_model_satisfies(self):
        clauses = [[1, 2, -3], [-1, 3], [2, 3], [-2, -3, 1]]
        model = CdclSolver(3, clauses).solve()
        assert model is not None
        for clause in clauses:
            assert any((lit > 0) == model[abs(lit)] for lit in clause)

    def test_assumptions(self):
        solver = CdclSolver(2, [[1, 2]])
        model = solver.solve(assumptions=[-1])
        assert model[2] is True
        assert solver.solve(assumptions=[-1, -2]) is None

    def test_solver_reusable_across_calls(self):
        solver = CdclSolver(2, [[1, 2]])
        assert solver.solve(assumptions=[-1]) is not None
        assert solver.solve(assumptions=[-2]) is not None
        assert solver.solve() is not None

    def test_out_of_range_literal(self):
        with pytest.raises(SolverError):
            CdclSolver(2, [[3]])

    def test_tautology_dropped(self):
        solver = CdclSolver(1)
        assert solver.add_clause([1, -1]) is False
        assert solver.solve() is not None


class TestAgainstDpll:
    def test_random_3sat_agreement(self):
        rng = random.Random(7)
        for _trial in range(60):
            n = rng.randint(4, 9)
            m = rng.randint(5, round(5.5 * n))
            clauses = [
                [
                    rng.choice([1, -1]) * v
                    for v in rng.sample(range(1, n + 1), 3)
                ]
                for _ in range(m)
            ]
            dpll = DpllSolver(n, clauses).solve()
            cdcl = CdclSolver(n, clauses).solve()
            assert (dpll is None) == (cdcl is None), clauses
            if cdcl is not None:
                assert all(
                    any((lit > 0) == cdcl[abs(lit)] for lit in clause)
                    for clause in clauses
                )

    def test_random_mixed_width_agreement(self):
        rng = random.Random(11)
        for _trial in range(40):
            n = rng.randint(3, 8)
            clauses = [
                [
                    rng.choice([1, -1]) * v
                    for v in rng.sample(
                        range(1, n + 1), rng.randint(1, min(3, n))
                    )
                ]
                for _ in range(rng.randint(2, 4 * n))
            ]
            dpll = DpllSolver(n, clauses).is_satisfiable()
            cdcl = CdclSolver(n, clauses).is_satisfiable()
            assert dpll == cdcl, clauses


def random_3sat(seed, num_vars, num_clauses):
    rng = random.Random(seed)
    return [
        [rng.choice([1, -1]) * v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


class TestPinnedSearch:
    """The search itself is pinned: the unique-solution generator's
    instances depend on which models the solver finds, so a kernel change
    must keep the watch order, decision order and learned clauses."""

    def test_satisfiable_formula_model_and_conflicts(self):
        solver = CdclSolver(60, random_3sat(3, 60, 250))
        model = solver.solve()
        assert solver.conflicts == 95  # past the first restart (64)
        bits = "".join("1" if model[v] else "0" for v in range(1, 61))
        assert bits == (
            "110011000000011000101100110110011110101011111010001100000000"
        )

    def test_unsatisfiable_formula_conflicts(self):
        solver = CdclSolver(60, random_3sat(1, 60, 250))
        assert solver.solve() is None
        assert solver.conflicts == 141


def watched_clauses(solver):
    """Each watch list as the clauses it names, in watch order."""
    return {
        literal: [tuple(solver._clauses[index]) for index in indices]
        for literal, indices in solver._watches.items()
    }


def distinct_3sat(seed, num_vars, num_clauses):
    """Sorted distinct normalised 3-clauses, as the generators keep them."""
    return sorted({
        normalize_clause(clause)
        for clause in random_3sat(seed, num_vars, num_clauses)
    })


class TestInsertClause:
    """A solver grown with insert_clause searches exactly like a solver
    rebuilt from the sorted clauses: the unique-solution generator relies
    on it to keep its instances while reusing one solver."""

    def test_grown_solver_matches_fresh_build(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(6, 30)
            clauses = distinct_3sat(seed, n, round(4.2 * n))
            rest = rng.sample(clauses, rng.randint(1, len(clauses) - 1))
            base = sorted(set(clauses) - set(rest))
            planted = {v: rng.random() < 0.5 for v in range(1, n + 1)}
            block = blocking_clause(planted)
            polarity = {v: not value for v, value in planted.items()}

            grown = CdclSolver(n, base)
            grown.add_clause(block)
            for clause in rest:
                assert grown.insert_clause(clause) is True
            fresh = CdclSolver(n, clauses)
            fresh.add_clause(block)

            assert watched_clauses(grown) == watched_clauses(fresh)
            assert grown.solve(polarity=polarity) == fresh.solve(
                polarity=polarity
            )
            assert grown.conflicts == fresh.conflicts

    def test_inserted_clause_sorts_before_longer_clauses(self):
        solver = CdclSolver(4, [[1, 2, 3, 4]])
        solver.insert_clause([2, 1, -3])
        assert watched_clauses(solver)[1] == [(1, 2, -3), (1, 2, 3, 4)]

    def test_screens_like_add_clause(self):
        solver = CdclSolver(3)
        assert solver.insert_clause([1, -1]) is False
        with pytest.raises(SolverError):
            solver.insert_clause([1, 4])


class TestHardFormulas:
    def test_pigeonhole_unsat(self):
        num_vars, clauses = pigeonhole(5)
        assert CdclSolver(num_vars, clauses).solve() is None

    def test_pigeonhole_satisfiable_variant(self):
        # Equal pigeons and holes: satisfiable.
        holes = 4
        def var(i, j):
            return i * holes + j + 1
        clauses = [[var(i, j) for j in range(holes)] for i in range(holes)]
        for j in range(holes):
            for i1 in range(holes):
                for i2 in range(i1 + 1, holes):
                    clauses.append([-var(i1, j), -var(i2, j)])
        model = CdclSolver(holes * holes, clauses).solve()
        assert model is not None

    def test_conflict_budget(self):
        num_vars, clauses = pigeonhole(7)
        solver = CdclSolver(num_vars, clauses, max_conflicts=5)
        with pytest.raises(SolverError):
            solver.solve()

    def test_unique_solution_instances(self):
        from repro.problems.sat.generators import unique_solution_3sat
        from repro.solvers.dpll import blocking_clause

        for seed in range(3):
            instance = unique_solution_3sat(15, seed=seed)
            solver = CdclSolver(15, instance.formula.clauses)
            model = solver.solve()
            assert model == instance.planted
            # Blocking the unique model makes it UNSAT.
            solver.add_clause(blocking_clause(model))
            assert solver.solve() is None
