"""CSP and DisCSP model semantics."""

import random

import pytest

from repro.core.exceptions import ModelError
from repro.core.nogood import Nogood
from repro.core.problem import CSP, DisCSP, random_assignment
from repro.core.variables import integer_domain


def two_var_csp():
    domain = integer_domain(2)
    return CSP({0: domain, 1: domain}, [Nogood.of((0, 0), (1, 0))])


class TestCsp:
    def test_variables_sorted(self):
        domain = integer_domain(2)
        csp = CSP({3: domain, 1: domain}, [])
        assert csp.variables == (1, 3)

    def test_domain_lookup(self):
        csp = two_var_csp()
        assert csp.domain_of(0).values == (0, 1)
        with pytest.raises(ModelError):
            csp.domain_of(9)

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            CSP({}, [])

    def test_rejects_negative_variable_ids(self):
        # The nogood store's classification enumerates the ids below its
        # owner's, so ids start at 0.
        with pytest.raises(ModelError):
            CSP({-1: integer_domain(2), 0: integer_domain(2)}, [])

    def test_rejects_nogood_on_unknown_variable(self):
        with pytest.raises(ModelError):
            CSP({0: integer_domain(2)}, [Nogood.of((5, 0))])

    def test_rejects_nogood_value_outside_domain(self):
        with pytest.raises(ModelError):
            CSP({0: integer_domain(2)}, [Nogood.of((0, 7))])

    def test_relevant_nogoods(self):
        csp = two_var_csp()
        assert csp.relevant_nogoods(0) == csp.nogoods
        assert csp.relevant_nogoods(1) == csp.nogoods

    def test_neighbors(self):
        csp = two_var_csp()
        assert csp.neighbors_of(0) == frozenset({1})
        assert csp.neighbors_of(1) == frozenset({0})

    def test_is_solution(self):
        csp = two_var_csp()
        assert csp.is_solution({0: 0, 1: 1})
        assert not csp.is_solution({0: 0, 1: 0})  # violates the nogood
        assert not csp.is_solution({0: 0})  # incomplete
        assert not csp.is_solution({0: 0, 1: 5})  # out of domain

    def test_violated_nogoods(self):
        csp = two_var_csp()
        assert csp.violated_nogoods({0: 0, 1: 0}) == list(csp.nogoods)
        assert csp.violated_nogoods({0: 1, 1: 0}) == []


class TestDisCsp:
    def test_one_variable_per_agent(self):
        problem = DisCSP.one_variable_per_agent(
            {0: integer_domain(2), 1: integer_domain(2)},
            [Nogood.of((0, 0), (1, 0))],
        )
        assert problem.agents == (0, 1)
        assert problem.owner_of(0) == 0
        assert problem.variables_of(1) == (1,)
        assert problem.is_one_variable_per_agent()

    def test_custom_ownership(self):
        csp = two_var_csp()
        problem = DisCSP(csp, {0: 7, 1: 7})
        assert problem.agents == (7,)
        assert problem.variables_of(7) == (0, 1)
        assert not problem.is_one_variable_per_agent()

    def test_rejects_unowned_variable(self):
        with pytest.raises(ModelError):
            DisCSP(two_var_csp(), {0: 1})

    def test_rejects_unknown_variable_in_ownership(self):
        with pytest.raises(ModelError):
            DisCSP(two_var_csp(), {0: 1, 1: 1, 9: 1})

    def test_local_nogoods_include_interagent(self):
        problem = DisCSP.from_csp(two_var_csp())
        # The shared nogood appears in both agents' local problems — the
        # paper's locality assumption.
        assert problem.local_nogoods(0) == two_var_csp().nogoods
        assert problem.local_nogoods(1) == two_var_csp().nogoods

    def test_local_nogoods_deduplicated_for_multivar_agent(self):
        problem = DisCSP(two_var_csp(), {0: 7, 1: 7})
        assert len(problem.local_nogoods(7)) == 1

    def test_neighbors(self):
        problem = DisCSP.from_csp(two_var_csp())
        assert problem.neighbors_of(0) == frozenset({1})

    def test_neighbors_exclude_self_for_multivar(self):
        problem = DisCSP(two_var_csp(), {0: 7, 1: 7})
        assert problem.neighbors_of(7) == frozenset()

    def test_is_solution_delegates(self):
        problem = DisCSP.from_csp(two_var_csp())
        assert problem.is_solution({0: 1, 1: 0})
        assert not problem.is_solution({0: 0, 1: 0})


class TestRandomAssignment:
    def test_complete_and_in_domain(self):
        csp = two_var_csp()
        assignment = random_assignment(csp, random.Random(0))
        assert set(assignment) == {0, 1}
        for variable, value in assignment.items():
            assert value in csp.domain_of(variable)

    def test_deterministic_for_seed(self):
        csp = two_var_csp()
        first = random_assignment(csp, random.Random(5))
        second = random_assignment(csp, random.Random(5))
        assert first == second
