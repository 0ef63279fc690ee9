"""End-to-end properties: distributed algorithms vs the centralized oracle.

For random small binary CSPs (solvable or not), the distributed algorithms
must agree with the backtracking oracle: a reported solution must actually
solve the problem, a complete algorithm's "unsolvable" verdict must match
the oracle, and no algorithm may claim success on an unsolvable instance.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algorithms.registry import abt, awc, db
from repro.experiments.runner import run_trial
from repro.problems.binary_csp import random_binary_csp
from repro.solvers.backtracking import solve_csp

# Small instances (6 variables, domain 3) keep a hypothesis run fast while
# still producing both solvable and unsolvable problems.
unplanted_instances = st.builds(
    random_binary_csp,
    num_variables=st.just(6),
    domain_size=st.just(3),
    density=st.sampled_from([0.3, 0.6, 0.9]),
    tightness=st.sampled_from([0.2, 0.4, 0.6]),
    seed=st.integers(0, 10_000),
    planted=st.just(False),
)

planted_instances = st.builds(
    random_binary_csp,
    num_variables=st.just(7),
    domain_size=st.just(3),
    density=st.sampled_from([0.4, 0.7]),
    tightness=st.sampled_from([0.2, 0.35]),
    seed=st.integers(0, 10_000),
    planted=st.just(True),
)


class TestCompleteAlgorithmsMatchOracle:
    # Mcs once reported solvable instances as unsolvable.
    @pytest.mark.parametrize("learning", ["Rslv", "Mcs"])
    @given(unplanted_instances, st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_awc_verdict_matches_backtracking(self, learning, instance, seed):
        oracle = solve_csp(instance.csp)
        problem = instance.to_discsp()
        result = run_trial(
            problem, awc(learning), seed=seed, max_cycles=20_000
        )
        if oracle is None:
            assert not result.solved
            assert result.unsolvable
        else:
            assert result.solved
            assert instance.csp.is_solution(result.assignment)

    @given(unplanted_instances, st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_abt_verdict_matches_backtracking(self, instance, seed):
        oracle = solve_csp(instance.csp)
        problem = instance.to_discsp()
        result = run_trial(problem, abt(), seed=seed, max_cycles=20_000)
        if oracle is None:
            assert result.unsolvable
        else:
            assert result.solved
            assert instance.csp.is_solution(result.assignment)


class TestNoFalsePositives:
    @given(unplanted_instances, st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_db_never_claims_an_invalid_solution(self, instance, seed):
        problem = instance.to_discsp()
        result = run_trial(problem, db(), seed=seed, max_cycles=2_000)
        if result.solved:
            assert instance.csp.is_solution(result.assignment)

    @given(planted_instances, st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_incomplete_variants_still_sound(self, instance, seed):
        """No and 2ndRslv drop nogoods, so they may fail to finish, but
        whatever they report must be true."""
        problem = instance.to_discsp()
        for spec in (awc("No"), awc("2ndRslv")):
            result = run_trial(problem, spec, seed=seed, max_cycles=10_000)
            assert not result.unsolvable  # planted instances are solvable
            if result.solved:
                assert instance.csp.is_solution(result.assignment)
            else:
                assert result.capped or result.quiescent


class TestKnownLivelock:
    """AWC without nogood recording is incomplete, and here is a witness.

    From cycle 8 on, AWC+No's values and gap-compressed priorities repeat
    with period 2 and no agent draws from its rng, so the run never ends;
    recording nogoods (Rslv) breaks the loop.
    """

    INSTANCE = dict(
        num_variables=7,
        domain_size=3,
        density=0.7,
        tightness=0.35,
        seed=3434,
        planted=True,
    )

    def run(self, learning):
        instance = random_binary_csp(**self.INSTANCE)
        return run_trial(
            instance.to_discsp(), awc(learning), seed=100, max_cycles=1_000
        )

    def test_awc_no_caps_unsolved(self):
        result = self.run("No")
        assert not result.solved
        assert not result.unsolvable
        assert result.capped
        assert result.cycles == 1_000

    def test_awc_rslv_solves_the_same_trial(self):
        result = self.run("Rslv")
        assert result.solved
        assert random_binary_csp(**self.INSTANCE).csp.is_solution(
            result.assignment
        )


class TestDeterminismProperty:
    @given(planted_instances, st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_identical_seeds_identical_runs(self, instance, seed):
        problem = instance.to_discsp()
        first = run_trial(problem, awc("Rslv"), seed=seed)
        second = run_trial(problem, awc("Rslv"), seed=seed)
        assert first.cycles == second.cycles
        assert first.maxcck == second.maxcck
        assert first.assignment == second.assignment
