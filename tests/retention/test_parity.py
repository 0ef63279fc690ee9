"""The retention seam at trial level: the completeness caveat in action.

Two properties pin the subsystem's contract:

* with an effectively unbounded budget every policy reproduces the
  keep-all trajectory bit-identically, on the dict store and on the
  linear oracle — a policy that never has to evict must be invisible;
* with a finite budget the search may take a different path, but every
  reported solution still verifies against the original constraints,
  and eviction decisions are identical on the dict store and the linear
  oracle (the same touch stream drives them), so both follow the same
  trajectory.
"""

import pytest

from repro.algorithms.registry import awc
from repro.experiments.paper import instances_for
from repro.experiments.runner import run_trial
from repro.problems.coloring import random_coloring_instance

from ..conftest import with_linear_store

UNBOUNDED = 10_000_000


@pytest.fixture(scope="module")
def coloring():
    return random_coloring_instance(12, seed=5).to_discsp()


@pytest.fixture(scope="module")
def sat():
    return instances_for("d3s", 10, 1, seed=5)[0]


def trial_fields(result):
    return (
        result.solved,
        result.cycles,
        result.maxcck,
        result.total_checks,
        result.messages_sent,
        result.assignment,
    )


def trajectory(result):
    """The fields the search determines, independent of check counting."""
    return (
        result.solved,
        result.cycles,
        result.messages_sent,
        result.assignment,
    )


def awc_on(store):
    spec = awc("Rslv")
    return with_linear_store(spec) if store == "linear" else spec


class TestUnboundedBudgetIsInvisible:
    @pytest.mark.parametrize(
        "spec",
        [
            "keep-all",
            f"lru:{UNBOUNDED}",
            f"decay:{UNBOUNDED}",
            "subsume",
        ],
    )
    @pytest.mark.parametrize("store", ["dict", "linear"])
    def test_matches_retention_free_baseline(self, coloring, spec, store):
        baseline = run_trial(coloring, awc_on(store), seed=1, retention=None)
        candidate = run_trial(coloring, awc_on(store), seed=1, retention=spec)
        if spec == "subsume":
            # Subsumption prunes logically redundant supersets, which can
            # legitimately change check counts — but never the solution.
            assert candidate.solved == baseline.solved
            assert candidate.assignment is not None
        else:
            assert trial_fields(candidate) == trial_fields(baseline)

    def test_unbounded_parity_on_sat(self, sat):
        baseline = run_trial(sat, awc("Rslv"), seed=2, retention=None)
        for spec in ("keep-all", f"lru:{UNBOUNDED}", f"decay:{UNBOUNDED}"):
            candidate = run_trial(sat, awc("Rslv"), seed=2, retention=spec)
            assert trial_fields(candidate) == trial_fields(baseline)


class TestFiniteBudget:
    @pytest.mark.parametrize("spec", ["lru:8", "decay:8:16", "subsume"])
    def test_solutions_verify(self, coloring, spec):
        result = run_trial(
            coloring, awc("Rslv"), seed=3, retention=spec, max_cycles=3_000
        )
        assert result.solved
        assert coloring.is_solution(result.assignment)

    @pytest.mark.parametrize("spec", ["lru:8", "decay:8:16", "subsume"])
    def test_evictions_identical_across_backends(self, sat, spec):
        dict_result = run_trial(sat, awc_on("dict"), seed=4, retention=spec)
        linear_result = run_trial(
            sat, awc_on("linear"), seed=4, retention=spec
        )
        assert trajectory(linear_result) == trajectory(dict_result)
        assert linear_result.total_checks >= dict_result.total_checks

    def test_bounded_run_differs_from_keep_all_when_tight(self, sat):
        # A genuinely tight budget must actually change the search (if it
        # never did, the bound would be untested dead weight). Solved
        # state still verifies above; here we just see the path diverge.
        baseline = run_trial(sat, awc("Rslv"), seed=4, retention=None)
        bounded = run_trial(sat, awc("Rslv"), seed=4, retention="lru:2")
        assert trial_fields(bounded) != trial_fields(baseline)
