"""The parallel trial engine must be invisible in the results.

``run_cell(workers=4)`` and ``run_cell(workers=1)`` must agree on every
simulated measure for every trial — only wall-clock fields may differ.
These tests pin that contract for two problem families and two master
seeds, plus the worker-count resolution and the pickling error a cell
with an unpicklable part raises under a pool.
"""

import pickle
import warnings

import pytest

from repro.algorithms.registry import algorithm_by_name
from repro.core.exceptions import ModelError
from repro.experiments.asynchrony import run_asynchrony_table
from repro.experiments.paper import QUICK_SCALE, instances_for
from repro.experiments.runner import (
    JOBS_ENV_VAR,
    network_model,
    resolve_workers,
    run_cell,
    trial_parameters,
)
from repro.experiments.validation import validate_delay_model
from repro.runtime.network import SynchronousNetwork

#: Every RunResult field that must match bit-for-bit across execution
#: modes. Timing fields (wall_time, sim_time) are machine noise and
#: excluded; everything the paper measures is here.
COMPARED_FIELDS = (
    "solved",
    "unsolvable",
    "capped",
    "quiescent",
    "cycles",
    "maxcck",
    "total_checks",
    "messages_sent",
    "generated_nogoods",
    "redundant_generations",
    "assignment",
    "max_history",
)


def trial_fingerprints(cell):
    return [
        tuple(getattr(trial, name) for name in COMPARED_FIELDS)
        for trial in cell.trials
    ]


QUICK_CELLS = {
    "d3c": (15, 2, 2),
    "d3s": (12, 2, 2),
}


@pytest.mark.parametrize("family", sorted(QUICK_CELLS))
@pytest.mark.parametrize("master_seed", [0, 1234])
def test_parallel_is_bit_identical_to_sequential(family, master_seed):
    n, num_instances, inits = QUICK_CELLS[family]
    instances = instances_for(family, n, num_instances, 0)
    spec = algorithm_by_name("AWC+Rslv")
    sequential = run_cell(
        instances,
        spec,
        inits_per_instance=inits,
        master_seed=master_seed,
        n=n,
        max_cycles=3_000,
        workers=1,
    )
    parallel = run_cell(
        instances,
        spec,
        inits_per_instance=inits,
        master_seed=master_seed,
        n=n,
        max_cycles=3_000,
        workers=4,
    )
    assert sequential.num_trials == parallel.num_trials == num_instances * inits
    assert trial_fingerprints(sequential) == trial_fingerprints(parallel)
    assert sequential.mean_cycle == parallel.mean_cycle
    assert sequential.mean_maxcck == parallel.mean_maxcck
    assert sequential.percent_solved == parallel.percent_solved
    assert sequential.label == parallel.label
    assert sequential.n == parallel.n


@pytest.mark.parametrize(
    "factory",
    [
        network_model("random:2"),
        network_model("lossy:20"),
    ],
    ids=["delay", "lossy"],
)
def test_seeded_networks_are_bit_identical_under_workers(factory):
    """The asynchronous networks draw from seed-derived RNGs, so even their
    trials must not care whether they ran sequentially or in a pool."""
    instances = instances_for("d3c", 15, 2, 0)
    spec = algorithm_by_name("AWC+Rslv")
    kwargs = dict(
        inits_per_instance=2,
        master_seed=0,
        n=15,
        max_cycles=2_000,
        network_factory=factory,
    )
    sequential = run_cell(instances, spec, workers=1, **kwargs)
    parallel = run_cell(instances, spec, workers=2, **kwargs)
    assert trial_fingerprints(sequential) == trial_fingerprints(parallel)


def test_unpicklable_network_factory_raises_under_workers():
    """A pool cannot ship a lambda: the cell raises the pickling error
    rather than running some other way, and runs without a pool."""
    instances = instances_for("d3c", 15, 1, 0)
    spec = algorithm_by_name("AWC+Rslv")
    factory = lambda seed: SynchronousNetwork()  # noqa: E731 — deliberately unpicklable
    kwargs = dict(
        inits_per_instance=2,
        master_seed=0,
        n=15,
        max_cycles=3_000,
        network_factory=factory,
    )
    with pytest.raises((pickle.PicklingError, AttributeError)):
        run_cell(instances, spec, workers=2, **kwargs)
    cell = run_cell(instances, spec, workers=1, **kwargs)
    reference = run_cell(
        instances,
        spec,
        inits_per_instance=2,
        master_seed=0,
        n=15,
        max_cycles=3_000,
        workers=1,
    )
    assert trial_fingerprints(cell) == trial_fingerprints(reference)


class TestNetworkExperimentsUnderJobs:
    """The network experiments run every cell in a pool, warning-free,
    and the results do not move."""

    @staticmethod
    def under_two_jobs(monkeypatch, experiment):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return experiment()

    def test_asynchrony_table(self, monkeypatch):
        def experiment():
            return run_asynchrony_table(QUICK_SCALE, seed=0)

        parallel = self.under_two_jobs(monkeypatch, experiment)
        monkeypatch.delenv(JOBS_ENV_VAR)
        assert parallel.rows == experiment().rows

    def test_delay_model_validation(self, monkeypatch):
        def experiment():
            return validate_delay_model(scale=QUICK_SCALE, seed=0)

        parallel = self.under_two_jobs(monkeypatch, experiment)
        monkeypatch.delenv(JOBS_ENV_VAR)
        assert parallel == experiment()


class TestResolveWorkers:
    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_workers(None) == 1

    def test_environment_variable_supplies_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_workers(None) == 3

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_workers(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            resolve_workers(-1)

    def test_garbage_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ModelError):
            resolve_workers(None)


class TestTrialParameters:
    def test_canonical_order_and_distinct_seeds(self):
        params = list(trial_parameters(3, 2, master_seed=0))
        assert [(i, j) for i, j, _seed in params] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
        ]
        seeds = [seed for _i, _j, seed in params]
        assert len(set(seeds)) == len(seeds)

    def test_seeds_depend_on_master_seed(self):
        first = [seed for *_ij, seed in trial_parameters(2, 2, 0)]
        second = [seed for *_ij, seed in trial_parameters(2, 2, 1)]
        assert first != second
