"""The paper-cell workloads, their correctness checks and timing arithmetic.

A workload is a fixed set of trials from one of the paper's table cells:
the cell's instances (built by ``instances_for`` from the workload seed)
times its initial-value sets, for each algorithm label, run sequentially
through ``run_trial`` with the seeds ``run_table_cell`` derives for them.

Every trial is capped at ``max_cycles``, the paper's own cut-off, set below
the cycle count at which most trials solve. Uncapped, one trial in a set
can run 50 times longer than another (d3c n=90 AWC+No solves in 50 to
over 10,000 cycles), so the set's wall time would measure which instances
a seed drew, not the code. Capped, every trial does close to the same
number of cycles, and a change to the code moves every seed alike.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import AlgorithmSpec, DisCSP, RunResult, algorithm_by_name, derive_seed
from repro.experiments import (
    coloring_instances,
    instances_for,
    onesat_instances,
    run_trial,
    sat_instances,
    trial_parameters,
)

import speed

#: The RunResult fields that pin a trial's trajectory.
FINGERPRINT_FIELDS = (
    "solved",
    "cycles",
    "maxcck",
    "total_checks",
    "messages_sent",
    "generated_nogoods",
    "redundant_generations",
)


@dataclass(frozen=True)
class Workload:
    """One table cell, trimmed to a fixed trial set."""

    name: str
    family: str
    n: int
    labels: Tuple[str, ...]
    instances: int
    inits: int
    max_cycles: int

    @property
    def trial_count(self) -> int:
        return len(self.labels) * self.instances * self.inits


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Table 3, d3s1 n=50: learned stores grow every cycle, Mcs spends
        # its time minimising, and set-up certifies unique solutions.
        Workload("learn", "d3s1", 50, ("AWC+Rslv", "AWC+Mcs"), 12, 2, 50),
        # Table 1, d3c n=90, AWC+No: small static stores consulted with
        # priority keys every cycle; learning never produces a nogood.
        Workload("nolearn", "d3c", 90, ("AWC+No",), 12, 2, 120),
        # Table 8, d3c n=90, DB on the nolearn instances: message-bound,
        # plain violated() scans, no priorities and no learning.
        Workload("breakout", "d3c", 90, ("DB",), 12, 2, 120),
    )
}


@dataclass(frozen=True)
class Trial:
    """One executed trial: the instance it ran on and its measurements.

    ``call_s`` is the wall time of the ``run_trial`` call, agent build
    included, and ``scale`` the host-speed scale of that interval (1.0
    when the set ran without probes; see :mod:`speed`).
    """

    label: str
    instance: int
    result: RunResult
    call_s: float = 0.0
    scale: float = 1.0

    def fingerprint(self) -> List[object]:
        return [getattr(self.result, name) for name in FINGERPRINT_FIELDS]


def build_instances(
    workload: Workload, seed: int, cache_dir: Path
) -> Tuple[DisCSP, ...]:
    """The workload's instances, built from scratch into *cache_dir*.

    *cache_dir* must not exist yet, so nothing certified by an earlier
    build is reused; the in-process memo of earlier builds is cleared too.
    """
    cache_dir.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    for builder in (coloring_instances, sat_instances, onesat_instances):
        builder.cache_clear()
    return instances_for(workload.family, workload.n, workload.instances, seed)


def run_trials(
    workload: Workload,
    seed: int,
    spec_for: Callable[[str], AlgorithmSpec] = algorithm_by_name,
    probe: Optional[Callable[[], float]] = None,
) -> Tuple[float, List[Trial]]:
    """Run the workload's trial set once: its wall time and its trials.

    The trials and their seeds are those of ``run_table_cell`` with
    ``workers=1``. The instances come from ``instances_for``'s memo, so
    build them first (:func:`build_instances`) to keep instance generation
    out of the time. Given *probe*, it runs before every trial and after
    the last, outside the wall time, and each trial's ``scale`` is set
    from the two probes around it.
    """
    instances = instances_for(
        workload.family, workload.n, workload.instances, seed
    )
    trials: List[Trial] = []
    probes: List[float] = []
    for label in workload.labels:
        spec = spec_for(label)
        master = derive_seed(seed, workload.family, workload.n, spec.name)
        for index, _init, trial_seed in trial_parameters(
            workload.instances, workload.inits, master
        ):
            if probe is not None:
                probes.append(probe())
            started = time.perf_counter()
            result = run_trial(
                instances[index],
                spec,
                trial_seed,
                max_cycles=workload.max_cycles,
            )
            trials.append(
                Trial(label, index, result, time.perf_counter() - started)
            )
    if probe is not None:
        probes.append(probe())
        trials = [
            replace(trial, scale=scale)
            for trial, scale in zip(trials, speed.scales(probes))
        ]
    return sum(trial.call_s for trial in trials), trials


def count_failures(
    trials: Sequence[Trial],
    instances: Sequence[DisCSP],
    expected: Optional[Sequence[Sequence[object]]] = None,
) -> int:
    """How many trials fail a correctness check.

    A solved trial fails when its assignment does not solve its instance.
    Given *expected* fingerprints, a trial also fails when its fingerprint
    differs, and every expected trial that did not run counts as failed.
    """
    failed = 0
    for index, trial in enumerate(trials):
        result = trial.result
        correct = not result.solved or instances[trial.instance].is_solution(
            result.assignment
        )
        if expected is not None:
            correct = correct and (
                index < len(expected)
                and trial.fingerprint() == list(expected[index])
            )
        failed += not correct
    if expected is not None:
        failed += max(0, len(expected) - len(trials))
    return failed


class Checker:
    """Counts trials that fail a check, over every run of one trial set.

    Without pinned fingerprints the first run's become the reference, so
    every later run, traced ones included, must repeat its trajectories.
    """

    def __init__(
        self,
        instances: Sequence[DisCSP],
        expected: Optional[Sequence[Sequence[object]]] = None,
    ) -> None:
        self.instances = instances
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, trials: Sequence[Trial]) -> None:
        self.failed += count_failures(trials, self.instances, self.expected)
        self.attempted += len(trials)
        if self.expected is None:
            self.expected = [trial.fingerprint() for trial in trials]


def timing_metrics(
    run_times: Sequence[float],
    trial_times: Sequence[Sequence[float]],
    checks: int,
) -> Dict[str, float]:
    """End-to-end timings of one trial set run several times.

    ``run_times`` holds each repetition's wall time and ``trial_times`` one
    row per repetition with every trial's simulation time. A trial's time
    is its median over repetitions; ``checks`` is one repetition's total.
    """
    run_s = statistics.median(run_times)
    per_trial = [statistics.median(times) for times in zip(*trial_times)]
    return {
        "run_s": run_s,
        "checks_per_s": checks / run_s,
        "trial_p50_s": statistics.median(per_trial),
        "trial_max_s": max(per_trial),
    }
