"""Parallel trial execution: one cell's trials across a process pool.

A table cell aggregates up to 100 independent trials (`EXPERIMENTS.md`);
nothing couples them — each has its own derived seed, agents, network and
metrics — so they parallelize perfectly. This module farms the trials of
:func:`~repro.experiments.runner.run_cell` out to a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the results
**bit-identical** to the sequential path:

* trial seeds come from the same
  :func:`~repro.experiments.runner.trial_parameters` iterator the
  sequential runner uses, so trial *i* sees exactly the same RNG streams in
  both modes;
* results are placed into the cell by trial index, not completion order,
  so ``CellResult.trials`` is deterministically ordered;
* only wall-clock fields (``wall_time``/``sim_time``) differ between modes
  — every simulated measure (``cycles``, ``maxcck``, checks, messages,
  assignments) is equal, and the determinism tests assert it.

Worker-count selection: an explicit ``workers`` argument wins, otherwise
the ``REPRO_JOBS`` environment variable, otherwise 1 (sequential —
today's behavior). ``workers=0`` means "all cores". The ``repro`` CLI
exposes this as ``--jobs``.

Not everything can cross a process boundary: algorithm specs built from
closures are reconstructed in the workers from their registry label, and a
cell whose algorithm or network factory cannot be shipped falls back to
the sequential runner with a :class:`RuntimeWarning` rather than failing.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple, Union

from ..algorithms.registry import AlgorithmSpec, algorithm_by_name
from ..core.exceptions import ModelError
from ..core.problem import DisCSP
from ..runtime.random_source import Seed
from ..runtime.simulator import DEFAULT_MAX_CYCLES, RunResult
from . import runner as _runner
from .runner import (
    CellResult,
    NetworkFactory,
    network_model,
    run_trial,
    trial_parameters,
)

#: How an algorithm travels to a worker: by registry label or by pickle.
_AlgorithmRef = Tuple[str, Union[str, AlgorithmSpec]]

#: Environment variable naming the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, else ``REPRO_JOBS``, else 1.

    ``0`` (from either source) means "use every core". Negative counts are
    rejected.
    """
    if workers is None:
        raw = os.environ.get(JOBS_ENV_VAR)
        if raw is None:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ModelError(
                f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if workers < 0:
        raise ModelError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _algorithm_reference(algorithm: AlgorithmSpec) -> Optional[_AlgorithmRef]:
    """How to rebuild *algorithm* inside a worker, or None if we cannot.

    Registry-buildable labels are shipped by name (the builders are
    closures, which do not pickle); anything else is shipped by pickle when
    possible.
    """
    try:
        rebuilt = algorithm_by_name(algorithm.name)
        if rebuilt.name == algorithm.name:
            return ("name", algorithm.name)
    except ModelError:
        pass
    try:
        pickle.dumps(algorithm)
        return ("pickle", algorithm)
    except Exception:
        return None


def _is_picklable(value: object) -> bool:
    try:
        pickle.dumps(value)
        return True
    except Exception:
        return False


# -- worker-side state ---------------------------------------------------------

#: Set once per worker process by :func:`_init_worker`.
_WORKER: dict = {}


def _init_worker(
    instances: Tuple[DisCSP, ...],
    algorithm_ref: _AlgorithmRef,
    max_cycles: int,
    network_factory: NetworkFactory,
) -> None:
    kind, payload = algorithm_ref
    algorithm = (
        algorithm_by_name(payload) if kind == "name" else payload
    )
    _WORKER["instances"] = instances
    _WORKER["algorithm"] = algorithm
    _WORKER["max_cycles"] = max_cycles
    _WORKER["network_factory"] = network_factory


def _run_trial_task(
    trial_index: int, instance_index: int, trial_seed: Seed
) -> Tuple[int, RunResult]:
    result = run_trial(
        _WORKER["instances"][instance_index],
        _WORKER["algorithm"],
        trial_seed,
        max_cycles=_WORKER["max_cycles"],
        network_factory=_WORKER["network_factory"],
    )
    return trial_index, result


# -- the parallel cell runner --------------------------------------------------


def run_cell_parallel(
    instances: Sequence[DisCSP],
    algorithm: AlgorithmSpec,
    inits_per_instance: int,
    master_seed: Seed,
    n: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    network_factory: NetworkFactory = network_model("sync"),
    workers: Optional[int] = None,
) -> CellResult:
    """One cell, trials distributed over *workers* processes.

    Drop-in equivalent of :func:`repro.experiments.runner.run_cell`:
    identical signature plus ``workers``, identical results apart from
    timing fields. Falls back to the sequential runner (with a warning)
    when the algorithm or network factory cannot be shipped to workers,
    and silently when one worker would gain nothing.
    """
    effective = resolve_workers(workers)
    tasks = list(
        trial_parameters(len(instances), inits_per_instance, master_seed)
    )
    if effective <= 1 or len(tasks) <= 1:
        return _run_sequentially(
            instances,
            algorithm,
            inits_per_instance,
            master_seed,
            n,
            max_cycles,
            network_factory,
        )
    algorithm_ref = _algorithm_reference(algorithm)
    shippable = (
        algorithm_ref is not None
        and _is_picklable(network_factory)
        and _is_picklable(tuple(instances))
    )
    if not shippable:
        warnings.warn(
            f"cell {algorithm.name!r} cannot be shipped to worker "
            "processes (unpicklable algorithm, network factory, "
            "or instances); running sequentially",
            RuntimeWarning,
            stacklevel=2,
        )
        return _run_sequentially(
            instances,
            algorithm,
            inits_per_instance,
            master_seed,
            n,
            max_cycles,
            network_factory,
        )
    effective = min(effective, len(tasks))
    results: List[Optional[RunResult]] = [None] * len(tasks)
    with ProcessPoolExecutor(
        max_workers=effective,
        initializer=_init_worker,
        initargs=(
            tuple(instances),
            algorithm_ref,
            max_cycles,
            network_factory,
        ),
    ) as pool:
        futures = [
            pool.submit(
                _run_trial_task, trial_index, instance_index, trial_seed
            )
            for trial_index, (instance_index, _init_index, trial_seed) in (
                enumerate(tasks)
            )
        ]
        # Aggregation is by trial index, so completion order is irrelevant.
        for future in futures:
            trial_index, result = future.result()
            results[trial_index] = result
    cell = CellResult(label=algorithm.name, n=n)
    cell.trials.extend(results)  # type: ignore[arg-type]
    return cell


def _run_sequentially(
    instances: Sequence[DisCSP],
    algorithm: AlgorithmSpec,
    inits_per_instance: int,
    master_seed: Seed,
    n: int,
    max_cycles: int,
    network_factory: NetworkFactory,
) -> CellResult:
    return _runner.run_cell(
        instances,
        algorithm,
        inits_per_instance=inits_per_instance,
        master_seed=master_seed,
        n=n,
        max_cycles=max_cycles,
        network_factory=network_factory,
        workers=1,
    )
