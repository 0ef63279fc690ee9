"""Shared plumbing for the benchmark suite.

Every benchmark regenerates one of the paper's table cells (or the Figure 2
series) once, times it, and attaches the paper's measures — mean ``cycle``,
mean ``maxcck``, percent solved — as ``extra_info`` so they appear in
``pytest benchmarks/ --benchmark-only`` output (use
``--benchmark-columns=...`` or ``--benchmark-json`` to inspect them).

Scale selection: the ``REPRO_SCALE`` environment variable (``quick`` /
``default`` / ``paper``). ``REPRO_FULL=1`` is a shorthand for paper scale.
The paper scale runs 100 trials per cell at n up to 200 — expect hours in
pure Python, or set ``REPRO_JOBS`` to run each cell's trials across a
process pool (``run_cell`` reads it; results are identical and only the
wall-clock changes). Under ``REPRO_JOBS`` every spec a benchmark runs,
custom ones included, must pickle.
"""

from __future__ import annotations

import os
from typing import List, Tuple

from repro.algorithms.registry import AlgorithmSpec, algorithm_by_name
from repro.experiments.paper import (
    TABLE_SPECS,
    instances_for,
    run_table_cell,
    scale_by_name,
)
from repro.experiments.runner import CellResult, run_cell

_DEFAULT = "paper" if os.environ.get("REPRO_FULL") else "default"
SCALE = scale_by_name(os.environ.get("REPRO_SCALE", _DEFAULT))
SEED = int(os.environ.get("REPRO_SEED", "0"))

#: (family, n, instances, inits, algorithm label)
CellParam = Tuple[str, int, int, int, str]


def table_cells(number: int) -> List[CellParam]:
    """The parameter grid of one paper table at the selected scale."""
    family, labels = TABLE_SPECS[number]
    return [
        (family, n, instances, inits, label)
        for (n, instances, inits) in SCALE.cells_for(family)
        for label in labels
    ]


def cell_id(param: CellParam) -> str:
    family, n, _instances, _inits, label = param
    return f"{family}-n{n}-{label}"


def bench_cell(
    benchmark,
    family: str,
    n: int,
    instances: int,
    inits: int,
    label: str,
) -> CellResult:
    """Run one table cell under the benchmark timer; attach the measures."""
    spec = algorithm_by_name(label)

    def once() -> CellResult:
        return run_table_cell(
            family,
            n,
            instances,
            inits,
            spec,
            SEED,
            SCALE.max_cycles,
        )

    cell = benchmark.pedantic(once, rounds=1, iterations=1)
    record_cell(benchmark, cell, family=family)
    return cell


def bench_custom_cell(
    benchmark,
    family: str,
    n: int,
    instances: int,
    inits: int,
    spec: AlgorithmSpec,
) -> CellResult:
    """Like :func:`bench_cell` but for specs outside the registry labels."""
    problems = instances_for(family, n, instances, SEED)

    def once() -> CellResult:
        return run_cell(
            problems,
            spec,
            inits_per_instance=inits,
            master_seed=SEED,
            n=n,
            max_cycles=SCALE.max_cycles,
        )

    cell = benchmark.pedantic(once, rounds=1, iterations=1)
    record_cell(benchmark, cell, family=family)
    return cell


def record_cell(benchmark, cell: CellResult, family: str) -> None:
    benchmark.extra_info.update(
        scale=SCALE.name,
        family=family,
        n=cell.n,
        algorithm=cell.label,
        trials=cell.num_trials,
        cycle=round(cell.mean_cycle, 1),
        maxcck=round(cell.mean_maxcck, 1),
        percent=round(cell.percent_solved, 1),
    )
