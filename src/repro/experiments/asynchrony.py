"""Extension experiment: the algorithms on other kinds of networks.

Section 5 of the paper: "our distributed constraint satisfaction algorithms
are designed for a fully asynchronous distributed system, and thereby can
work on any type of distributed systems. We should analyze the performance
of our algorithm on other types of distributed systems."

This module does that analysis. The same agents run unchanged on:

* ``sync`` — the paper's synchronous network (one cycle per message);
* ``fixed(d)`` — every message takes d cycles (Figure 2's delay, realized
  rather than modeled);
* ``random(d)`` — per-message uniform delay in 1..d with FIFO channels;
* ``random(d)/reorder`` — as above without FIFO: messages can overtake.

Measured cycles grow with delay; the ratio against the synchronous run
shows how close the growth is to the linear model Figure 2 assumes, and
the reorder rows demonstrate the algorithms' tolerance to the harshest
asynchrony (correctness is asserted, not assumed: every solved trial's
assignment is verified).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..algorithms.registry import algorithm_by_name
from ..core.exceptions import ModelError
from ..runtime.random_source import Seed, derive_seed
from .paper import Scale, instances_for, scale_from_environment
from .runner import CellResult, network_model, run_cell
from .tables import Table, TableRow


#: The default grid of network models for the extension table.
DEFAULT_NETWORKS = (
    "sync",
    "fixed:2",
    "fixed:4",
    "random:4",
    "random:4:reorder",
    "lossy:30",
)


def run_asynchrony_table(
    scale: Optional[Scale] = None,
    seed: Seed = 0,
    algorithms: Sequence[str] = ("AWC+Rslv", "DB"),
    networks: Sequence[str] = DEFAULT_NETWORKS,
) -> Table:
    """Cycles under different network models, on the coloring workload.

    Uses the smallest coloring cell of *scale* so the sweep stays cheap:
    the point is the delay response, not the problem size.
    """
    if scale is None:
        scale = scale_from_environment()
    n, num_instances, inits = scale.coloring[0]
    instances = instances_for("d3c", n, num_instances, seed)
    table = Table(
        title=(
            f"Extension: network models (distributed 3-coloring n={n}, "
            f"scale={scale.name})"
        )
    )
    for algorithm_name in algorithms:
        spec = algorithm_by_name(algorithm_name)
        for network_spec in networks:
            model = network_model(network_spec)
            cell = run_cell(
                instances,
                spec,
                inits_per_instance=inits,
                master_seed=derive_seed(
                    seed, "asynchrony", algorithm_name, model.name
                ),
                n=n,
                max_cycles=scale.max_cycles,
                network_factory=model,
            )
            _verify_solutions(cell, instances)
            row = TableRow(
                n=n,
                label=f"{spec.name} @ {model.name}",
                cycle=cell.mean_cycle,
                maxcck=cell.mean_maxcck,
                percent=cell.percent_solved,
            )
            table.add(row)
    return table


def _verify_solutions(cell: CellResult, instances) -> None:
    """Assert every solved trial's assignment actually solves its problem.

    Trials are grouped per instance in run_cell's order, so the mapping
    back is positional.
    """
    inits = len(cell.trials) // len(instances) if instances else 0
    for index, trial in enumerate(cell.trials):
        if not trial.solved:
            continue
        problem = instances[index // inits]
        if not problem.is_solution(trial.assignment):
            raise ModelError(
                "asynchrony run produced an invalid 'solution' — "
                "network model broke the algorithm"
            )


def delay_response(
    table: Table, algorithm_label: str
) -> List[Tuple[str, float]]:
    """The (network, mean cycle) series of one algorithm from *table*."""
    series = []
    for row in table.rows:
        label, separator, network = row.label.partition(" @ ")
        if separator and label == algorithm_label:
            series.append((network, row.cycle))
    return series
