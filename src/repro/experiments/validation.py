"""Empirical validation of Figure 2's linear efficiency model.

Figure 2 *models* a delayed network: it takes (cycle, maxcck) measured on
the synchronous simulator and assumes total time grows linearly in the
per-message delay. This module checks that assumption against reality: it
runs the same algorithm on :class:`~repro.runtime.network.FixedDelayNetwork`
instances with increasing delay and compares the *measured* cycle counts to
the model's prediction ``cycle_sync × delay``.

The match is not expected to be exact — under delay, agents act on staler
views and the search trajectory changes — but if the model is a fair
abstraction the ratio ``measured / predicted`` should hover near 1. The
report of this module is the honest footnote to the paper's "rough
estimation" wording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..algorithms.registry import AlgorithmSpec, awc
from ..core.exceptions import ModelError
from ..runtime.random_source import Seed, derive_seed
from .paper import Scale, instances_for, scale_from_environment
from .runner import network_model, run_cell


@dataclass(frozen=True)
class DelayPoint:
    """Measured vs predicted cycles at one fixed delay."""

    delay: int
    measured_cycles: float
    predicted_cycles: float

    @property
    def ratio(self) -> float:
        """measured / predicted; 1.0 means the linear model is exact."""
        if self.predicted_cycles == 0:
            raise ModelError("prediction is zero; nothing to compare")
        return self.measured_cycles / self.predicted_cycles


@dataclass(frozen=True)
class ValidationResult:
    """The full sweep for one algorithm."""

    algorithm: str
    baseline_cycles: float
    points: Tuple[DelayPoint, ...]

    @property
    def worst_ratio_error(self) -> float:
        """The largest |ratio − 1| across delays."""
        return max(abs(point.ratio - 1.0) for point in self.points)

    def format_text(self) -> str:
        lines = [
            f"linear-model validation: {self.algorithm} "
            f"(sync cycles {self.baseline_cycles:.1f})",
            f"{'delay':>6s} {'measured':>10s} {'predicted':>10s} "
            f"{'ratio':>7s}",
        ]
        for point in self.points:
            lines.append(
                f"{point.delay:6d} {point.measured_cycles:10.1f} "
                f"{point.predicted_cycles:10.1f} {point.ratio:7.2f}"
            )
        return "\n".join(lines)


def validate_delay_model(
    algorithm: Optional[AlgorithmSpec] = None,
    delays: Sequence[int] = (2, 3, 4),
    scale: Optional[Scale] = None,
    seed: Seed = 0,
    family: str = "d3c",
) -> ValidationResult:
    """Measure cycles under fixed delays and compare to the linear model."""
    if scale is None:
        scale = scale_from_environment()
    if algorithm is None:
        algorithm = awc("Rslv")
    if any(delay < 2 for delay in delays):
        raise ModelError("validation delays must be at least 2")
    n, num_instances, inits = scale.cells_for(family)[0]
    instances = instances_for(family, n, num_instances, seed)

    def cell_at(delay: int):
        return run_cell(
            instances,
            algorithm,
            inits_per_instance=inits,
            master_seed=derive_seed(seed, "delay-validation", delay),
            n=n,
            max_cycles=scale.max_cycles * max(delays),
            network_factory=network_model(f"fixed:{delay}"),
        )

    baseline = cell_at(1)
    if baseline.percent_solved < 100.0:
        raise ModelError(
            "baseline cell did not fully solve; pick an easier cell for "
            "model validation"
        )
    points: List[DelayPoint] = []
    for delay in delays:
        cell = cell_at(delay)
        points.append(
            DelayPoint(
                delay=delay,
                measured_cycles=cell.mean_cycle,
                predicted_cycles=baseline.mean_cycle * delay,
            )
        )
    return ValidationResult(
        algorithm=algorithm.name,
        baseline_cycles=baseline.mean_cycle,
        points=tuple(points),
    )
