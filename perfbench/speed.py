"""Host-speed probe: a fixed piece of Python timed between trials.

On a shared host the speed of a core drifts as other tenants load the
machine: this probe takes from 11 to 21 ms within a few minutes, and a whole trial set 30% longer in one minute than in the next.
Medians over a run cannot remove a slow phase that lasts the whole run, so
the benchmark times this probe before every trial and after the last one,
and scales each trial's time by ``REFERENCE_S`` over the median of the
``WINDOW`` probes either side of it. One probe reads up to 20% off its
neighbours; the median of a few seconds of probes follows the drift
without that noise. A scaled time is the time the trial would take on a
host where the probe takes ``REFERENCE_S``; the probe is the benchmark's
own code, so a change to ``repro`` moves the trial times and not the probe.

The probe does what the simulator does in small: it reads neighbours'
values into tuples, counts them in a dict and picks a least-conflicting
value for a node of a fixed graph.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence, Tuple

#: The probe's time on the reference host: about its unloaded time on the
#: 2-core 2.1 GHz Xeon host the benchmark was written on.
REFERENCE_S = 0.02
#: How many probes either side of an interval set its scale.
WINDOW = 3

_NODES = 120
_STEPS = 6000
_NEIGHBOURS = tuple(
    tuple((node * step + 1) % _NODES for step in (3, 7, 11, 19))
    for node in range(_NODES)
)


class _Node:
    __slots__ = ("value", "neighbours")

    def __init__(self, value: int, neighbours: Tuple[int, ...]) -> None:
        self.value = value
        self.neighbours = neighbours


def _walk() -> int:
    """A fixed min-conflicts walk; returns a checksum of what it did."""
    nodes = [_Node(index % 3, _NEIGHBOURS[index]) for index in range(_NODES)]
    seen: Dict[Tuple[int, ...], int] = {}
    conflicts = 0
    for step in range(_STEPS):
        node = nodes[(step * 37) % _NODES]
        view = tuple(nodes[other].value for other in node.neighbours)
        seen[view] = seen.get(view, 0) + 1
        conflicts += view.count(node.value)
        node.value = min(range(3), key=lambda value: (view.count(value), value))
    return conflicts + len(seen)


def probe() -> float:
    """Seconds the probe takes now."""
    started = time.perf_counter()
    _walk()
    return time.perf_counter() - started


def scales(probes: Sequence[float]) -> List[float]:
    """The scale of each interval between consecutive probes."""
    return [
        REFERENCE_S
        / statistics.median(probes[max(0, after - WINDOW) : after + WINDOW])
        for after in range(1, len(probes))
    ]


def median_ms(probes: Sequence[float]) -> float:
    """The probes' median, in milliseconds, for the run's summary line."""
    return statistics.median(probes) * 1000
