"""Discrete-event asynchronous runtime with pluggable transports.

The second execution backend next to the synchronous cycle simulator
(:mod:`repro.runtime.simulator`): a seeded discrete-event engine that
activates agents only when mail arrives, with the message medium behind a
small :class:`~repro.runtime.events.transport.Transport` protocol — a
deterministic in-process priority-queue transport (the default; with unit
latency it reproduces the synchronous simulator trial-for-trial) and the
verifier's schedule-controlled transport. See the module docstring of
:mod:`~repro.runtime.events.engine` for the execution and metrics
semantics, and ``EXPERIMENTS.md`` for how the logical-time measures relate
to the paper's ``cycle``/``maxcck``.
"""

from .controlled import ChoicePoint, ScheduledTransport
from .engine import EventDrivenSimulator
from .transport import (
    Delivery,
    InProcessTransport,
    InProcessTransportFactory,
    LatencyModel,
    Transport,
    TransportFactory,
    UniformLatency,
    UnitLatency,
)

__all__ = [
    "ChoicePoint",
    "Delivery",
    "EventDrivenSimulator",
    "ScheduledTransport",
    "InProcessTransport",
    "InProcessTransportFactory",
    "LatencyModel",
    "Transport",
    "TransportFactory",
    "UniformLatency",
    "UnitLatency",
]
