"""Pluggable transports for the discrete-event runtime.

The engine (:mod:`repro.runtime.events.engine`) never schedules deliveries
itself; it hands every outgoing message to a :class:`Transport` and asks the
transport which logical timestamp comes next. That split is what makes the
backend pluggable:

* :class:`InProcessTransport` — the default: a seeded priority queue of
  ``(arrival time, send sequence)`` keys. Given a seed it is bit-
  reproducible, so event-driven trials are part of the repo's determinism
  contract exactly like the synchronous simulator's networks.
* :class:`~repro.runtime.events.controlled.ScheduledTransport` — delivers
  one channel head per epoch in an explicitly chosen order, for the
  interleaving verifier.

Latency is a separate, equally pluggable axis (:class:`LatencyModel`):
:class:`UnitLatency` gives the paper's one-unit-per-message medium (parity
mode), :class:`UniformLatency` draws a seeded per-message delay in
``1..max_delay`` — the event-driven analogue of
:class:`~repro.runtime.network.RandomDelayNetwork`. The FIFO clamp lives in
the transport (it needs per-channel state), not in the latency model.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
)

from ...core.exceptions import SimulationError
from ...core.problem import AgentId
from ..messages import Message
from ..random_source import Seed, derive_rng

if TYPE_CHECKING:
    import random


@dataclass(frozen=True)
class Delivery:
    """One message arriving at its recipient at a logical timestamp."""

    time: int
    sequence: int
    sender: AgentId
    recipient: AgentId
    message: Message


class LatencyModel(Protocol):
    """How long a message takes, in logical time units (at least 1)."""

    def delay(self, sender: AgentId, recipient: AgentId) -> int:
        """The latency of one message from *sender* to *recipient*."""
        ...


class UnitLatency:
    """Every message takes exactly one logical time unit.

    This is the paper's synchronous medium re-expressed as a latency model;
    it is what parity mode runs on.
    """

    def delay(self, sender: AgentId, recipient: AgentId) -> int:
        del sender, recipient
        return 1


class UniformLatency:
    """Seeded per-message uniform latency in ``1..max_delay``.

    Draws come from *rng* when given; otherwise from a stream derived from
    *seed* — pass the trial seed so the latency schedule is part of the
    trial's reproducible state (identical sequentially and under
    ``--jobs N``), never from shared global RNG state.
    """

    def __init__(
        self,
        max_delay: int = 3,
        seed: Seed = 0,
        rng: Optional["random.Random"] = None,
    ) -> None:
        if max_delay < 1:
            raise SimulationError(
                f"max_delay must be at least 1, got {max_delay}"
            )
        self.max_delay = max_delay
        self._rng = (
            rng if rng is not None else derive_rng(seed, "events", "latency")
        )

    def delay(self, sender: AgentId, recipient: AgentId) -> int:
        del sender, recipient
        return self._rng.randint(1, self.max_delay)


class Transport(Protocol):
    """What the event engine requires of a message medium.

    The engine calls :meth:`send` while executing an epoch at logical time
    ``now``; the transport decides the arrival timestamp. :meth:`next_time`
    and :meth:`pop_due` drive the event loop; deliveries within a timestamp
    are returned in deterministic (send sequence) order so runs are
    reproducible for a fixed seed.
    """

    sent_count: int

    def send(
        self, sender: AgentId, recipient: AgentId, message: Message, now: int
    ) -> None:
        """Schedule *message*, sent at logical time *now*."""
        ...

    def next_time(self) -> Optional[int]:
        """The earliest pending arrival timestamp, or None when idle."""
        ...

    def pop_due(self, now: int) -> List[Delivery]:
        """Remove and return every delivery arriving exactly at *now*."""
        ...

    def pending(self) -> int:
        """Number of messages in flight."""
        ...


class InProcessTransport:
    """The default transport: a deterministic in-process priority queue.

    Arrival timestamps come from the latency model; ties are broken by send
    sequence, so the delivery order is a pure function of the send order
    and the (seeded) latency draws — bit-reproducible, like the cycle
    simulator's networks. With ``fifo=True`` arrivals on the same
    ``(sender, recipient)`` channel are clamped to send order; with
    ``fifo=False`` messages can overtake, the harshest asynchrony the
    algorithms must tolerate.
    """

    def __init__(
        self, latency: Optional[LatencyModel] = None, fifo: bool = True
    ) -> None:
        self.latency: LatencyModel = (
            latency if latency is not None else UnitLatency()
        )
        self.fifo = fifo
        self.sent_count = 0
        self.delivered_count = 0
        self._sequence = 0
        self._heap: List[Tuple[int, int, AgentId, AgentId, Message]] = []
        self._last_arrival: Dict[Tuple[AgentId, AgentId], int] = {}

    def send(
        self, sender: AgentId, recipient: AgentId, message: Message, now: int
    ) -> None:
        if recipient == sender:
            raise SimulationError(
                f"agent {sender} attempted to send a message to itself"
            )
        delay = self.latency.delay(sender, recipient)
        if delay < 1:
            raise SimulationError(
                f"latency model returned a non-positive delay: {delay}"
            )
        arrival = now + delay
        if self.fifo:
            channel = (sender, recipient)
            arrival = max(arrival, self._last_arrival.get(channel, 0))
            self._last_arrival[channel] = arrival
        heapq.heappush(
            self._heap, (arrival, self._sequence, sender, recipient, message)
        )
        self._sequence += 1
        self.sent_count += 1

    def next_time(self) -> Optional[int]:
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop_due(self, now: int) -> List[Delivery]:
        due: List[Delivery] = []
        while self._heap and self._heap[0][0] <= now:
            arrival, sequence, sender, recipient, message = heapq.heappop(
                self._heap
            )
            due.append(Delivery(arrival, sequence, sender, recipient, message))
            self.delivered_count += 1
        return due

    def pending(self) -> int:
        return len(self._heap)


# -- picklable per-trial factories ---------------------------------------------


@dataclass(frozen=True)
class InProcessTransportFactory:
    """A per-trial :class:`InProcessTransport` factory.

    ``max_delay=1`` selects :class:`UnitLatency` (parity mode — the
    default); anything larger selects :class:`UniformLatency` seeded from
    the trial seed. A frozen top-level dataclass (not a closure) so it
    pickles into ``--jobs N`` worker processes, mirroring
    :class:`~repro.experiments.runner.RandomDelayNetworkFactory`.
    """

    max_delay: int = 1
    fifo: bool = True

    def __call__(self, seed: Seed) -> InProcessTransport:
        latency: LatencyModel = (
            UnitLatency()
            if self.max_delay == 1
            else UniformLatency(max_delay=self.max_delay, seed=seed)
        )
        return InProcessTransport(latency=latency, fifo=self.fifo)


#: Builds a fresh transport per trial (latency models carry RNG state).
TransportFactory = Callable[[Seed], Transport]
