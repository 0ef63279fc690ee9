"""Network models: how messages move between agents.

The paper's experiments run on "a simulator of a synchronous distributed
system": in each cycle all agents read incoming messages, compute, and send.
:class:`SynchronousNetwork` implements exactly that — a message sent during
cycle *t* is readable at cycle *t + 1*.

The paper notes (Section 5) that the algorithms are designed for fully
asynchronous systems and should be analysed on other network types too.
:class:`RandomDelayNetwork` provides that axis: each message independently
takes 1..max_delay cycles, optionally with per-channel FIFO ordering (without
FIFO, messages between the same pair of agents can overtake each other,
which is the harshest asynchrony the algorithms must tolerate).

:class:`ScheduledNetwork` is the interleaving verifier's medium: instead of
sampling delays it delivers one message per cycle, chosen by an explicit,
replayable schedule (see :mod:`repro.verify`).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    AbstractSet,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.exceptions import SimulationError
from ..core.problem import AgentId
from .messages import Message, Outgoing
from .random_source import Seed, derive_rng

#: A delivered message tagged with its sender-declared envelope recipient.
Inbox = Dict[AgentId, List[Message]]


class Network:
    """Base class: buffers sent messages and delivers them per cycle."""

    def __init__(self) -> None:
        self.sent_count = 0
        self.delivered_count = 0

    def send(self, sender: AgentId, recipient: AgentId, message: Message) -> None:
        """Queue *message* from *sender* to *recipient*."""
        raise NotImplementedError

    def send_all(
        self,
        sender: AgentId,
        outgoing: Iterable[Outgoing],
        agents: AbstractSet[AgentId],
    ) -> None:
        """Queue each of *sender*'s ``(recipient, message)`` pairs in order.

        A recipient outside *agents* raises :class:`SimulationError`.
        """
        for recipient, message in outgoing:
            if recipient not in agents:
                raise SimulationError(
                    f"agent {sender} sent a message to unknown agent "
                    f"{recipient}"
                )
            self.send(sender, recipient, message)

    def deliver(self) -> Inbox:
        """Advance one cycle and return the messages readable this cycle."""
        raise NotImplementedError

    def pending(self) -> int:
        """Number of messages queued but not yet delivered."""
        raise NotImplementedError

    def is_idle(self) -> bool:
        """True when no messages are in flight."""
        return self.pending() == 0


class SynchronousNetwork(Network):
    """The paper's model: every message takes exactly one cycle.

    A message goes into its recipient's list of next cycle's inbox when it
    is sent, so each recipient reads its mail in global send order and
    :meth:`deliver` hands the inbox over as it is.
    """

    def __init__(self) -> None:
        super().__init__()
        self._inbox: Inbox = {}

    def send(self, sender: AgentId, recipient: AgentId, message: Message) -> None:
        if recipient == sender:
            raise _self_send(sender)
        box = self._inbox.get(recipient)
        if box is None:
            self._inbox[recipient] = [message]
        else:
            box.append(message)
        self.sent_count += 1

    def deliver(self) -> Inbox:
        inbox = self._inbox
        self._inbox = {}
        self.delivered_count = self.sent_count
        return inbox

    def pending(self) -> int:
        return self.sent_count - self.delivered_count


class FixedDelayNetwork(Network):
    """Every message takes exactly *delay* cycles.

    This is the network the paper's Figure 2 model abstracts: a per-cycle
    communication delay of a known number of time-units. Running an
    algorithm on ``FixedDelayNetwork(d)`` and comparing the measured cycle
    count against ``d × cycles_at_delay_1`` empirically validates (or
    bounds) the linear model — see ``benchmarks/bench_extensions.py``.
    """

    def __init__(self, delay: int = 1) -> None:
        super().__init__()
        if delay < 1:
            raise SimulationError(f"delay must be at least 1, got {delay}")
        self.delay = delay
        self._now = 0
        # (arrival cycle, recipient, message). One constant delay keeps
        # arrivals in send order, so the due messages are a prefix.
        self._queue: Deque[Tuple[int, AgentId, Message]] = deque()

    def send(self, sender: AgentId, recipient: AgentId, message: Message) -> None:
        if recipient == sender:
            raise _self_send(sender)
        self._queue.append((self._now + self.delay, recipient, message))
        self.sent_count += 1

    def deliver(self) -> Inbox:
        self._now += 1
        queue = self._queue
        inbox: Inbox = {}
        while queue and queue[0][0] <= self._now:
            _arrival, recipient, message = queue.popleft()
            inbox.setdefault(recipient, []).append(message)
            self.delivered_count += 1
        return inbox

    def pending(self) -> int:
        return len(self._queue)


class LossyNetwork(Network):
    """Messages are dropped with probability *loss_rate* and retransmitted.

    The paper's algorithms assume reliable delivery ("an agent can send
    messages to other agents iff the agents know the addresses ... the
    delay in delivering a message is finite" is the standard DisCSP model).
    Real links lose packets; reliability is then implemented underneath,
    by acknowledgment and retransmission. This network models exactly that
    contract: each send is retried every *retransmit_after* cycles until a
    copy survives the loss process, so delivery is guaranteed but takes a
    geometrically distributed number of retransmission rounds.

    The net effect is a random-delay channel whose delay distribution comes
    from the loss process — which is why the DisCSP model's "finite delay"
    assumption is the right abstraction for lossy links, a point this class
    makes executable (see ``tests/runtime/test_lossy.py``).

    Per-channel FIFO is preserved: a retransmitted message never overtakes
    a later one, because delivery order is decided by send sequence among
    messages that have "arrived" (survived loss).

    The loss process draws from *rng* when given; otherwise from a stream
    derived from *seed* — pass the simulator/trial seed so delay schedules
    are part of the trial's reproducible state (identical sequentially and
    under ``--jobs N``), never from shared global RNG state.
    """

    def __init__(
        self,
        loss_rate: float = 0.3,
        retransmit_after: int = 1,
        rng: Optional[random.Random] = None,
        max_attempts: int = 1000,
        seed: Seed = 0,
    ) -> None:
        super().__init__()
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError(
                f"loss_rate must be in [0, 1), got {loss_rate}"
            )
        if retransmit_after < 1:
            raise SimulationError(
                f"retransmit_after must be at least 1, got {retransmit_after}"
            )
        self.loss_rate = loss_rate
        self.retransmit_after = retransmit_after
        self.max_attempts = max_attempts
        self._rng = (
            rng if rng is not None else derive_rng(seed, "network", "lossy")
        )
        self._now = 0
        self._sequence = 0
        self.dropped_count = 0
        self.retransmissions = 0
        # (arrival_cycle, sequence, recipient, message)
        self._in_flight: List[Tuple[int, int, AgentId, Message]] = []
        # Per-channel hold-back (TCP-style): a message is not delivered
        # before its predecessors on the same (sender, recipient) channel.
        self._last_arrival: Dict[Tuple[AgentId, AgentId], int] = {}

    def send(self, sender: AgentId, recipient: AgentId, message: Message) -> None:
        if recipient == sender:
            raise _self_send(sender)
        # Simulate (re)transmission rounds until a copy gets through; the
        # arrival time reflects how many rounds were needed.
        attempts = 1
        while self._rng.random() < self.loss_rate:
            self.dropped_count += 1
            self.retransmissions += 1
            attempts += 1
            if attempts > self.max_attempts:
                raise SimulationError(
                    "message exceeded the retransmission budget; "
                    "loss_rate is unrealistically high"
                )
        arrival = self._now + 1 + (attempts - 1) * self.retransmit_after
        channel = (sender, recipient)
        arrival = max(arrival, self._last_arrival.get(channel, 0))
        self._last_arrival[channel] = arrival
        self._in_flight.append((arrival, self._sequence, recipient, message))
        self._sequence += 1
        self.sent_count += 1

    def deliver(self) -> Inbox:
        self._now += 1
        due = [item for item in self._in_flight if item[0] <= self._now]
        self._in_flight = [
            item for item in self._in_flight if item[0] > self._now
        ]
        # FIFO among arrivals: order by send sequence.
        due.sort(key=lambda item: item[1])
        inbox: Inbox = {}
        for _arrival, _sequence, recipient, message in due:
            inbox.setdefault(recipient, []).append(message)
            self.delivered_count += 1
        return inbox

    def pending(self) -> int:
        return len(self._in_flight)


class RandomDelayNetwork(Network):
    """Each message independently takes 1..max_delay cycles.

    With ``fifo=True`` messages between an ordered pair of agents are
    delivered in send order (a message's delivery time is clamped to be no
    earlier than the previously sent message on the same channel). With
    ``fifo=False`` messages can overtake each other arbitrarily.

    Deliveries within a cycle are ordered by (send order), independent of the
    heap's internal layout, so runs are reproducible for a fixed seed.

    Delay draws come from *rng* when given; otherwise from a stream derived
    from *seed* — pass the simulator/trial seed so the delay schedule is
    part of the trial's reproducible state (identical sequentially and
    under ``--jobs N``), never from shared global RNG state.
    """

    def __init__(
        self,
        max_delay: int = 3,
        rng: Optional[random.Random] = None,
        fifo: bool = True,
        seed: Seed = 0,
    ) -> None:
        super().__init__()
        if max_delay < 1:
            raise SimulationError(
                f"max_delay must be at least 1, got {max_delay}"
            )
        self.max_delay = max_delay
        self.fifo = fifo
        self._rng = (
            rng if rng is not None else derive_rng(seed, "network", "delay")
        )
        self._now = 0
        self._sequence = 0
        self._heap: List[Tuple[int, int, AgentId, Message]] = []
        self._last_delivery: Dict[Tuple[AgentId, AgentId], int] = {}

    def send(self, sender: AgentId, recipient: AgentId, message: Message) -> None:
        if recipient == sender:
            raise _self_send(sender)
        arrival = self._now + self._rng.randint(1, self.max_delay)
        if self.fifo:
            channel = (sender, recipient)
            arrival = max(arrival, self._last_delivery.get(channel, 0))
            self._last_delivery[channel] = arrival
        heapq.heappush(self._heap, (arrival, self._sequence, recipient, message))
        self._sequence += 1
        self.sent_count += 1

    def deliver(self) -> Inbox:
        self._now += 1
        due: List[Tuple[int, int, AgentId, Message]] = []
        while self._heap and self._heap[0][0] <= self._now:
            due.append(heapq.heappop(self._heap))
        due.sort(key=lambda item: item[1])
        inbox: Inbox = {}
        for _arrival, _sequence, recipient, message in due:
            inbox.setdefault(recipient, []).append(message)
            self.delivered_count += 1
        return inbox

    def pending(self) -> int:
        return len(self._heap)


@dataclass(frozen=True)
class Delivery:
    """One message in a :class:`ScheduledNetwork` log.

    ``time`` is the cycle it was sent in while pending, and the cycle it
    was delivered in once it appears in ``delivery_log``; ``sequence`` is
    its position in the network's send order.
    """

    time: int
    sequence: int
    sender: AgentId
    recipient: AgentId
    message: Message


@dataclass(frozen=True)
class ChoicePoint:
    """One scheduling decision: what was deliverable, what was chosen."""

    time: int
    enabled: Tuple[Delivery, ...]
    chosen: int

    @property
    def branching(self) -> bool:
        """True when the decision was a real choice (>1 enabled head)."""
        return len(self.enabled) > 1


class ScheduledNetwork(Network):
    """A network that delivers one message per cycle, chosen by a schedule.

    The interleaving verifier (:mod:`repro.verify`) needs to *choose*
    delivery orders, not sample them: given the same agents and seed it
    replays a prefix of decisions and then branches.

    * Every :meth:`deliver` hands over exactly **one** message, so a cycle
      runs a single handler invocation and the schedule fully serializes
      handler execution (the granularity the explorer reasons about).
    * The deliverable messages (the *enabled set*) are the per-channel FIFO
      heads, sorted by ``(sender, recipient)``, so index *k* names the same
      delivery on every replay of the same prefix. Every reordering
      *across* channels is reachable; none within a channel.
    * Which head goes next comes from ``schedule``, a sequence of indices
      into the enabled set. Past its end index 0 is taken, so a schedule is
      a *prefix* of decisions and the run completes deterministically.

    Every decision is recorded in ``choice_log`` and every delivery in
    ``delivery_log``; the explorer reads both to find the branch points of
    the next schedules and to check per-delivery invariants after the run.
    """

    def __init__(self, schedule: Sequence[int] = ()) -> None:
        super().__init__()
        self.choice_log: List[ChoicePoint] = []
        self.delivery_log: List[Delivery] = []
        self._schedule: Tuple[int, ...] = tuple(schedule)
        self._now = 0
        self._pending: List[Delivery] = []

    def send(self, sender: AgentId, recipient: AgentId, message: Message) -> None:
        if recipient == sender:
            raise _self_send(sender)
        self._pending.append(
            Delivery(self._now, self.sent_count, sender, recipient, message)
        )
        self.sent_count += 1

    def deliver(self) -> Inbox:
        self._now += 1
        if not self._pending:
            return {}
        enabled = self.enabled()
        decision = len(self.choice_log)
        index = (
            self._schedule[decision] if decision < len(self._schedule) else 0
        )
        if not 0 <= index < len(enabled):
            raise SimulationError(
                f"schedule chose delivery {index} but only "
                f"{len(enabled)} channel heads are enabled at cycle "
                f"{self._now}"
            )
        self.choice_log.append(ChoicePoint(self._now, enabled, index))
        chosen = enabled[index]
        self._pending.remove(chosen)
        self.delivery_log.append(replace(chosen, time=self._now))
        self.delivered_count += 1
        return {chosen.recipient: [chosen.message]}

    def pending(self) -> int:
        return len(self._pending)

    def enabled(self) -> Tuple[Delivery, ...]:
        """The deliverable messages: per-channel FIFO heads, sorted."""
        heads: Dict[Tuple[AgentId, AgentId], Delivery] = {}
        for delivery in self._pending:
            channel = (delivery.sender, delivery.recipient)
            if channel not in heads:
                heads[channel] = delivery
        return tuple(heads[channel] for channel in sorted(heads))

    @property
    def choices_taken(self) -> Tuple[int, ...]:
        """The full decision sequence of the run so far (replayable)."""
        return tuple(point.chosen for point in self.choice_log)


def _self_send(sender: AgentId) -> SimulationError:
    return SimulationError(
        f"agent {sender} attempted to send a message to itself"
    )
