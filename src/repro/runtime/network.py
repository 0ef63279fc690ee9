"""Network models: how messages move between agents.

The paper's experiments run on "a simulator of a synchronous distributed
system": in each cycle all agents read incoming messages, compute, and send.
:class:`SynchronousNetwork` implements exactly that — a message sent during
cycle *t* is readable at cycle *t + 1*.

The paper notes (Section 5) that the algorithms are designed for fully
asynchronous systems and should be analysed on other network types too.
The :class:`DelayNetwork` subclasses provide that axis over one arrival
queue: :class:`FixedDelayNetwork` (a constant delay),
:class:`RandomDelayNetwork` (1..max_delay cycles per message, optionally
without per-channel FIFO, so messages between the same pair of agents can
overtake each other — the harshest asynchrony the algorithms must
tolerate) and :class:`LossyNetwork` (retransmission after loss).

:class:`ScheduledNetwork` is the interleaving verifier's medium: instead of
sampling delays it delivers one message per cycle, chosen by an explicit,
replayable schedule (see :mod:`repro.verify`).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    List,
    Sequence,
    Tuple,
)

from ..core.exceptions import SimulationError
from ..core.problem import AgentId
from .messages import Message, Outgoing

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


class DelayNetwork(Network):
    """Base of the delay networks: one arrival queue, one delivery rule.

    A sent message enters a heap keyed by ``(arrival cycle, send
    sequence)``; :meth:`deliver` pops every message whose arrival cycle
    has passed and hands them over in send order. With ``fifo`` a
    message's arrival is clamped to no earlier than the one sent before
    it on the same ``(sender, recipient)`` channel, so channels never
    reorder. Subclasses supply only the delay law, :meth:`_delay`.
    """

    def __init__(self, fifo: bool = True) -> None:
        super().__init__()
        self.fifo = fifo
        self._now = 0
        self._queue: List[Tuple[int, int, AgentId, Message]] = []
        self._last_arrival: Dict[Tuple[AgentId, AgentId], int] = {}

    def _delay(self) -> int:
        """Cycles the next sent message takes, at least 1."""
        raise NotImplementedError

    def send(self, sender: AgentId, recipient: AgentId, message: Message) -> None:
        if recipient == sender:
            raise _self_send(sender)
        arrival = self._now + self._delay()
        if self.fifo:
            channel = (sender, recipient)
            arrival = max(arrival, self._last_arrival.get(channel, 0))
            self._last_arrival[channel] = arrival
        heapq.heappush(
            self._queue, (arrival, self.sent_count, recipient, message)
        )
        self.sent_count += 1

    def deliver(self) -> Inbox:
        self._now += 1
        queue = self._queue
        due: List[Tuple[int, int, AgentId, Message]] = []
        while queue and queue[0][0] <= self._now:
            due.append(heapq.heappop(queue))
        due.sort(key=lambda item: item[1])
        inbox: Inbox = {}
        for _arrival, _sequence, recipient, message in due:
            inbox.setdefault(recipient, []).append(message)
        self.delivered_count += len(due)
        return inbox

    def pending(self) -> int:
        return len(self._queue)


class FixedDelayNetwork(DelayNetwork):
    """Every message takes exactly *delay* cycles.

    This is the network the paper's Figure 2 model abstracts: a per-cycle
    communication delay of a known number of time-units. Running an
    algorithm on ``FixedDelayNetwork(d)`` and comparing the measured cycle
    count against ``d × cycles_at_delay_1`` empirically validates (or
    bounds) the linear model — see :mod:`repro.experiments.validation`.
    """

    def __init__(self, delay: int = 1) -> None:
        super().__init__()
        if delay < 1:
            raise SimulationError(f"delay must be at least 1, got {delay}")
        self.delay = delay

    def _delay(self) -> int:
        return self.delay


class LossyNetwork(DelayNetwork):
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
    a later one (TCP-style hold-back).

    The loss process draws from *rng*; pass one derived from the trial
    seed so the delay schedule is part of the trial's reproducible state.
    """

    def __init__(
        self,
        loss_rate: float = 0.3,
        retransmit_after: int = 1,
        *,
        rng: random.Random,
        max_attempts: int = 1000,
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
        self._rng = rng
        self.dropped_count = 0
        self.retransmissions = 0

    def _delay(self) -> int:
        # Simulate (re)transmission rounds until a copy gets through; the
        # delay reflects how many rounds were needed.
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
        return 1 + (attempts - 1) * self.retransmit_after


class RandomDelayNetwork(DelayNetwork):
    """Each message independently takes 1..max_delay cycles.

    With ``fifo=True`` messages between an ordered pair of agents are
    delivered in send order; with ``fifo=False`` they can overtake each
    other arbitrarily.

    Delay draws come from *rng*; pass one derived from the trial seed so
    the delay schedule is part of the trial's reproducible state.
    """

    def __init__(
        self,
        max_delay: int = 3,
        *,
        rng: random.Random,
        fifo: bool = True,
    ) -> None:
        super().__init__(fifo)
        if max_delay < 1:
            raise SimulationError(
                f"max_delay must be at least 1, got {max_delay}"
            )
        self.max_delay = max_delay
        self._rng = rng

    def _delay(self) -> int:
        return self._rng.randint(1, self.max_delay)


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
