"""The discrete-event asynchronous simulator.

Section 5 of the paper notes that AWC and its nogood-learning variants "are
designed for a fully asynchronous distributed system"; the experiments
nevertheless run on a lockstep cycle simulator. This engine is the
asynchronous execution backend: instead of advancing every agent once per
cycle, it keeps a priority queue of message-delivery events and activates an
agent only when mail arrives — the paper's "agents act on received messages"
model.

Logical time and the paper's measures
-------------------------------------

Arrival timestamps are logical, not seconds: the transport's latency model
assigns each message an integer delay, and the engine processes all
deliveries sharing a timestamp as one *epoch* (activating the recipients in
agent-id order, a deterministic tie-break). The paper's measures carry over
as logical-time analogues, collected by the same
:class:`~repro.runtime.metrics.MetricsCollector`:

* ``cycles`` — the number of epochs executed (with unit latency this is
  exactly the synchronous simulator's cycle count);
* ``maxcck`` — the sum over epochs of the per-epoch maximum of nogood
  checks, the direct generalization of the paper's "sum of the maximal
  number of nogood checks performed by agents at each cycle";
* ``logical_time`` — the timestamp of the last epoch (equals ``cycles``
  under unit latency; grows faster under random latency).

Parity mode
-----------

With the default :class:`~repro.runtime.events.transport.UnitLatency`
transport the engine reproduces the
:class:`~repro.runtime.simulator.SynchronousSimulator` trial-for-trial:
every message sent during epoch *t* arrives at *t + 1*, epochs are
consecutive integers, and agents that received no mail would have been
no-ops anyway (``step([])`` is a no-op for every algorithm in the repo;
agents with *internal* pending work — e.g. the multi-variable AWC agent's
carryover queue — declare it via
:meth:`~repro.runtime.agent.SimulatedAgent.has_pending_work` and get a
wakeup event at the next timestamp). The parity tests assert equality of
``solved``/``cycles``/``maxcck``/checks/messages/assignments on the paper's
benchmark families.

Termination mirrors the synchronous simulator: a global observer sees a
solution, an agent derives the empty nogood, the event queue drains without
a solution (quiescence), or the epoch cap is reached (``capped=True``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set

from ...core.exceptions import SimulationError
from ...core.problem import AgentId, DisCSP
from ..agent import SimulatedAgent
from ..messages import Message, Outgoing
from ..metrics import MetricsCollector
from ..simulator import DEFAULT_MAX_CYCLES, RunResult
from ..termination import (
    GlobalSolutionDetector,
    IncrementalSolutionDetector,
    collect_assignment,
)
from ..trace import TraceRecorder
from .transport import InProcessTransport, Transport

class EventDrivenSimulator:
    """Runs agents to completion on a discrete-event schedule.

    Drop-in counterpart of
    :class:`~repro.runtime.simulator.SynchronousSimulator`: same agent
    protocol, same metrics/detector/tracer collaborators, same
    :class:`~repro.runtime.simulator.RunResult`. The medium is a pluggable
    :class:`~repro.runtime.events.transport.Transport` instead of a
    :class:`~repro.runtime.network.Network`; ``max_epochs`` plays the role
    of ``max_cycles``.
    """

    def __init__(
        self,
        problem: DisCSP,
        agents: Sequence[SimulatedAgent],
        transport: Optional[Transport] = None,
        max_epochs: int = DEFAULT_MAX_CYCLES,
        metrics: Optional[MetricsCollector] = None,
        detector: Optional[GlobalSolutionDetector] = None,
        tracer: Optional[TraceRecorder] = None,
    ) -> None:
        if max_epochs < 1:
            raise SimulationError(f"max_epochs must be positive: {max_epochs}")
        ids = [agent.id for agent in agents]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"duplicate agent ids: {sorted(ids)}")
        if set(ids) != set(problem.agents):
            raise SimulationError(
                "agents do not match the problem: "
                f"expected {sorted(problem.agents)}, got {sorted(ids)}"
            )
        self.problem = problem
        self.agents: List[SimulatedAgent] = sorted(agents, key=lambda a: a.id)
        self.transport: Transport = (
            transport if transport is not None else InProcessTransport()
        )
        self.max_epochs = max_epochs
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.detector = (
            detector
            if detector is not None
            else IncrementalSolutionDetector(problem)
        )
        self.tracer = tracer
        self._tracer_seconds = 0.0
        self._ids = frozenset(ids)
        self._by_id: Dict[AgentId, SimulatedAgent] = {
            agent.id: agent for agent in self.agents
        }
        #: Pending self-wakeups: timestamp -> agents to step even without
        #: mail (scheduled when an agent reports has_pending_work()).
        self._wakeups: Dict[int, Set[AgentId]] = {}
        for agent in self.agents:
            self.metrics.attach(agent.id, agent.check_counter)

    # -- driving --------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to termination and return the trial's result."""
        started = time.perf_counter()
        now = 0
        for agent in self.agents:
            self._route(now, agent.id, agent.initialize())
            if agent.has_pending_work():
                self._schedule_wakeup(1, agent.id)
        # Epoch 0 is initialization; like the synchronous simulator, a
        # random initial assignment that already solves the problem costs
        # zero cycles.
        solved = self._solution_found()
        unsolvable = self._any_failure()
        quiescent = False
        while (
            not solved
            and not unsolvable
            and not quiescent
            and self.metrics.cycles < self.max_epochs
        ):
            next_time = self._next_time()
            if next_time is None:
                quiescent = True
                break
            now = next_time
            self._run_epoch(now)
            self.metrics.end_cycle()
            if self.tracer is not None:
                traced_at = time.perf_counter()
                self.tracer.on_cycle_end(now, collect_assignment(self.agents))
                self._tracer_seconds += time.perf_counter() - traced_at
            solved = self._solution_found()
            unsolvable = self._any_failure()
        capped = (
            not solved
            and not unsolvable
            and not quiescent
            and self.metrics.cycles >= self.max_epochs
        )
        wall_time = time.perf_counter() - started
        return RunResult(
            solved=solved,
            unsolvable=unsolvable,
            capped=capped,
            quiescent=quiescent,
            cycles=self.metrics.cycles,
            maxcck=self.metrics.maxcck,
            total_checks=self.metrics.total_checks,
            messages_sent=self.transport.sent_count,
            generated_nogoods=self.metrics.generated_count,
            redundant_generations=self.metrics.redundant_generations,
            assignment=collect_assignment(self.agents),
            wall_time=wall_time,
            sim_time=wall_time - self._tracer_seconds,
            max_history=list(self.metrics.max_history),
            logical_time=now,
        )

    # -- internals -------------------------------------------------------------

    def _next_time(self) -> Optional[int]:
        """The next epoch's timestamp: earliest arrival or wakeup."""
        candidates: List[int] = []
        arrival = self.transport.next_time()
        if arrival is not None:
            candidates.append(arrival)
        if self._wakeups:
            candidates.append(min(self._wakeups))
        if not candidates:
            return None
        return min(candidates)

    def _run_epoch(self, now: int) -> None:
        """Deliver everything due at *now* and step the activated agents."""
        inbox: Dict[AgentId, List[Message]] = {}
        for delivery in self.transport.pop_due(now):
            inbox.setdefault(delivery.recipient, []).append(delivery.message)
            if self.tracer is not None:
                traced_at = time.perf_counter()
                self.tracer.on_delivery(
                    now, delivery.sequence, delivery.sender, delivery.recipient
                )
                self._tracer_seconds += time.perf_counter() - traced_at
        woken = self._wakeups.pop(now, set())
        active = [
            self._by_id[agent_id] for agent_id in sorted(set(inbox) | woken)
        ]
        for agent in active:
            outgoing = agent.step(inbox.get(agent.id, ()))
            self._route(now, agent.id, outgoing)
            if agent.has_pending_work():
                self._schedule_wakeup(now + 1, agent.id)

    def _schedule_wakeup(self, when: int, agent_id: AgentId) -> None:
        self._wakeups.setdefault(when, set()).add(agent_id)

    def _route(
        self, now: int, sender: AgentId, outgoing: Sequence[Outgoing]
    ) -> None:
        for recipient, message in outgoing:
            if recipient not in self._ids:
                raise SimulationError(
                    f"agent {sender} sent a message to unknown agent "
                    f"{recipient}"
                )
            if self.tracer is not None:
                traced_at = time.perf_counter()
                # sent_count is the transport's send counter *before* this
                # send, i.e. exactly the sequence the transport will stamp
                # on the resulting delivery.
                self.tracer.on_message(
                    now, sender, recipient, message,
                    sequence=self.transport.sent_count,
                )
                self._tracer_seconds += time.perf_counter() - traced_at
            self.transport.send(sender, recipient, message, now)

    def _solution_found(self) -> bool:
        return self.detector.is_solution(collect_assignment(self.agents))

    def _any_failure(self) -> bool:
        return any(agent.failure is not None for agent in self.agents)
