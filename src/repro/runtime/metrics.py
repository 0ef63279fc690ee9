"""Cost accounting: the paper's measures, collected outside the algorithms.

For every trial the paper reports:

* ``cycle`` — cycles consumed until a solution is found;
* ``maxcck`` — "sum of the maximal number of nogood checks performed by
  agents at each cycle";

and, for Table 4, the total number of *redundant* nogood generations: how
often some agent generates a nogood that had already been generated earlier
in the run.

Algorithms never compute these themselves. Agents expose a
:class:`~repro.core.store.CheckCounter`; the collector snapshots the
counters at cycle boundaries and derives per-cycle maxima, and the
learning layer reports each generated nogood here for redundancy
accounting. Keeping the accounting out of the algorithms means a metrics
bug cannot change search behaviour, and vice versa.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core.nogood import Nogood
from ..core.problem import AgentId
from ..core.store import CheckCounter


class GenerationLog:
    """One agent's nogood generations, in the order the agent made them.

    Agents hold a log instead of the collector itself: a log is private to
    its agent (append-only, never read by agent code), so agents share no
    mutable state through metrics — the collector alone merges logs at
    cycle boundaries.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Nogood] = []

    def record(self, nogood: Nogood) -> None:
        """Append one generation event (redundancy is judged at the merge)."""
        self.events.append(nogood)


class MetricsCollector:
    """Accumulates per-run cost measures across cycles.

    With ``keep_history=True`` the per-cycle maxima (and per-cycle totals)
    are retained for post-hoc analysis; experiments that only need the
    aggregate leave it off to save memory on long runs.
    """

    def __init__(self, keep_history: bool = False) -> None:
        self.keep_history = keep_history
        self.cycles = 0
        self.maxcck = 0
        self.total_checks = 0
        self._generated_count = 0
        self._redundant_generations = 0
        self.max_history: List[int] = []
        self.total_history: List[int] = []
        self._counters: Dict[AgentId, CheckCounter] = {}
        self._snapshots: Dict[AgentId, int] = {}
        self._generated: Set[Nogood] = set()
        self._logs: Dict[AgentId, GenerationLog] = {}

    # -- cycle accounting ----------------------------------------------------

    def attach(self, agent_id: AgentId, counter: CheckCounter) -> None:
        """Register *agent_id*'s check counter (done once, before running)."""
        self._counters[agent_id] = counter
        self._snapshots[agent_id] = counter.total

    def end_cycle(self) -> int:
        """Close one cycle: fold in per-agent deltas; returns the cycle max."""
        self._drain_generations()
        cycle_max = 0
        cycle_total = 0
        for agent_id, counter in self._counters.items():
            delta = counter.total - self._snapshots[agent_id]
            self._snapshots[agent_id] = counter.total
            cycle_total += delta
            if delta > cycle_max:
                cycle_max = delta
        self.cycles += 1
        self.maxcck += cycle_max
        self.total_checks += cycle_total
        if self.keep_history:
            self.max_history.append(cycle_max)
            self.total_history.append(cycle_total)
        return cycle_max

    # -- nogood-generation accounting -----------------------------------------

    def generation_log_for(self, agent_id: AgentId) -> GenerationLog:
        """The (single) generation log for *agent_id*, created on first use.

        Handlers that share an agent id (multi-variable AWC) share the log;
        their events interleave in execution order, which is exactly the
        order the old immediate accounting saw them in.
        """
        log = self._logs.get(agent_id)
        if log is None:
            log = GenerationLog()
            self._logs[agent_id] = log
        return log

    def _drain_generations(self) -> None:
        """Merge pending per-agent logs into the global redundancy set.

        Logs are folded in sorted-agent-id order. The simulator steps
        agents in sorted-id order within a cycle, so draining at a
        cycle boundary replays the exact global generation sequence the
        old collector saw with immediate recording — redundancy counts are
        bit-identical. Idempotent: drained events are consumed.
        """
        for agent_id in sorted(self._logs):
            log = self._logs[agent_id]
            if not log.events:
                continue
            for nogood in log.events:
                self._fold_generation(nogood)
            log.events.clear()

    def _fold_generation(self, nogood: Nogood) -> None:
        self._generated_count += 1
        if nogood in self._generated:
            self._redundant_generations += 1
        else:
            self._generated.add(nogood)

    @property
    def generated_count(self) -> int:
        """Total generation events so far (pending logs drained on read)."""
        self._drain_generations()
        return self._generated_count

    @property
    def redundant_generations(self) -> int:
        """Table 4's measure: re-generations of an already-seen nogood."""
        self._drain_generations()
        return self._redundant_generations

    def record_generation(self, agent_id: AgentId, nogood: Nogood) -> bool:
        """Record that *agent_id* generated *nogood*, judged immediately.

        Returns True when the generation was redundant, i.e. the same nogood
        (as a set of pairs) had been generated before by any agent. This is
        Table 4's measure: with recording enabled redundancy should be rare;
        without it, agents rediscover the same nogoods over and over.

        Agents record through :meth:`generation_log_for` instead (logs keep
        cross-agent state out of agent objects); this immediate entry point
        remains for harnesses and tests that account a single stream.
        """
        del agent_id  # accounted globally; kept in the signature for tracing
        self._drain_generations()
        before = self._redundant_generations
        self._fold_generation(nogood)
        return self._redundant_generations != before

    def __repr__(self) -> str:
        return (
            f"MetricsCollector(cycles={self.cycles}, maxcck={self.maxcck}, "
            f"total_checks={self.total_checks}, "
            f"generated={self.generated_count}, "
            f"redundant={self.redundant_generations})"
        )
