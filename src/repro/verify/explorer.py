"""The DPOR-style schedule explorer.

Exploration model
-----------------

A run on :class:`~repro.runtime.network.ScheduledNetwork` is fully
determined by its *decision sequence*: at each cycle the network exposes
the enabled set (per-channel FIFO heads, deterministically sorted) and an
index picks the delivery. A **schedule** here is a finite prefix of such
indices — beyond the prefix the default head (index 0) is taken, so every
prefix extends to exactly one complete run.

The explorer is a depth-first search over prefixes. After running a prefix
it inspects the decisions taken *at or past* the prefix (decisions before
it were already branched by an ancestor) and, for each branching choice
point, pushes sibling prefixes that pick a different enabled delivery.
Unpruned, this enumerates every interleaving of channel-head deliveries —
the ``--no-prune`` baseline the prune ratio is measured against.

Pruning via declared commuting deliveries
-----------------------------------------

Two enabled deliveries are *independent* when executing them in either
order reaches the same state:

* different recipients — a step touches only its recipient's state, so
  cross-agent deliveries commute;
* same recipient — commute iff the recipient's class lists the pair of
  message types in its
  :attr:`~repro.runtime.agent.SimulatedAgent.commuting_deliveries`. An
  undeclared pair is *dependent*. ``tests/verify/test_commuting.py``
  delivers each declared pair in both orders on every state the explorer
  reaches and compares the results byte for byte.

At a branching choice point the explorer only explores siblings inside the
*dependency group* of the default delivery — the connected component of
the dependency relation over the enabled set. Reordering against anything
outside the component commutes step-by-step with the whole component, so
some explored schedule already covers that ordering's equivalence class.

This is a persistent-set style approximation, not a full Godefroid DPOR:
early termination (an agent solving the instance before draining mail) can
in principle hide a suffix that only a pruned ordering reaches. The
verifier trades that corner for tractable corpus exploration; the racing
handlers it hunts are same-recipient conflicts, which are pruned only
where a declaration says so.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.problem import AgentId, DisCSP
from ..runtime.agent import CommutingPairs, SimulatedAgent
from ..runtime.network import Delivery, ScheduledNetwork
from ..runtime.simulator import RunResult, SynchronousSimulator
from .corpus import PINNED_CORPUS, CorpusEntry
from .invariants import check_determinism, check_run

#: Default cap on schedules the DPOR search runs per entry; the pinned
#: corpus is sized so its trees close well under this.
DEFAULT_BUDGET = 2000

#: Naive counting floor — when no explicit budget is given, the naive walk
#: is capped at ``max(NAIVE_FLOOR, NAIVE_FACTOR * explored)`` so a capped
#: count still lower-bounds the prune ratio at NAIVE_FACTOR.
NAIVE_FLOOR = 2000
NAIVE_FACTOR = 15


@dataclass(frozen=True)
class ScheduleRun:
    """One executed interleaving of a corpus entry."""

    schedule: Tuple[int, ...]
    choices: Tuple[int, ...]
    result: RunResult
    violations: Tuple[str, ...]


@dataclass
class EntryReport:
    """Exploration outcome for one corpus entry."""

    name: str
    algorithm: str
    explored: int = 0
    explored_capped: bool = False
    naive: int = 0
    naive_counted: bool = False
    naive_capped: bool = False
    branch_points: int = 0
    max_enabled: int = 0
    violations: List[str] = field(default_factory=list)
    outcomes: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def prune_ratio(self) -> Optional[float]:
        """Naive schedules per explored schedule (>= 1.0), or None when
        no naive count ran: an unmeasured ratio is not a ratio of 1.

        A lower bound whenever ``naive_capped`` — the naive walk stopped
        counting at its budget, not at the end of its tree.
        """
        if not self.naive_counted or self.explored == 0:
            return None
        return self.naive / self.explored

    @property
    def total_runs(self) -> int:
        """Simulations actually executed (the naive walk runs them too)."""
        return self.explored + (self.naive if self.naive_counted else 0)

    @property
    def schedules_per_second(self) -> float:
        if self.seconds <= 0.0:
            return 0.0
        return self.total_runs / self.seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "algorithm": self.algorithm,
            "explored": self.explored,
            "explored_capped": self.explored_capped,
            "naive": self.naive,
            "naive_counted": self.naive_counted,
            "naive_capped": self.naive_capped,
            "branch_points": self.branch_points,
            "max_enabled": self.max_enabled,
            "prune_ratio": _rounded(self.prune_ratio),
            "schedules_per_second": round(self.schedules_per_second, 1),
            "outcomes": dict(self.outcomes),
            "violations": list(self.violations),
            "seconds": round(self.seconds, 3),
        }


@dataclass
class ExplorationReport:
    """The whole corpus run — what ``repro verify`` prints."""

    entries: List[EntryReport] = field(default_factory=list)

    @property
    def explored(self) -> int:
        return sum(entry.explored for entry in self.entries)

    @property
    def naive(self) -> int:
        return sum(entry.naive for entry in self.entries)

    @property
    def total_runs(self) -> int:
        return sum(entry.total_runs for entry in self.entries)

    @property
    def prune_ratio(self) -> Optional[float]:
        """The ratio over the entries with a naive count (None if none)."""
        counted = [entry for entry in self.entries if entry.naive_counted]
        explored = sum(entry.explored for entry in counted)
        if explored == 0:
            return None
        return sum(entry.naive for entry in counted) / explored

    @property
    def violations(self) -> List[str]:
        found: List[str] = []
        for entry in self.entries:
            found.extend(
                f"[{entry.name}] {violation}"
                for violation in entry.violations
            )
        return found

    @property
    def seconds(self) -> float:
        return sum(entry.seconds for entry in self.entries)

    @property
    def schedules_per_second(self) -> float:
        seconds = self.seconds
        if seconds <= 0.0:
            return 0.0
        return self.total_runs / seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "explored": self.explored,
            "naive": self.naive,
            "prune_ratio": _rounded(self.prune_ratio),
            "schedules_per_second": round(self.schedules_per_second, 1),
            "violations": self.violations,
            "entries": [entry.as_dict() for entry in self.entries],
        }


def _rounded(ratio: Optional[float]) -> Optional[float]:
    return None if ratio is None else round(ratio, 2)


# -- dependency reasoning -------------------------------------------------------


def _dependent(
    left: Delivery,
    right: Delivery,
    declared: Dict[AgentId, CommutingPairs],
) -> bool:
    """Whether delivery order can matter: same recipient, undeclared pair."""
    if left.recipient != right.recipient:
        return False
    pair = frozenset((type(left.message), type(right.message)))
    return pair not in declared[left.recipient]


def _dependency_group(
    enabled: Tuple[Delivery, ...],
    chosen: int,
    declared: Dict[AgentId, CommutingPairs],
) -> Set[int]:
    """Indices in the chosen delivery's dependency component."""
    group: Set[int] = {chosen}
    frontier = [chosen]
    while frontier:
        current = frontier.pop()
        for index, candidate in enumerate(enabled):
            if index in group:
                continue
            if _dependent(enabled[current], candidate, declared):
                group.add(index)
                frontier.append(index)
    return group


# -- running one schedule -------------------------------------------------------


def run_schedule(
    problem: DisCSP,
    agents: Sequence[SimulatedAgent],
    schedule: Tuple[int, ...],
    max_cycles: int,
) -> Tuple[ScheduleRun, ScheduledNetwork]:
    """Execute one interleaving and check its per-run invariants."""
    network = ScheduledNetwork(schedule=schedule)
    result = SynchronousSimulator(
        problem, agents, network=network, max_cycles=max_cycles
    ).run()
    violations = check_run(problem, agents, result, network.delivery_log)
    run = ScheduleRun(
        schedule=schedule,
        choices=network.choices_taken,
        result=result,
        violations=tuple(violations),
    )
    return run, network


# -- exploring one entry --------------------------------------------------------


def explore_entry(
    entry: CorpusEntry,
    budget: int = DEFAULT_BUDGET,
    naive_budget: Optional[int] = None,
    prune: bool = True,
    count_naive: bool = True,
) -> EntryReport:
    """DFS over schedules of *entry*, checking invariants on each run."""
    report = EntryReport(name=entry.name, algorithm=entry.algorithm)
    started = time.perf_counter()
    baseline_outcome: Optional[Tuple[bool, bool]] = None

    stack: List[Tuple[int, ...]] = [()]
    seen: Set[Tuple[int, ...]] = {()}
    while stack:
        if report.explored >= budget:
            report.explored_capped = True
            break
        prefix = stack.pop()
        problem, agents = entry.build()
        declared = {agent.id: agent.commuting_deliveries for agent in agents}
        run, network = run_schedule(
            problem, agents, prefix, entry.max_cycles
        )
        report.explored += 1
        report.violations.extend(
            f"schedule {prefix}: {violation}" for violation in run.violations
        )
        label = _outcome_label(run.result)
        report.outcomes[label] = report.outcomes.get(label, 0) + 1
        # Capped runs are inconclusive — the cycle budget ran out, which
        # says nothing about where the schedule would have converged — so
        # outcome agreement is asserted across conclusive runs only.
        if not run.result.capped:
            outcome = (run.result.solved, run.result.unsolvable)
            if baseline_outcome is None:
                baseline_outcome = outcome
            elif outcome != baseline_outcome:
                report.violations.append(
                    f"schedule {prefix}: outcome {label} diverges from "
                    "the first conclusive schedule's "
                    f"{_outcome_pair_label(baseline_outcome)}"
                )
        for index, point in enumerate(network.choice_log):
            if index < len(prefix) or not point.branching:
                continue
            report.branch_points += 1
            report.max_enabled = max(report.max_enabled, len(point.enabled))
            if prune:
                siblings = _dependency_group(
                    point.enabled, point.chosen, declared
                )
                siblings.discard(point.chosen)
            else:
                siblings = {
                    sibling
                    for sibling in range(len(point.enabled))
                    if sibling != point.chosen
                }
            base = run.choices[:index]
            for sibling in sorted(siblings):
                candidate = base + (sibling,)
                if candidate not in seen:
                    seen.add(candidate)
                    stack.append(candidate)

    # Determinism is orthogonal to schedule choice: check it once per entry.
    report.violations.extend(check_determinism(entry))

    if count_naive:
        cap = (
            naive_budget
            if naive_budget is not None
            else max(NAIVE_FLOOR, NAIVE_FACTOR * report.explored)
        )
        naive, capped = _naive_count(entry, cap)
        report.naive, report.naive_capped = naive, capped
        report.naive_counted = True
    report.seconds = time.perf_counter() - started
    return report


def _naive_count(entry: CorpusEntry, budget: int) -> Tuple[int, bool]:
    """Count the unpruned schedule tree (the denominator-free baseline).

    Walks the same DFS *without* running the agents twice per node: each
    schedule still requires one run (the tree's shape depends on execution),
    so the count is capped by *budget* — a capped count understates the
    naive tree, making the reported prune ratio a lower bound.
    """
    count = 0
    stack: List[Tuple[int, ...]] = [()]
    seen: Set[Tuple[int, ...]] = {()}
    while stack:
        if count >= budget:
            return count, True
        prefix = stack.pop()
        problem, agents = entry.build()
        run, network = run_schedule(
            problem, agents, prefix, entry.max_cycles
        )
        count += 1
        for index, point in enumerate(network.choice_log):
            if index < len(prefix) or not point.branching:
                continue
            base = run.choices[:index]
            for sibling in range(len(point.enabled)):
                if sibling == point.chosen:
                    continue
                candidate = base + (sibling,)
                if candidate not in seen:
                    seen.add(candidate)
                    stack.append(candidate)
    return count, False


def _outcome_label(result: RunResult) -> str:
    if result.solved:
        return "solved"
    if result.unsolvable:
        return "unsolvable"
    if result.quiescent:
        return "quiescent"
    return "capped"


def _outcome_pair_label(outcome: Tuple[bool, bool]) -> str:
    solved, unsolvable = outcome
    if solved:
        return "solved"
    if unsolvable:
        return "unsolvable"
    return "unsolved"


# -- the corpus ----------------------------------------------------------------


def explore_corpus(
    entries: Sequence[CorpusEntry] = PINNED_CORPUS,
    budget: int = DEFAULT_BUDGET,
    naive_budget: Optional[int] = None,
    prune: bool = True,
    count_naive: bool = True,
) -> ExplorationReport:
    """Explore every corpus entry in turn."""
    report = ExplorationReport()
    for entry in entries:
        report.entries.append(
            explore_entry(
                entry,
                budget=budget,
                naive_budget=naive_budget,
                prune=prune,
                count_naive=count_naive,
            )
        )
    return report
