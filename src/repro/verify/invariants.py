"""What must hold on every explored interleaving.

The explorer's job is to *vary* the delivery order; these checks pin down
what must **not** vary with it:

* **Detector agreement** — the simulator's (incremental) termination
  decision must match a from-scratch :class:`GlobalSolutionDetector`
  re-check of the final assignment. A divergence means the incremental detector's
  change-tracking was confused by the schedule.
* **No lost nogoods** — every delivered ``NogoodMessage`` whose learning
  policy says "record" must actually be present in the recipient's store at
  the end of the run. A reordering that drops a nogood silently breaks the
  completeness argument of the learning algorithms.
* **No quiescent failure** — a schedule must not end quiescent (the
  network idle, no agent owing work) with neither a solution nor a proof
  of unsolvability. The explorer delivers channel heads only, so every
  schedule is FIFO, where AWC and ABT are complete: an idle, unsolved
  network means their completeness argument broke.
* **Outcome agreement** (cross-run, checked by the explorer) — every
  schedule of the same pinned entry must reach the same solved/unsolvable
  verdict; solvable instances must not become unsolvable under reordering.
* **Determinism** (:func:`check_determinism`) — two fresh runs on the
  paper's synchronous network must agree on every reproducibility-contract
  field of the RunResult.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..core.store import NogoodStore
from ..core.problem import DisCSP
from ..runtime.agent import SimulatedAgent
from ..runtime.messages import NogoodMessage
from ..runtime.network import Delivery
from ..runtime.simulator import RunResult, SynchronousSimulator
from ..runtime.termination import GlobalSolutionDetector
from .corpus import CorpusEntry

#: RunResult fields covered by the determinism contract
#: (wall_time/sim_time are wall-clock and excluded by design).
DETERMINISM_FIELDS = (
    "solved",
    "unsolvable",
    "capped",
    "quiescent",
    "cycles",
    "maxcck",
    "total_checks",
    "messages_sent",
    "generated_nogoods",
    "redundant_generations",
    "assignment",
)


def check_run(
    problem: DisCSP,
    agents: Sequence[SimulatedAgent],
    result: RunResult,
    deliveries: Iterable[Delivery],
) -> List[str]:
    """Per-schedule invariants; returns human-readable violations."""
    violations: List[str] = []
    recheck = GlobalSolutionDetector(problem).is_solution(result.assignment)
    if recheck != result.solved:
        violations.append(
            "detector disagreement: full re-check says "
            f"solved={recheck} but the run reported solved={result.solved}"
        )
    if result.quiescent and not result.finished:
        violations.append(
            "quiescent and unsolved: the run went idle after "
            f"{result.cycles} cycles with no solution and no proof of "
            "unsolvability"
        )
    by_id = {agent.id: agent for agent in agents}
    for delivery in deliveries:
        message = delivery.message
        if not isinstance(message, NogoodMessage):
            continue
        recipient = by_id[delivery.recipient]
        stores = _stores_of(recipient)
        if not stores:
            continue
        if not _should_record(recipient, message):
            continue
        if not any(message.nogood in store for store in stores):
            violations.append(
                f"lost nogood: {message.nogood} was delivered to agent "
                f"{delivery.recipient} at t={delivery.time} (recording "
                "policy accepts it) but is absent from the store after "
                "the run"
            )
    return violations


def check_determinism(entry: CorpusEntry) -> List[str]:
    """Bit-reproducibility: two fresh runs, identical results."""
    first = _synchronous_result(entry)
    second = _synchronous_result(entry)
    violations: List[str] = []
    for field in DETERMINISM_FIELDS:
        left, right = getattr(first, field), getattr(second, field)
        if left != right:
            violations.append(
                f"determinism violation on {entry.name}: RunResult."
                f"{field} differs between identical synchronous runs "
                f"({left!r} != {right!r})"
            )
    return violations


def _synchronous_result(entry: CorpusEntry) -> RunResult:
    problem, agents = entry.build()
    return SynchronousSimulator(
        problem, agents, max_cycles=entry.max_cycles
    ).run()


def _stores_of(agent: SimulatedAgent) -> Tuple[NogoodStore, ...]:
    """The nogood stores an agent ends the run with (none for DB)."""
    store = getattr(agent, "store", None)
    if store is not None:
        return (store,)
    handlers = getattr(agent, "_handlers", None)
    if handlers is not None:  # the multi-variable agent: one per variable
        return tuple(
            handler.store for _, handler in sorted(handlers.items())
        )
    return ()


def _should_record(agent: SimulatedAgent, message: NogoodMessage) -> bool:
    """Whether the agent's learning policy records this received nogood.

    ABT's ``learning`` attribute is a mode string (always records); AWC's
    is a :class:`~repro.learning.LearningMethod` with ``should_record``.
    The multi-variable agent delegates to its handlers, which share one
    learning method — probe the first.
    """
    learning = getattr(agent, "learning", None)
    if learning is None:
        handlers = getattr(agent, "_handlers", None)
        if handlers:
            learning = next(iter(handlers.values())).learning
    should = getattr(learning, "should_record", None)
    if should is None:
        return True
    return bool(should(message.nogood))
