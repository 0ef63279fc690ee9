"""A multiprocess socket transport: genuinely concurrent agents.

The in-process transport *simulates* asynchrony on one deterministic event
queue. This module runs the real thing: every agent lives in its own OS
process, acts only when mail arrives on its TCP socket, and races the other
agents on the wall clock — the execution model the paper's Section 5 points
at ("a fully asynchronous distributed system"). It exists to demonstrate
that the algorithms, unchanged, tolerate true concurrency; it is *not*
deterministic, and the determinism-focused measures are replaced by their
standard asynchronous analogues:

* ``maxcck`` is reported as the **NCCC** (number of concurrent constraint
  checks, Meisels et al.): every envelope carries the sender's check clock,
  receivers take the max of their own and the incoming clocks before
  stepping and add their new checks after — a Lamport clock over nogood
  checks. Under lockstep execution NCCC coincides with the paper's
  ``maxcck``; under true concurrency it is the honest generalization.
* ``cycles`` is the maximum number of activations any one agent performed.
* ``redundant_generations`` is unavailable (it needs a global view of all
  generated nogoods) and reported as 0.

Topology is a star: a router thread in the calling process accepts one TCP
connection per agent process, forwards envelopes, observes reported local
assignments for solution detection (the same global-observer convention as
the simulators), and tracks quiescence by message conservation — a
forwarded message increments the in-flight count, an agent's post-step
report decrements it by the number it consumed; because an agent's outgoing
envelopes precede its report on its own socket, the count only reaches zero
when the system is truly idle.

Everything here is stdlib (``socket``, ``pickle``, ``struct``,
``multiprocessing``); algorithms travel to agent processes by registry
label, exactly like :mod:`repro.experiments.parallel` workers.
"""

from __future__ import annotations

import multiprocessing
import pickle
import selectors
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...core.exceptions import SimulationError
from ...core.problem import AgentId, DisCSP
from ...core.variables import Value, VariableId
from ..messages import Message
from ..random_source import Seed
from ..simulator import DEFAULT_MAX_CYCLES, RunResult
from ..termination import GlobalSolutionDetector

_LENGTH = struct.Struct("!I")

#: Router-side grace period (seconds) before declaring quiescence.
_QUIESCENCE_GRACE = 0.05


# -- wire format ---------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """One algorithm message in flight, stamped with the sender's NCCC."""

    sender: AgentId
    recipient: AgentId
    message: Message
    clock: int


@dataclass(frozen=True)
class Report:
    """An agent's post-step report to the router.

    ``assignment`` is a sorted tuple of pairs, not a dict: the report is a
    wire payload, and a mutable container inside a frozen frame is only
    shallow-frozen (repro-lint P2) — the agent process could mutate it
    after handing it to the mailbox.
    """

    agent_id: AgentId
    consumed: int
    assignment: Tuple[Tuple[VariableId, Value], ...]
    clock: int
    checks: int
    activations: int
    generated: int
    failed: bool


@dataclass(frozen=True)
class Stop:
    """Router -> agent: drain and exit."""


class SocketMailbox:
    """Length-prefixed pickle frames over one socket."""

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self._buffer = b""

    def send(self, item: object) -> None:
        payload = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
        self.conn.sendall(_LENGTH.pack(len(payload)) + payload)

    def recv(self, timeout: Optional[float]) -> Optional[object]:
        """One frame, or None on timeout. Raises EOFError on a closed peer."""
        self.conn.settimeout(timeout)
        while True:
            frame = self._take_frame()
            if frame is not None:
                return pickle.loads(frame)
            try:
                chunk = self.conn.recv(65536)
            except (socket.timeout, BlockingIOError):
                return None
            if not chunk:
                raise EOFError("peer closed the connection")
            self._buffer += chunk

    def _take_frame(self) -> Optional[bytes]:
        if len(self._buffer) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(self._buffer)
        end = _LENGTH.size + length
        if len(self._buffer) < end:
            return None
        frame = self._buffer[_LENGTH.size:end]
        self._buffer = self._buffer[end:]
        return frame

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


# -- the agent process ---------------------------------------------------------


def _agent_process(
    host: str,
    port: int,
    agent_id: AgentId,
    problem: DisCSP,
    algorithm_name: str,
    seed: Seed,
    batch_window: float,
) -> None:
    """Entry point of one agent process: connect, announce, act on mail."""
    # Imported here so the (possibly spawned) child resolves everything
    # inside its own interpreter.
    from ...algorithms.registry import algorithm_by_name
    from ...experiments.runner import random_initial_assignment
    from ..metrics import MetricsCollector

    metrics = MetricsCollector()
    initial = random_initial_assignment(problem, seed)
    agents = algorithm_by_name(algorithm_name).build(
        problem, metrics, seed, initial
    )
    (agent,) = [a for a in agents if a.id == agent_id]
    conn = socket.create_connection((host, port))
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    mailbox = SocketMailbox(conn)
    mailbox.send(agent_id)

    clock = 0
    activations = 0

    def dispatch(outgoing: List[Tuple[AgentId, Message]], consumed: int) -> None:
        nonlocal clock
        clock += agent.check_counter.total - checks_before
        for recipient, message in outgoing:
            mailbox.send(Envelope(agent.id, recipient, message, clock))
        mailbox.send(
            Report(
                agent_id=agent.id,
                consumed=consumed,
                assignment=tuple(sorted(agent.local_assignment().items())),
                clock=clock,
                checks=agent.check_counter.total,
                activations=activations,
                generated=metrics.generated_count,
                failed=agent.failure is not None,
            )
        )

    checks_before = agent.check_counter.total
    dispatch(agent.initialize(), consumed=0)
    try:
        while True:
            # Block for mail; poll instead when internal work is pending,
            # so a capped intra-round drain is retried without new mail.
            item = mailbox.recv(
                timeout=0.005 if agent.has_pending_work() else None
            )
            if isinstance(item, Stop):
                break
            pending: List[Message] = [item.message] if isinstance(
                item, Envelope
            ) else []
            clocks = [item.clock] if isinstance(item, Envelope) else []
            # Short batching window: drain whatever else already arrived so
            # one step sees a burst, like the simulators' per-epoch inboxes.
            deadline = time.monotonic() + batch_window
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                extra = mailbox.recv(timeout=remaining)
                if extra is None:
                    break
                if isinstance(extra, Stop):
                    return
                assert isinstance(extra, Envelope)
                pending.append(extra.message)
                clocks.append(extra.clock)
            if not pending and not agent.has_pending_work():
                continue
            clock = max([clock, *clocks])
            checks_before = agent.check_counter.total
            activations += 1
            dispatch(agent.step(pending), consumed=len(pending))
    except (EOFError, OSError):
        pass
    finally:
        mailbox.close()


# -- the router / trial runner -------------------------------------------------


@dataclass
class _RouterState:
    in_flight: int = 0
    forwarded: int = 0
    reported: Dict[AgentId, Report] = field(default_factory=dict)
    assignment: Dict[VariableId, Value] = field(default_factory=dict)


def run_socket_trial(
    problem: DisCSP,
    algorithm_name: str,
    seed: Seed,
    max_activations: int = DEFAULT_MAX_CYCLES,
    timeout: float = 60.0,
    batch_window: float = 0.002,
    host: str = "127.0.0.1",
) -> RunResult:
    """One trial with every agent in its own process, messages over TCP.

    ``algorithm_name`` must be a registry label (``"AWC+Rslv"``, ``"DB"``,
    ...) so each agent process can rebuild its agent locally — closures do
    not cross process boundaries. The trial ends when the router observes a
    solution, an agent reports failure (unsolvable), the system quiesces,
    any agent exceeds *max_activations* (``capped``), or *timeout* seconds
    elapse (also ``capped``).
    """
    agent_ids = sorted(problem.agents)
    if len(agent_ids) < 2:
        raise SimulationError(
            "the socket transport needs at least two agents"
        )
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, 0))
    listener.listen(len(agent_ids))
    port = listener.getsockname()[1]

    context = multiprocessing.get_context()
    processes = [
        context.Process(
            target=_agent_process,
            args=(
                host,
                port,
                agent_id,
                problem,
                algorithm_name,
                seed,
                batch_window,
            ),
            daemon=True,
        )
        for agent_id in agent_ids
    ]
    started = time.perf_counter()
    for process in processes:
        process.start()

    mailboxes: Dict[AgentId, SocketMailbox] = {}
    try:
        listener.settimeout(timeout)
        while len(mailboxes) < len(agent_ids):
            conn, _addr = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            mailbox = SocketMailbox(conn)
            hello = mailbox.recv(timeout=timeout)
            if not isinstance(hello, int) or hello not in problem.agents:
                raise SimulationError(f"unexpected handshake: {hello!r}")
            mailboxes[hello] = mailbox
        result = _route(
            problem,
            mailboxes,
            max_activations=max_activations,
            deadline=started + timeout,
        )
    finally:
        for mailbox in mailboxes.values():
            try:
                mailbox.send(Stop())
            except OSError:
                pass
        listener.close()
        for process in processes:
            process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():  # pragma: no cover - cleanup path
                process.terminate()
                process.join(timeout=5.0)
        for mailbox in mailboxes.values():
            mailbox.close()
    result.wall_time = time.perf_counter() - started
    result.sim_time = result.wall_time
    return result


def _route(
    problem: DisCSP,
    mailboxes: Dict[AgentId, SocketMailbox],
    max_activations: int,
    deadline: float,
) -> RunResult:
    """Forward envelopes until a terminal condition; build the RunResult."""
    detector = GlobalSolutionDetector(problem)
    state = _RouterState()
    solved = False
    unsolvable = False
    quiescent = False
    capped = False
    idle_since: Optional[float] = None
    selector = selectors.DefaultSelector()
    for agent_id, mailbox in mailboxes.items():
        selector.register(
            mailbox.conn, selectors.EVENT_READ, (agent_id, mailbox)
        )
    try:
        while not (solved or unsolvable or quiescent or capped):
            now = time.perf_counter()
            if now >= deadline:
                capped = True
                break
            events = selector.select(timeout=min(0.05, deadline - now))
            progressed = False
            for key, _mask in events:
                agent_id, mailbox = key.data
                while True:
                    try:
                        item = mailbox.recv(timeout=0)
                    except (EOFError, OSError):
                        # Workers hold their socket open until Stop, which
                        # is only sent after routing ends: an EOF or a reset
                        # here is a dead worker, not a finished one.
                        raise SimulationError(
                            f"the worker process of agent {agent_id} "
                            "closed its connection mid-run (it died)"
                        ) from None
                    if item is None:
                        break
                    progressed = True
                    _handle(item, mailboxes, state)
            if progressed:
                idle_since = None
                solved = len(state.reported) == len(mailboxes) and (
                    detector.is_solution(state.assignment)
                )
                unsolvable = any(
                    report.failed for report in state.reported.values()
                )
                capped = any(
                    report.activations >= max_activations
                    for report in state.reported.values()
                )
            elif (
                state.in_flight == 0
                and len(state.reported) == len(mailboxes)
            ):
                if idle_since is None:
                    idle_since = time.perf_counter()
                elif time.perf_counter() - idle_since >= _QUIESCENCE_GRACE:
                    quiescent = True
    finally:
        selector.close()
    reports = state.reported.values()
    return RunResult(
        solved=solved,
        unsolvable=unsolvable and not solved,
        capped=capped and not solved and not unsolvable,
        quiescent=quiescent,
        cycles=max((r.activations for r in reports), default=0),
        maxcck=max((r.clock for r in reports), default=0),
        total_checks=sum(r.checks for r in reports),
        messages_sent=state.forwarded,
        generated_nogoods=sum(r.generated for r in reports),
        redundant_generations=0,
        assignment=dict(state.assignment),
        logical_time=max((r.clock for r in reports), default=0),
    )


def _handle(
    item: object,
    mailboxes: Dict[AgentId, SocketMailbox],
    state: _RouterState,
) -> None:
    if isinstance(item, Envelope):
        target = mailboxes.get(item.recipient)
        if target is None:
            raise SimulationError(
                f"agent {item.sender} sent a message to unknown agent "
                f"{item.recipient}"
            )
        state.in_flight += 1
        state.forwarded += 1
        try:
            target.send(item)
        except OSError as error:
            raise SimulationError(
                f"cannot forward to agent {item.recipient}: its worker "
                f"process is gone ({error})"
            ) from error
    elif isinstance(item, Report):
        state.in_flight -= item.consumed
        state.reported[item.agent_id] = item
        state.assignment.update(dict(item.assignment))
    else:  # pragma: no cover - defensive
        raise SimulationError(f"unexpected frame from agent: {item!r}")
