"""Per-rule explanations for ``repro lint --explain RULE``.

Each entry pairs the catalogue rule with a rationale (why the invariant
matters for the reproduction) and a minimal bad/good example. The
examples are deliberately tiny — the point is the *shape* of the
violation and its idiomatic fix, not a realistic excerpt. CONTRIBUTING.md
carries the long-form catalogue; this module is the terminal-sized view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .catalogue import ALL_RULES


@dataclass(frozen=True)
class Explanation:
    rationale: str
    bad: str
    good: str


EXPLANATIONS: Dict[str, Explanation] = {
    "D1": Explanation(
        rationale=(
            "Process-global random.* calls draw from interpreter-wide "
            "state, so trial results depend on import order and on every "
            "other component that touched the global RNG. Each agent and "
            "each trial must own a seeded random.Random so runs replay "
            "bit-identically."
        ),
        bad="value = random.choice(self.domain.values)",
        good="value = self.rng.choice(self.domain.values)",
    ),
    "D2": Explanation(
        rationale=(
            "Wall-clock reads (time.time, datetime.now, perf counters) "
            "inside the simulated world leak host timing into results, "
            "breaking replay determinism. Simulated time is the cycle "
            "counter; host time belongs only to the harness."
        ),
        bad="started = time.time()",
        good="started_cycle = self.network.cycle",
    ),
    "D3": Explanation(
        rationale=(
            "Set iteration order varies with insertion history and hash "
            "randomization. Iterating a set to pick values or recipients "
            "makes the search trajectory depend on PYTHONHASHSEED."
        ),
        bad="for neighbor in self.neighbors: send(neighbor, msg)",
        good="for neighbor in sorted(self.neighbors): send(neighbor, msg)",
    ),
    "D4": Explanation(
        rationale=(
            "Every random.Random must be seeded from a value traceable to "
            "an explicit parameter (master seed, trial seed). An RNG built "
            "from a literal or from nothing silently re-uses one stream "
            "across trials and hides the seed from the experiment record."
        ),
        bad="self.rng = random.Random()",
        good="self.rng = random.Random(seed)",
    ),
    "P1": Explanation(
        rationale=(
            "Agents only interact through messages; a handler that "
            "mutates a received message reaches into another agent's "
            "state, which a real distributed system cannot do. Messages "
            "are frozen dataclasses — build a new one instead."
        ),
        bad="message.view[sender] = value",
        good="updated = replace(message, view=new_view)",
    ),
    "P2": Explanation(
        rationale=(
            "A payload mutated after send changes what the receiver "
            "observes retroactively — impossible over a real wire. "
            "Everything reachable from a sent message must be immutable "
            "from the send onward."
        ),
        bad="send(peer, OkMessage(self.agent_view)); self.agent_view[k] = v",
        good="send(peer, OkMessage(dict(self.agent_view)))",
    ),
    "A1": Explanation(
        rationale=(
            "Agent code that imports or references the transport layer "
            "couples the algorithm to the delivery model, so the same "
            "agent can no longer run under sync/async/dpor backends. "
            "Agents return outgoing (recipient, message) pairs; the "
            "network decides how they travel."
        ),
        bad="self.transport.deliver(peer, message)",
        good="outgoing.append((peer, message))",
    ),
    "A2": Explanation(
        rationale=(
            "Event-queue keys that tie (or that compare unlike types) "
            "make heap pop order depend on insertion order. Keys must be "
            "totally ordered and carry the agent id as the final "
            "tie-break so every backend pops identically."
        ),
        bad="heappush(queue, (deliver_at, message))",
        good="heappush(queue, (deliver_at, seq, agent_id, message))",
    ),
    "M1": Explanation(
        rationale=(
            "The paper's headline measure is constraint checks. A "
            "consistency test that bypasses the counted API "
            "(is_violated, counted store queries) silently deflates "
            "reported check counts and breaks cross-run comparability."
        ),
        bad="if all(view.get(v) != val for v, val in nogood.pairs): ...",
        good="if self.store.is_violated(nogood, view): ...",
    ),
    "R1": Explanation(
        rationale=(
            "Neighbor state carries a monotonic counter so stale "
            "messages cannot roll the view backwards. Writing the view "
            "dict directly bypasses the staleness guard."
        ),
        bad="self.view._values[sender] = value",
        good="self.view.update(sender, value, counter)",
    ),
    "R2": Explanation(
        rationale=(
            "Handlers that commit decisions (value changes, nogood "
            "sends) must produce the same outcome under any legal "
            "message reordering, or the DPOR explorer reports schedule-"
            "dependent results. Read all pending input before deciding."
        ),
        bad="def on_ok(self, msg): self.pick_value()  # per-message commit",
        good="def step(self, batch): ...; self.pick_value()  # once per cycle",
    ),
    "R3": Explanation(
        rationale=(
            "Methods named like consultations (violated_*, count_*, "
            "is_*) are called from paths that assume the store is "
            "unchanged afterwards; a mutation hidden inside one "
            "invalidates the store's caches and replay parity."
        ),
        bad="def violated_higher(self, ...): self._cache.clear(); ...",
        good="def violated_higher(self, ...): ...  # read-only; mutate in add()",
    ),
    "H1": Explanation(
        rationale=(
            "A container allocated inside a hot per-message loop and "
            "dropped every iteration is pure allocator churn: the bytes "
            "are garbage before the next message arrives. Hoist the "
            "buffer to __init__ and clear() it, or restructure so no "
            "temporary is needed (e.g. a counted store query instead of "
            "building a list just to len() it)."
        ),
        bad=(
            "for message in messages:\n"
            "    conflicts = [n for n in self.store if violated(n)]\n"
            "    if conflicts: ..."
        ),
        good=(
            "if self.store.count_violated_higher(view, value, prio): ...\n"
            "# or: buf = self._scratch; buf.clear(); buf.extend(...)"
        ),
    ),
    "H2": Explanation(
        rationale=(
            "A container whose shape never changes — a literal display "
            "or a copy of a constant attribute — rebuilt on every "
            "dispatch allocates identical garbage per message. Build it "
            "once (module level or __init__) and reuse it."
        ),
        bad="def step(self, msgs):\n    values = list(self.domain)",
        good="def __init__(self):\n    self._values = list(self.domain)",
    ),
    "H3": Explanation(
        rationale=(
            "sorted() of maintained instance state on every dispatch "
            "re-copies and re-sorts data that changed at most once since "
            "the last call. Maintain the sorted form at mutation time, "
            "or cache it behind a dirty flag."
        ),
        bad="def step(self, msgs):\n    for peer in sorted(self.neighbors): ...",
        good=(
            "def add_neighbor(self, peer):\n"
            "    insort(self._sorted_neighbors, peer)"
        ),
    ),
    "H4": Explanation(
        rationale=(
            "A lambda or def inside hot dispatch allocates a fresh "
            "function object (and often a cell for its closure) per "
            "call. Hoist it to module level, or use operator.itemgetter/"
            "attrgetter which allocate nothing per call."
        ),
        bad="ranked = sorted(pairs, key=lambda p: p[1])",
        good=(
            "_BY_SCORE = itemgetter(1)  # module level\n"
            "ranked = sorted(pairs, key=_BY_SCORE)"
        ),
    ),
    "S1": Explanation(
        rationale=(
            "Everything that crosses a process boundary — message "
            "payloads, pool tasks, worker init arguments — must pickle. "
            "Lambdas, closures over locals, open file/socket handles and "
            "live RNG objects do not (or, for RNGs, ship state that then "
            "diverges), so they fail only at shard time, on a remote "
            "host. Ship plain data and registry names; rebuild behaviour "
            "on the receiving side."
        ),
        bad="pool.submit(lambda: solve(problem, rng))",
        good=(
            "pool.submit(solve_by_name, problem, algorithm_name, seed)\n"
            "# worker rebuilds the spec and derives its own RNG stream"
        ),
    ),
    "S2": Explanation(
        rationale=(
            "A blocking call (sleep, file or socket I/O, input) inside "
            "message-handler dispatch stalls the whole shard: one worker "
            "thread hosts many agents, and the simulated cycle cannot "
            "close until every handler returns. Handlers compute and "
            "return outgoing messages; I/O belongs to the harness."
        ),
        bad="def step(self, msgs):\n    time.sleep(0.01)  # throttle",
        good="def step(self, msgs):\n    return outgoing  # harness paces",
    ),
    "S3": Explanation(
        rationale=(
            "A mutable object aliased by two agents (a shared collector, "
            "list or dict that agent code mutates) only works because "
            "the agents happen to share a process; on the sharded "
            "runtime each process has its own copy and the writes "
            "silently diverge. Give each agent private state and merge "
            "at a harness-owned boundary."
        ),
        bad=(
            "for aid in problem.agents:\n"
            "    agents.append(Agent(aid, shared_metrics))  "
            "# agents mutate it"
        ),
        good=(
            "log = metrics.generation_log_for(aid)  # private per agent\n"
            "# collector merges logs at cycle boundaries"
        ),
    ),
    "S4": Explanation(
        rationale=(
            "id() values and unseeded hash() of str/bytes differ across "
            "processes and hosts (address layout, PYTHONHASHSEED), so a "
            "heap key, sort key or tie-break built from them makes "
            "shards disagree on ordering — and the run unreproducible. "
            "Order by stable domain keys: agent id, sequence number, "
            "cycle."
        ),
        bad="heappush(queue, (priority, id(message), message))",
        good="heappush(queue, (priority, seq, agent_id, message))",
    ),
    "S5": Explanation(
        rationale=(
            "An emitted message type with no handler is silently dropped "
            "at the receiver — on one host that shows up in a trace, "
            "across hosts it is just a hang (the APO completeness "
            "analyses show such protocol holes are fatal). A handler for "
            "a never-sent type is dead protocol surface that drifts out "
            "of date. Emit and dispatch sets must match exactly."
        ),
        bad=(
            "send(peer, ProbeMessage(...))  "
            "# no isinstance(ProbeMessage) anywhere"
        ),
        good=(
            "elif isinstance(message, ProbeMessage):\n"
            "    outgoing.extend(self._on_probe(message))"
        ),
    ),
    "X0": Explanation(
        rationale=(
            "A '# repro-lint: disable=RULE' without a ' -- reason' "
            "justification is an unreviewable suppression. The reason is "
            "the review artifact: it must say why the invariant does not "
            "apply here. Likewise a hotpaths.toml item that names no "
            "module or function would silently drop code from the H-rule "
            "hot set. X0 itself cannot be disabled."
        ),
        bad="x = random.random()  # repro-lint: disable=D1",
        good=(
            "x = random.random()  "
            "# repro-lint: disable=D1 -- harness-only jitter, not simulated"
        ),
    ),
}


def explain_rule(rule_id: str) -> Optional[str]:
    """Render the explanation block for *rule_id*, or None if unknown."""
    explanation = EXPLANATIONS.get(rule_id)
    if explanation is None:
        return None
    if rule_id == "X0":
        title = "control comments"
        doc = (
            "X0 — a disable= comment without justification, or a "
            "hotpaths.toml item that names nothing, is itself a finding."
        )
    else:
        rule = next(rule for rule in ALL_RULES if rule.id == rule_id)
        title = rule.title
        doc = (rule.__doc__ or "").strip().splitlines()[0]
    lines = [
        f"{rule_id}  {title}",
        f"  {doc}",
        "",
        "Why:",
    ]
    lines.extend(f"  {line}" for line in _wrap(explanation.rationale))
    lines.append("")
    lines.append("Bad:")
    lines.extend(f"  {line}" for line in explanation.bad.splitlines())
    lines.append("")
    lines.append("Good:")
    lines.extend(f"  {line}" for line in explanation.good.splitlines())
    return "\n".join(lines)


def _wrap(text: str, width: int = 70) -> list:
    words = text.split()
    lines, current = [], ""
    for word in words:
        if current and len(current) + 1 + len(word) > width:
            lines.append(current)
            current = word
        else:
            current = f"{current} {word}" if current else word
    if current:
        lines.append(current)
    return lines


__all__ = ["EXPLANATIONS", "Explanation", "explain_rule"]
