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
    "P2": Explanation(
        rationale=(
            "A payload mutated after send changes what the receiver "
            "observes retroactively: transports queue the object itself. "
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
            "agent can no longer run on every network model. "
            "Agents return outgoing (recipient, message) pairs; the "
            "network decides how they travel."
        ),
        bad="self.transport.deliver(peer, message)",
        good="outgoing.append((peer, message))",
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
            "AgentView.update and forget bump priority_version whenever "
            "a priority changes, and the store rebuilds its set of "
            "variables outranking the owner on that counter. Writing the "
            "view's dicts directly skips the bump, so the store keeps "
            "classifying nogoods by a stale set."
        ),
        bad="self.view._values[sender] = value",
        good="self.view.update(sender, value, priority)",
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
    "S2": Explanation(
        rationale=(
            "A blocking call (sleep, file or socket I/O, input) inside "
            "message-handler dispatch stalls the simulator loop: the "
            "cycle cannot close until every handler returns, and no "
            "count shows it, only wall time. Handlers compute and "
            "return outgoing messages; I/O belongs to the harness."
        ),
        bad="def step(self, msgs):\n    time.sleep(0.01)  # throttle",
        good="def step(self, msgs):\n    return outgoing  # harness paces",
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
        bad="ok = nogood.prohibits(view)  # repro-lint: disable=M1",
        good=(
            "ok = nogood.prohibits(view)  "
            "# repro-lint: disable=M1 -- oracle check, never in a trial"
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
