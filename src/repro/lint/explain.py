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
    "X0": Explanation(
        rationale=(
            "A '# repro-lint: disable=RULE' without a ' -- reason' "
            "justification is an unreviewable suppression. The reason is "
            "the review artifact: it must say why the invariant does not "
            "apply here. X0 itself cannot be disabled."
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
            "X0 — a disable= comment without justification is itself a "
            "finding."
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
