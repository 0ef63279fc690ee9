"""Cross-validation of recorded traces.

Replays a :class:`~repro.runtime.trace.TraceRecorder` JSONL file and
asserts the invariants the simulator promises:

* **Clock monotonicity** — the cycle stamps of the merged event log never
  decrease (the recorder emits events in cycle order, and the simulator
  only moves time forward).
* **Value-change chaining** — per variable, each change's ``old_value``
  equals the previous change's ``new_value``.
* **Summary conservation** — the trailing summary record's counts match
  the records actually present (when nothing was dropped).

A violation is a plain sentence with a 1-based line number; an empty list
means the trace upholds every invariant.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

#: Record types the validator understands.
KNOWN_EVENTS = ("message", "value_change", "summary")


def check_trace_file(path: str) -> List[str]:
    """Validate the trace at *path*; returns violations (empty = valid)."""
    records: List[Tuple[int, Dict[str, Any]]] = []
    violations: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as error:
                    violations.append(
                        f"line {number}: not valid JSON ({error.msg})"
                    )
                    continue
                if not isinstance(payload, dict):
                    violations.append(
                        f"line {number}: record is not a JSON object"
                    )
                    continue
                records.append((number, payload))
    except OSError as error:
        return [f"cannot read trace: {error}"]
    if violations:
        return violations
    return check_trace_records(records)


def check_trace_records(records: List[Tuple[int, Dict[str, Any]]]) -> List[str]:
    """Validate parsed ``(line number, record)`` pairs."""
    violations: List[str] = []
    if not records:
        return ["trace is empty — a recorded run always has a summary"]

    for number, record in records:
        event = record.get("event")
        if event not in KNOWN_EVENTS:
            violations.append(
                f"line {number}: unknown event type {event!r} "
                f"(expected one of {', '.join(KNOWN_EVENTS)})"
            )
    if violations:
        return violations

    violations.extend(_check_summary_placement(records))
    body = [
        (number, record)
        for number, record in records
        if record["event"] != "summary"
    ]
    violations.extend(_check_clock_monotone(body))
    violations.extend(_check_value_chains(body))
    violations.extend(_check_summary_counts(records))
    return violations


def _check_summary_placement(
    records: List[Tuple[int, Dict[str, Any]]]
) -> List[str]:
    summaries = [
        (number, record)
        for number, record in records
        if record["event"] == "summary"
    ]
    if not summaries:
        return ["trace has no summary record — it was truncated mid-write"]
    out: List[str] = []
    if len(summaries) > 1:
        extra = ", ".join(str(number) for number, _ in summaries[:-1])
        out.append(
            f"trace has {len(summaries)} summary records (lines {extra} "
            "are not last) — summaries terminate a trace"
        )
    last_number, last_record = records[-1]
    if last_record["event"] != "summary":
        out.append(
            f"line {last_number}: last record is "
            f"'{last_record['event']}', not the summary — the trace "
            "continued past its totals"
        )
    return out


def _check_clock_monotone(
    body: List[Tuple[int, Dict[str, Any]]]
) -> List[str]:
    out: List[str] = []
    previous: Optional[int] = None
    previous_line = 0
    for number, record in body:
        cycle = record.get("cycle")
        if not isinstance(cycle, int) or cycle < 0:
            out.append(
                f"line {number}: '{record['event']}' has no valid "
                f"non-negative integer cycle (got {cycle!r})"
            )
            continue
        if previous is not None and cycle < previous:
            out.append(
                f"line {number}: clock went backwards — cycle {cycle} "
                f"after cycle {previous} (line {previous_line}); the "
                "recorder emits events in logical-time order"
            )
        previous = cycle
        previous_line = number
    return out


def _check_value_chains(
    body: List[Tuple[int, Dict[str, Any]]]
) -> List[str]:
    out: List[str] = []
    last_value: Dict[Any, Tuple[int, Any]] = {}
    for number, record in body:
        if record["event"] != "value_change":
            continue
        variable = record.get("variable")
        previous = last_value.get(variable)
        if previous is not None:
            previous_line, previous_new = previous
            if record.get("old_value") != previous_new:
                out.append(
                    f"line {number}: value chain broken for variable "
                    f"{variable} — old_value {record.get('old_value')!r} "
                    f"does not match the previous new_value "
                    f"{previous_new!r} (line {previous_line})"
                )
        last_value[variable] = (number, record.get("new_value"))
    return out


def _check_summary_counts(
    records: List[Tuple[int, Dict[str, Any]]]
) -> List[str]:
    summary = _summary_of(records)
    if not summary or summary.get("dropped", 0):
        return []  # dropped events legitimately break conservation
    out: List[str] = []
    counts = {"message": 0, "value_change": 0}
    for _number, record in records:
        if record["event"] in counts:
            counts[record["event"]] += 1
    expectations = [
        ("messages", counts["message"]),
        ("value_changes", counts["value_change"]),
    ]
    for key, actual in expectations:
        claimed = summary.get(key)
        if claimed != actual:
            out.append(
                f"summary claims {key}={claimed!r} but the trace holds "
                f"{actual} such record(s) — counts must conserve when "
                "nothing was dropped"
            )
    return out


def _summary_of(
    records: List[Tuple[int, Dict[str, Any]]]
) -> Dict[str, Any]:
    for _number, record in reversed(records):
        if record["event"] == "summary":
            return record
    return {}
