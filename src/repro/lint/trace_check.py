"""Cross-validation of recorded traces: ``repro lint --check-trace``.

The static rules (P2/A1) argue the runtime *should* be deterministic
and causally ordered; this module checks the claim against runtime
evidence. It replays a :class:`~repro.runtime.trace.TraceRecorder` JSONL
file and asserts the invariants the event-driven runtime promises:

* **Clock monotonicity** — the logical timestamps of the merged event log
  never decrease (the Lamport-style property: the recorder emits events in
  cycle order, and the engine only moves time forward).
* **Send-sequence monotonicity** — the transport's send counter, when the
  backend stamps it onto message records, strictly increases.
* **Causal delivery** — every delivery names a recorded send (same
  sequence, same channel) and arrives strictly *after* it (latency models
  must return delays ≥ 1).
* **FIFO clamp** — per ``(sender, recipient)`` channel, deliveries occur
  in send order with non-decreasing arrival times. The in-process
  transport enforces this with an arrival clamp when ``fifo=True``;
  traces recorded with ``fifo=False`` are validated with
  ``--no-fifo-check``.
* **Value-change chaining** — per variable, each change's ``old_value``
  equals the previous change's ``new_value``.
* **Summary conservation** — the trailing summary record's counts match
  the records actually present (when nothing was dropped).

A violation is a plain sentence with a 1-based line number, suitable for
printing next to lint findings; an empty list means the trace upholds
every invariant it carries evidence for (a synchronous-simulator trace has
no deliveries or sequences, so those checks are vacuous there).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

#: Record types the validator understands.
KNOWN_EVENTS = ("message", "delivery", "value_change", "summary")


def check_trace_file(path: str, fifo: bool = True) -> List[str]:
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
    return check_trace_records(records, fifo=fifo)


def check_trace_records(
    records: List[Tuple[int, Dict[str, Any]]], fifo: bool = True
) -> List[str]:
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
    violations.extend(_check_sequences(body))
    violations.extend(_check_deliveries(body, records))
    if fifo:
        violations.extend(_check_fifo(body))
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


def _check_sequences(body: List[Tuple[int, Dict[str, Any]]]) -> List[str]:
    out: List[str] = []
    previous: Optional[int] = None
    previous_line = 0
    for number, record in body:
        if record["event"] != "message" or "sequence" not in record:
            continue
        sequence = record["sequence"]
        if not isinstance(sequence, int) or sequence < 0:
            out.append(
                f"line {number}: message sequence is not a non-negative "
                f"integer (got {sequence!r})"
            )
            continue
        if previous is not None and sequence <= previous:
            out.append(
                f"line {number}: send sequence {sequence} does not "
                f"increase past {previous} (line {previous_line}) — the "
                "transport's send counter is monotone"
            )
        previous = sequence
        previous_line = number
    return out


def _check_deliveries(
    body: List[Tuple[int, Dict[str, Any]]],
    records: List[Tuple[int, Dict[str, Any]]],
) -> List[str]:
    out: List[str] = []
    dropped = _summary_of(records).get("dropped", 0)
    sends: Dict[int, Tuple[int, Dict[str, Any]]] = {}
    for number, record in body:
        if record["event"] == "message" and isinstance(
            record.get("sequence"), int
        ):
            sends[record["sequence"]] = (number, record)
    for number, record in body:
        if record["event"] != "delivery":
            continue
        sequence = record.get("sequence")
        if not isinstance(sequence, int):
            out.append(
                f"line {number}: delivery has no integer sequence "
                f"(got {sequence!r})"
            )
            continue
        send = sends.get(sequence)
        if send is None:
            if not dropped:
                out.append(
                    f"line {number}: delivery of sequence {sequence} has "
                    "no matching message record — nothing was dropped, so "
                    "every delivery must complete a recorded send"
                )
            continue
        send_line, send_record = send
        for role in ("sender", "recipient"):
            if record.get(role) != send_record.get(role):
                out.append(
                    f"line {number}: delivery of sequence {sequence} "
                    f"names {role} {record.get(role)!r} but the send "
                    f"(line {send_line}) names {send_record.get(role)!r}"
                )
        if record.get("cycle", 0) <= send_record.get("cycle", 0):
            out.append(
                f"line {number}: delivery of sequence {sequence} at cycle "
                f"{record.get('cycle')} does not happen strictly after its "
                f"send at cycle {send_record.get('cycle')} (line "
                f"{send_line}) — latency must be at least 1"
            )
    return out


def _check_fifo(body: List[Tuple[int, Dict[str, Any]]]) -> List[str]:
    """Per channel, deliveries must occur in send order (no overtaking)
    with non-decreasing arrival cycles — the FIFO clamp's guarantee."""
    out: List[str] = []
    last_by_channel: Dict[Tuple[Any, Any], Tuple[int, int, int]] = {}
    for number, record in body:
        if record["event"] != "delivery":
            continue
        sequence = record.get("sequence")
        cycle = record.get("cycle")
        if not isinstance(sequence, int) or not isinstance(cycle, int):
            continue  # reported by the structural checks
        channel = (record.get("sender"), record.get("recipient"))
        previous = last_by_channel.get(channel)
        if previous is not None:
            previous_line, previous_sequence, previous_cycle = previous
            if sequence < previous_sequence:
                out.append(
                    f"line {number}: FIFO violation on channel "
                    f"{channel[0]} -> {channel[1]} — sequence {sequence} "
                    f"delivered after sequence {previous_sequence} (line "
                    f"{previous_line}); same-channel messages must not "
                    "overtake (run with --no-fifo-check for fifo=False "
                    "traces)"
                )
            if cycle < previous_cycle:
                out.append(
                    f"line {number}: FIFO clamp violation on channel "
                    f"{channel[0]} -> {channel[1]} — arrival cycle "
                    f"{cycle} precedes the previous arrival at cycle "
                    f"{previous_cycle} (line {previous_line})"
                )
        last_by_channel[channel] = (number, sequence, cycle)
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
    counts = {"message": 0, "delivery": 0, "value_change": 0}
    for _number, record in records:
        if record["event"] in counts:
            counts[record["event"]] += 1
    expectations = [
        ("messages", counts["message"]),
        ("value_changes", counts["value_change"]),
    ]
    if "deliveries" in summary:
        expectations.append(("deliveries", counts["delivery"]))
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
