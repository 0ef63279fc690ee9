"""The repro-lint command line: ``python -m repro.lint`` / ``repro lint``.

Exit status: 0 when the tree is clean (after suppressions and baseline),
1 when any finding remains, 2 on usage errors. CI gates on this — the
contract is identical across every ``--format`` (text, json, sarif) and
for ``--check-trace``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .engine import (
    BASELINE_FILENAME,
    DEFAULT_EXCLUDES,
    baseline_key,
    format_baseline,
    lint_paths,
    load_baseline,
)
from .catalogue import ALL_RULES
from .explain import EXPLANATIONS, explain_rule
from .output import to_json, to_sarif_text
from .trace_check import check_trace_file


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Whole-program invariant checker: agent/transport separation "
            "(A1) and metric accounting (M1), plus trace cross-validation "
            "(--check-trace). See CONTRIBUTING.md for the rule catalogue, "
            "or --explain RULE for one entry with examples."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/"],
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "baseline file of deferred findings (default: "
            f"{BASELINE_FILENAME} if it exists)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="GLOB",
        help=(
            "glob of paths to skip (repeatable; default: "
            f"{', '.join(DEFAULT_EXCLUDES)})"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the formatted findings to FILE instead of stdout",
    )
    parser.add_argument(
        "--no-hints", action="store_true", help="omit fix hints"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help=(
            "print the catalogue entry for one rule id (rationale plus a "
            "minimal bad/good example) and exit"
        ),
    )
    parser.add_argument(
        "--check-baseline-shrink",
        action="store_true",
        help=(
            "fail (exit 1) if the current tree would require NEW baseline "
            "entries — the committed baseline may only shrink; stale "
            "entries are reported as removable"
        ),
    )
    parser.add_argument(
        "--check-trace",
        default=None,
        metavar="JSONL",
        help=(
            "validate a TraceRecorder JSONL file (clock monotonicity, "
            "value chaining, summary totals) instead of linting source "
            "paths"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.check_trace is not None:
        violations = check_trace_file(args.check_trace)
        for violation in violations:
            print(f"{args.check_trace}: {violation}")
        if violations:
            print(
                f"\nrepro-lint: trace violates {len(violations)} runtime "
                "invariant(s)."
            )
        else:
            print("repro-lint: trace upholds every recorded invariant.")
        return 1 if violations else 0
    if args.list_rules:
        for rule in ALL_RULES:
            doc = (rule.__doc__ or "").strip().splitlines()[0]
            print(f"{rule.id}  {rule.title}: {doc}")
        print(
            "X0  control comments: a disable= without justification is "
            "itself a finding."
        )
        return 0
    if args.explain is not None:
        text = explain_rule(args.explain)
        if text is None:
            known = ", ".join(sorted(EXPLANATIONS))
            print(
                f"repro-lint: unknown rule {args.explain!r} "
                f"(known: {known})",
                file=sys.stderr,
            )
            return 2
        print(text)
        return 0

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(BASELINE_FILENAME):
        baseline_path = BASELINE_FILENAME
    baseline = load_baseline(baseline_path) if baseline_path else set()

    excludes = args.exclude if args.exclude else list(DEFAULT_EXCLUDES)

    if args.write_baseline:
        findings = lint_paths(args.paths, baseline=None, excludes=excludes)
        target = baseline_path or BASELINE_FILENAME
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(format_baseline(findings))
        print(
            f"wrote {len(findings)} finding(s) to {target}; they will be "
            "ignored until removed from the baseline"
        )
        return 0

    if args.check_baseline_shrink:
        findings = lint_paths(args.paths, baseline=None, excludes=excludes)
        current = {baseline_key(finding) for finding in findings}
        new = sorted(current - baseline)
        stale = sorted(baseline - current)
        for entry in new:
            print(f"NEW    {entry}")
        for entry in stale:
            print(f"STALE  {entry}")
        if new:
            print(
                f"\nrepro-lint: {len(new)} finding(s) missing from the "
                "baseline. The baseline only shrinks — fix the code or "
                "add a justified '# repro-lint: disable=' comment."
            )
            return 1
        if stale:
            print(
                f"\nrepro-lint: baseline holds, {len(stale)} stale "
                "entr(y/ies) can be removed."
            )
        else:
            print("repro-lint: baseline holds (no growth).")
        return 0

    findings = lint_paths(args.paths, baseline=baseline, excludes=excludes)

    if args.format == "json":
        _emit(to_json(findings), args.output)
    elif args.format == "sarif":
        _emit(to_sarif_text(findings), args.output)
    else:
        lines = [
            finding.format(show_hint=not args.no_hints)
            for finding in findings
        ]
        if findings:
            lines.append(
                f"\nrepro-lint: {len(findings)} finding(s). Each one either "
                "gets fixed, a justified '# repro-lint: disable=' comment, "
                "or a baseline entry."
            )
        else:
            lines.append("repro-lint: clean.")
        _emit("\n".join(lines), args.output)
    return 1 if findings else 0


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        print(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


if __name__ == "__main__":
    sys.exit(main())
