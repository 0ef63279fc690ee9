"""``repro verify`` — the interleaving verifier's command line.

Two modes:

* default (no ``--explore``) — print the statically derived handler-effect
  footprints and commutativity matrix for the repo's agent classes: the
  quick way to see what the explorer will and won't prune.
* ``--explore`` — run the DPOR schedule explorer over the pinned corpus
  (or a ``--only`` subset), print the per-entry exploration report, and
  exit 1 if any invariant was violated on any explored interleaving.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..core.exceptions import ReproError
from .corpus import corpus_by_name
from .explorer import DEFAULT_BUDGET, ExplorationReport, explore_corpus


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description=(
            "Interleaving verifier: static handler commutativity and "
            "DPOR schedule exploration of the simulator."
        ),
    )
    parser.add_argument(
        "--explore",
        action="store_true",
        help="run the schedule explorer over the pinned corpus",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="ENTRY",
        help="restrict to this corpus entry (repeatable)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="max schedules the pruned search runs per entry",
    )
    parser.add_argument(
        "--naive-budget",
        type=int,
        default=None,
        help=(
            "max schedules the naive (unpruned) count runs per entry "
            "(default: 15x the pruned count)"
        ),
    )
    parser.add_argument(
        "--no-prune",
        action="store_true",
        help="disable commutativity pruning (the naive baseline, run live)",
    )
    parser.add_argument(
        "--no-naive",
        action="store_true",
        help="skip the naive count (invariants only; much faster)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    parser.add_argument(
        "--output", default=None, help="also write the JSON report here"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.explore:
        return _print_matrix()
    try:
        entries = corpus_by_name(args.only)
    except ReproError as error:
        print(f"FATAL: {error}", file=sys.stderr)
        return 2
    report = explore_corpus(
        entries,
        budget=args.budget,
        naive_budget=args.naive_budget,
        prune=not args.no_prune,
        count_naive=not args.no_naive,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        json.dump(report.as_dict(), sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        _print_text(report)
    return 1 if report.violations else 0


def _print_matrix() -> int:
    from .effects import format_matrix, handler_effects
    from .graph import ProjectGraph
    from .explorer import _repo_source_paths

    graph = ProjectGraph.build(_repo_source_paths())
    print(format_matrix(handler_effects(graph)))
    return 0


def _print_text(report: ExplorationReport) -> None:
    for entry in report.entries:
        ratio = _ratio_text(entry.prune_ratio)
        if entry.naive_capped:
            ratio = f">={ratio}"
        outcomes = ", ".join(
            f"{label}={count}"
            for label, count in sorted(entry.outcomes.items())
        )
        flags = " (capped)" if entry.explored_capped else ""
        print(
            f"{entry.name:>16}  {entry.algorithm:<16} "
            f"schedules={entry.explored}{flags} prune={ratio} "
            f"branch_points={entry.branch_points} [{outcomes}] "
            f"{entry.seconds:.1f}s"
        )
        for violation in entry.violations:
            print(f"                  VIOLATION: {violation}")
    print(
        f"total: {report.explored} schedules explored "
        f"({report.total_runs} runs incl. naive count), "
        f"prune ratio {_ratio_text(report.prune_ratio)}, "
        f"{report.schedules_per_second:.0f} schedules/sec, "
        f"{len(report.violations)} violation(s)"
    )


def _ratio_text(ratio: Optional[float]) -> str:
    """``12.3x``, or ``n/a`` when no naive count ran."""
    return "n/a" if ratio is None else f"{ratio:.1f}x"


if __name__ == "__main__":
    sys.exit(main())
