"""Smoke benchmark for the interleaving verifier: ``repro bench``.

Runs the interleaving verifier (:mod:`repro.verify`) on its pinned corpus
and reports schedule-exploration throughput, the DPOR prune ratio, and
zero invariant violations. Writes ``BENCH_verify.json``; ``--gate`` fails
the run if schedules/sec regressed more than 20% against a committed
baseline report.

Usage::

    PYTHONPATH=src python -m repro.cli bench
        [--output PATH] [--gate [BASELINE]]

The workload is deliberately small (seconds) so CI can afford it; every
report records the machine it ran on.

This module lives under ``experiments/`` (not ``runtime/`` or
``algorithms/``) deliberately: benchmarking needs wall clocks, which the
simulation layers do not read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path
from typing import List, Optional

#: Maximum tolerated metric regression for ``--gate`` (fraction).
GATE_TOLERANCE = 0.20


def _repo_root() -> Path:
    """The repository root (this file lives at src/repro/experiments/)."""
    return Path(__file__).resolve().parents[3]


def run_verify_bench(output: str, gate: Optional[str]) -> int:
    """The interleaving verifier as a benchmark.

    Explores the pinned corpus (pruned DFS + capped naive count) and
    reports schedule throughput and the prune ratio. Two properties are
    load-bearing and asserted here rather than merely reported: zero
    invariant violations, and at least a 10x prune ratio (the static
    commutativity matrix must keep paying for itself as the corpus and
    the agent code evolve).
    """
    from ..verify.explorer import explore_corpus

    # Read the baseline first: by default the new report overwrites it.
    baseline = None
    if gate is not None:
        baseline = read_baseline(gate)
        if baseline is None:
            return 1
    report_data = explore_corpus()
    prune_ratio = report_data.prune_ratio
    assert prune_ratio is not None  # explore_corpus counts naive by default
    schedules_per_second = report_data.schedules_per_second
    report = {
        "benchmark": "verify_smoke",
        "python": platform.python_version(),
        "cores": os.cpu_count() or 1,
        "verify": {
            "schedules_per_second": round(schedules_per_second, 1),
            "prune_ratio": round(prune_ratio, 2),
            "explored": report_data.explored,
            "naive": report_data.naive,
            "total_runs": report_data.total_runs,
            "violations": report_data.violations,
            "entries": [entry.as_dict() for entry in report_data.entries],
        },
        "note": (
            "DPOR exploration of the pinned n<=8 corpus: 'explored' counts "
            "schedules the pruned search ran, 'naive' the unpruned "
            "enumeration (capped at 15x explored, so a capped prune_ratio "
            "is a lower bound); schedules_per_second counts every "
            "simulation run, including the naive walk"
        ),
    }
    Path(output).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"verify: {report_data.explored} schedules explored "
        f"({report_data.total_runs} runs), prune ratio "
        f"{prune_ratio:.1f}x, "
        f"{schedules_per_second:,.0f} schedules/s"
    )
    print(f"wrote {output}")
    if report_data.violations:
        for violation in report_data.violations:
            print(f"FATAL: invariant violation: {violation}")
        return 1
    if prune_ratio < 10.0:
        print(
            f"FATAL: prune ratio {prune_ratio:.1f}x fell "
            "below the 10x bar — the commutativity matrix is no longer "
            "pruning effectively"
        )
        return 1
    if baseline is not None:
        return _apply_floor(gate, baseline, schedules_per_second)
    return 0


def read_baseline(baseline_path: str) -> Optional[float]:
    """The baseline report's schedules/sec, or None if it cannot be read.

    A gate was explicitly requested, so a baseline that cannot be read is
    an error, never a silent skip — one FATAL line, no traceback.
    """
    path = Path(baseline_path)
    if not path.exists():
        print(f"FATAL: gate baseline {baseline_path} does not exist")
        return None
    try:
        baseline = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        print(f"FATAL: gate baseline {baseline_path} is unreadable: {error}")
        return None
    try:
        return float(baseline["verify"]["schedules_per_second"])
    except (KeyError, TypeError, ValueError):
        print(
            f"FATAL: gate baseline {baseline_path} has no "
            "verify.schedules_per_second metric"
        )
        return None


def check_gate(baseline_path: str, measured: float) -> int:
    """Fail if *measured* schedules/sec fell >20% below the baseline's."""
    baseline_value = read_baseline(baseline_path)
    if baseline_value is None:
        return 1
    return _apply_floor(baseline_path, baseline_value, measured)


def _apply_floor(
    baseline_path: str, baseline_value: float, measured: float
) -> int:
    floor = baseline_value * (1.0 - GATE_TOLERANCE)
    print(
        f"gate: measured {measured:,.0f} vs baseline "
        f"{baseline_value:,.0f} verify schedules/sec (floor {floor:,.0f})"
    )
    if measured < floor:
        print(
            f"FATAL: verify schedules/sec regressed more than "
            f"{GATE_TOLERANCE:.0%} vs {baseline_path}"
        )
        return 1
    return 0


#: The committed report: the default output and ``--gate`` baseline.
COMMITTED = "BENCH_verify.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--output",
        default=None,
        help=f"where to write the JSON report (default: {COMMITTED})",
    )
    parser.add_argument(
        "--gate",
        nargs="?",
        const="",
        default=None,
        metavar="BASELINE",
        help="fail if schedules/sec regresses more than 20%% against the "
        f"BASELINE report (default: {COMMITTED})",
    )
    args = parser.parse_args(argv)
    committed = str(_repo_root() / COMMITTED)
    gate = committed if args.gate == "" else args.gate
    return run_verify_bench(args.output or committed, gate)
