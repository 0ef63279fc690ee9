"""Smoke benchmarks for the lint analyzer and the verifier.

Each axis measures one subsystem on a fixed small workload, asserts the
results it depends on, and writes a JSON report. ``repro bench`` exposes
it as a CLI subcommand.

Two axes:

* ``--axis lint`` — two full-tree runs of the whole-program repro-lint
  analyzer (``src/`` + ``tests/``); identical findings are the
  determinism guarantee, and the wall time must stay under the 10 s CI
  budget. Writes ``BENCH_lint.json``.
* ``--axis verify`` — the interleaving verifier (:mod:`repro.verify`) on
  its pinned corpus: schedule-exploration throughput, the DPOR prune
  ratio, and zero invariant violations. Writes ``BENCH_verify.json``;
  ``--gate`` fails the run if schedules/sec regressed more than 20%
  against a committed baseline report.

Usage::

    PYTHONPATH=src python -m repro.cli bench
        --axis lint|verify
        [--output PATH] [--gate [BASELINE]]

The workloads are deliberately small (seconds per axis) so CI can
afford them; every report records the machine it ran on.

This module lives under ``experiments/`` (not ``runtime/`` or
``algorithms/``) deliberately: benchmarking needs wall clocks, which the
repro-lint determinism rules ban inside the simulation layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: CI wall-time budget (seconds) for one full-tree lint pass.
LINT_BUDGET_SECONDS = 10.0

#: Maximum tolerated metric regression for ``--gate`` (fraction).
GATE_TOLERANCE = 0.20


def _repo_root() -> Path:
    """The repository root (this file lives at src/repro/experiments/)."""
    return Path(__file__).resolve().parents[3]


def run_lint_bench(
    repo_root: Path, output: str, gate: Optional[str] = None
) -> int:
    """Two full-tree lint passes: determinism check + CI wall-time budget.

    ``--gate`` applies the 20% regression rule to the full-pass wall time
    (a "min" metric: lint getting slower fails the gate).
    """
    from ..lint.engine import DEFAULT_EXCLUDES, iter_python_files, lint_paths

    paths = [str(repo_root / "src"), str(repo_root / "tests")]
    files = list(iter_python_files(paths, excludes=list(DEFAULT_EXCLUDES)))
    passes = []
    findings_per_pass = []
    for _ in range(2):
        started = time.perf_counter()
        findings = lint_paths(
            paths, baseline=None, excludes=list(DEFAULT_EXCLUDES)
        )
        elapsed = time.perf_counter() - started
        passes.append(round(elapsed, 4))
        findings_per_pass.append(
            [finding.format(show_hint=False) for finding in findings]
        )
    if findings_per_pass[0] != findings_per_pass[1]:
        print("FATAL: lint findings diverge between identical passes")
        return 1

    slowest = max(passes)
    budget_met = slowest <= LINT_BUDGET_SECONDS
    report = {
        "benchmark": "lint_smoke",
        "paths": ["src/", "tests/"],
        "files_linted": len(files),
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "pass_wall_seconds": passes,
        "pass_wall_max_seconds": slowest,
        "files_per_second": round(len(files) / slowest) if slowest else 0,
        "findings": len(findings_per_pass[0]),
        "budget_seconds": LINT_BUDGET_SECONDS,
        "budget_met": budget_met,
        "results_identical": True,
        "note": (
            "one whole-program pass parses every file once into a shared "
            "ProjectGraph, then runs the file-local and inter-procedural "
            "rules against it; the budget keeps full-tree linting viable "
            "as a pre-commit hook and a CI gate"
        ),
    }
    Path(output).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"lint: {len(files)} files, passes {passes[0]:.2f}s / "
        f"{passes[1]:.2f}s, "
        f"{report['findings']} finding(s), "
        f"budget {LINT_BUDGET_SECONDS:.0f}s "
        f"{'met' if budget_met else 'EXCEEDED'}"
    )
    print(f"wrote {output}")
    if not budget_met:
        print(
            f"FATAL: full-tree lint took {slowest:.2f}s, over the "
            f"{LINT_BUDGET_SECONDS:.0f}s budget"
        )
        return 1
    if gate is not None:
        metric_path, label, direction = GATE_METRICS["lint"]
        return check_gate(gate, slowest, metric_path, label, direction)
    return 0


def run_verify_bench(output: str, gate: Optional[str]) -> int:
    """``--axis verify``: the interleaving verifier as a benchmark.

    Explores the pinned corpus (pruned DFS + capped naive count) and
    reports schedule throughput and the prune ratio. Two properties are
    load-bearing and asserted here rather than merely reported: zero
    invariant violations, and at least a 10x prune ratio (the static
    commutativity matrix must keep paying for itself as the corpus and
    the agent code evolve).
    """
    from ..verify.explorer import explore_corpus

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
    if gate is not None:
        metric_path, label, direction = GATE_METRICS["verify"]
        return check_gate(
            gate, schedules_per_second, metric_path, label, direction
        )
    return 0


#: Where each gated axis keeps its metric in its report, and which
#: direction is "better" ("max": higher, gate is a floor; "min": lower,
#: gate is a ceiling).
GATE_METRICS: Dict[str, Tuple[Tuple[str, ...], str, str]] = {
    "lint": (
        ("pass_wall_max_seconds",),
        "full-tree lint wall seconds",
        "min",
    ),
    "verify": (
        ("verify", "schedules_per_second"),
        "verify schedules/sec",
        "max",
    ),
}


def check_gate(
    baseline_path: str,
    measured: float,
    metric_path: Tuple[str, ...],
    label: str,
    direction: str,
) -> int:
    """Fail if *measured* regressed >20% against the committed baseline.

    ``direction`` says which way is better: ``"max"`` metrics (throughput)
    gate on a floor 20% below the baseline, ``"min"`` metrics (wall time)
    on a ceiling 20% above it.

    A gate was explicitly requested, so a baseline that cannot be read is
    an error, never a silent skip — one line, no traceback.
    """
    path = Path(baseline_path)
    if not path.exists():
        print(f"FATAL: gate baseline {baseline_path} does not exist")
        return 1
    try:
        baseline = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        print(f"FATAL: gate baseline {baseline_path} is unreadable: {error}")
        return 1
    try:
        value: object = baseline
        for key in metric_path:
            value = value[key]  # type: ignore[index]
        baseline_value = float(value)  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError):
        print(
            f"FATAL: gate baseline {baseline_path} has no "
            f"{'.'.join(metric_path)} metric"
        )
        return 1
    if direction == "min":
        bound = baseline_value * (1.0 + GATE_TOLERANCE)
        bound_name = "ceiling"
        regressed = measured > bound
    else:
        bound = baseline_value * (1.0 - GATE_TOLERANCE)
        bound_name = "floor"
        regressed = measured < bound
    print(
        f"gate: measured {measured:,.0f} vs baseline "
        f"{baseline_value:,.0f} {label} ({bound_name} {bound:,.0f})"
    )
    if regressed:
        print(
            f"FATAL: {label} regressed more than "
            f"{GATE_TOLERANCE:.0%} vs {baseline_path}"
        )
        return 1
    return 0


#: Each axis's default report (and ``--gate`` baseline), next to its runner.
AXES = {
    "lint": "BENCH_lint.json",
    "verify": "BENCH_verify.json",
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--axis",
        choices=tuple(AXES),
        required=True,
        help="what to measure: two passes of the whole-program lint "
        "analyzer, or the interleaving verifier's schedule-exploration "
        "throughput",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON report (default: the axis's "
        "committed BENCH_*.json)",
    )
    parser.add_argument(
        "--gate",
        nargs="?",
        const="",
        default=None,
        metavar="BASELINE",
        help="fail if the axis's metric regresses more than 20%% against "
        "the BASELINE report (default: the axis's committed BENCH_*.json)",
    )
    args = parser.parse_args(argv)
    repo_root = _repo_root()
    committed = str(repo_root / AXES[args.axis])
    output = args.output or committed
    gate = committed if args.gate == "" else args.gate
    if args.axis == "lint":
        return run_lint_bench(repo_root, output, gate)
    return run_verify_bench(output, gate)
