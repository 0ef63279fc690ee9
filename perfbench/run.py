"""Paper-cell benchmark: three table cells timed end to end, or traced.

    python3 perfbench/run.py --workload learn [--seed 0] [--seconds 30] [--trace 0|1]

Run it from the root of a checkout: it benchmarks the ``repro`` package
under ``src/``. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run: one line per
metric, then the result as one JSON object on the last line. It exits 1
when a trial fails a correctness check. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
FINGERPRINTS = HERE / "fingerprints.json"
#: Instance caches live here while a run lasts, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"
#: The seed whose per-trial fingerprints FINGERPRINTS pins.
PINNED_SEED = 0
#: Set-up is timed at least SETUP_REPS times, then until SETUP_SECONDS.
SETUP_REPS = 3
SETUP_SECONDS = 1.0

sys.path.insert(0, str(ROOT / "src"))

import cells  # noqa: E402  (imports repro from src/)
import layers  # noqa: E402
import speed  # noqa: E402
from repro import algorithm_by_name  # noqa: E402


def repeat(seconds: float, once: Callable[[], None]) -> int:
    """Call *once* until *seconds* are spent, at least once; the count."""
    started = time.perf_counter()
    spent: List[float] = []
    while True:
        began = time.perf_counter()
        once()
        spent.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(spent) > seconds:
            return len(spent)


def time_setup(
    workload: cells.Workload, seed: int, scratch: Path
) -> Tuple[List[float], List[float], Sequence[object]]:
    """Repeated from-scratch builds: their scaled times, the probes taken
    around them, and the instances."""
    times: List[float] = []
    probes = [speed.probe()]
    while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
        started = time.perf_counter()
        instances = cells.build_instances(
            workload, seed, scratch / f"cache-{len(times)}"
        )
        times.append(time.perf_counter() - started)
        probes.append(speed.probe())
    scaled = [took * scale for took, scale in zip(times, speed.scales(probes))]
    return scaled, probes, instances


def end_to_end(
    workload: cells.Workload,
    seed: int,
    seconds: float,
    checker: cells.Checker,
) -> Tuple[Dict[str, float], int, List[float]]:
    """Untraced runs of the trial set: the timing metrics, scaled to the
    reference host speed; the run count; the raw run times."""
    run_times: List[float] = []
    raw_times: List[float] = []
    trial_times: List[List[float]] = []
    checks: List[int] = []

    def once() -> None:
        raw_s, trials = cells.run_trials(workload, seed, probe=speed.probe)
        checker.check(trials)
        raw_times.append(raw_s)
        run_times.append(sum(trial.call_s * trial.scale for trial in trials))
        trial_times.append(
            [trial.result.wall_time * trial.scale for trial in trials]
        )
        checks.append(sum(trial.result.total_checks for trial in trials))

    runs = repeat(seconds, once)
    return cells.timing_metrics(run_times, trial_times, checks[0]), runs, raw_times


def traced(
    workload: cells.Workload,
    seed: int,
    seconds: float,
    checker: cells.Checker,
) -> Tuple[Dict[str, float], int]:
    """Untraced and traced runs in turn: per-layer metrics, pair count."""
    untraced_times: List[float] = []
    traced_times: List[float] = []
    overheads: List[float] = []
    samples: List[Dict[str, float]] = []

    def once() -> None:
        run_s, trials = cells.run_trials(workload, seed)
        checker.check(trials)
        untraced_times.append(run_s)
        overheads.append(
            run_s - sum(trial.result.wall_time for trial in trials)
        )
        tracer = layers.Tracer()
        with tracer.installed():
            traced_s, traced_trials = cells.run_trials(
                workload,
                seed,
                lambda label: tracer.capture(algorithm_by_name(label)),
            )
        checker.check(traced_trials)
        traced_times.append(traced_s)
        samples.append(tracer.metrics([trial.result for trial in traced_trials]))

    pairs = repeat(seconds, once)
    values = {
        name: statistics.median([sample[name] for sample in samples])
        for name in samples[0]
    }
    values["experiments.overhead_s"] = statistics.median(overheads)
    values["trace.overhead_ratio"] = statistics.median(
        traced_times
    ) / statistics.median(untraced_times)
    return values, pairs


def report(
    workload: str,
    values: Dict[str, float],
    declared: Sequence[Dict[str, object]],
    checker: cells.Checker,
) -> None:
    """Print each declared metric, then the JSON result line."""
    metrics: Dict[str, Dict[str, object]] = {}
    for metric in declared:
        name, unit = str(metric["name"]), metric["unit"]
        if name not in values:
            print(f"{workload} {name}: absent, its wrap target is gone")
            continue
        print(
            f"{workload} {name} = {values[name]:.6g} {unit} "
            f"({metric['better']} is better)"
        )
        metrics[name] = {"value": values[name], "unit": unit}
    print(
        f"{workload} failed_trials = {checker.failed} "
        f"of {checker.attempted} attempted"
    )
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )


def pin(workload: cells.Workload, pinned: Dict[str, List[List[object]]]) -> None:
    """Record the workload's seed-0 fingerprints, one trial a line."""
    _, trials = cells.run_trials(workload, PINNED_SEED)
    pinned[workload.name] = [trial.fingerprint() for trial in trials]
    blocks = [
        f'  "{name}": [\n'
        + ",\n".join(f"    {json.dumps(row)}" for row in rows)
        + "\n  ]"
        for name, rows in sorted(pinned.items())
    ]
    FINGERPRINTS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=30.0,
        help="how long to repeat the trial set (default 30)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--pin",
        action="store_true",
        help=f"rewrite the workload's seed-{PINNED_SEED} fingerprints and exit",
    )
    args = parser.parse_args(argv)
    if args.pin and args.seed != PINNED_SEED:
        parser.error(f"--pin records seed {PINNED_SEED} only")
    workload = cells.WORKLOADS[args.workload]
    manifest = json.loads(MANIFEST.read_text())
    pinned = (
        json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    )
    os.environ.pop("REPRO_JOBS", None)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        setup_times, probes, instances = time_setup(
            workload, args.seed, scratch
        )
        if args.pin:
            pin(workload, pinned)
            return 0
        expected = pinned.get(workload.name) if args.seed == PINNED_SEED else None
        checker = cells.Checker(instances, expected)
        if args.trace:
            values, runs = traced(workload, args.seed, args.seconds, checker)
            values["problems.instance_s"] = statistics.median(setup_times)
            host = ""
            section = "per_layer"
        else:
            values, runs, raw_times = end_to_end(
                workload, args.seed, args.seconds, checker
            )
            values["setup_s"] = statistics.median(setup_times)
            host = (
                f"; unscaled run_s {statistics.median(raw_times):.6g} s, "
                f"set-up probe {speed.median_ms(probes):.3g} ms "
                f"(reference {speed.REFERENCE_S * 1000:g} ms)"
            )
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            section = "end_to_end"
    finally:
        shutil.rmtree(scratch)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    print(
        f"{workload.name}: seed {args.seed}, {workload.trial_count} trials "
        f"run {runs} times{' untraced and traced' if args.trace else ''}; "
        f"trial_p50_s and trial_max_s over {workload.trial_count} trials; "
        f"set-up built {len(setup_times)} times{host}"
    )
    report(workload.name, values, manifest[section], checker)
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
