"""Run the lint mutation corpus: which checks catch each seeded defect.

``tests/lint/mutants.json`` registers one or more seeded defects per
repro-lint rule: exact ``old`` -> ``new`` text edits to real product code,
each in the shape the rule's ``repro lint --explain`` entry calls bad. For
every defect this script copies a source tree to a temporary directory,
applies the edits and records

* whether the defect's own rule flags it, and which other rules do;
* the first tier-1 test that fails (the suite minus ``tests/lint/``, whose
  tests exercise the linter rather than the product, and minus the
  ``docs/api.md`` staleness test, see ``TIER1``);
* the verdict of every non-lint gate (see ``GATES``);
* for a defect that tier-1 and every gate miss, the timing gate's verdict
  (see ``timing_gate``): a defect that makes the paper-cell benchmark
  slower than its bound is caught by that benchmark.

A gate counts only if it passes on the unmutated copy in the same run; the
table records the unmutated verdicts next to the mutants'. Mutants are
measured ``JOBS`` at a time, so every tier-1 catch is confirmed
afterwards, one mutant at a time: the first failing tier-1 test is re-run alone (if it
passes, tier-1 is re-run without it, so a flaky test cannot hide a later
failure). A catch that does not repeat is recorded as ``flaky`` and not
counted. The timing gate runs after the confirmations,
one defect at a time. The verdict table is written into the corpus file
under ``evidence.<label>``, with a hash of the registered defects so a
table cannot silently describe a different corpus. Offline, not part of
tier-1; about 45 minutes on a 2-core Xeon host:

    python tools/lint_mutants.py --label final
    python tools/lint_mutants.py --label parent --tree ../parent-checkout
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "lint" / "mutants.json"

#: The non-lint gates: name -> command, run from the copy's root.
GATES: Dict[str, Sequence[str]] = {
    "explore": ("-m", "repro.verify", "--explore", "--no-naive"),
    "perfbench-learn": (
        "perfbench/run.py", "--workload", "learn", "--seed", "0",
        "--seconds", "0",
    ),
    "perfbench-nolearn": (
        "perfbench/run.py", "--workload", "nolearn", "--seed", "0",
        "--seconds", "0",
    ),
    "perfbench-breakout": (
        "perfbench/run.py", "--workload", "breakout", "--seed", "0",
        "--seconds", "0",
    ),
}

#: Tier-1 minus ``tests/lint/`` and the api-docs staleness test: a mutant
#: that changes a public signature fails that test only because
#: ``docs/api.md`` is out of date, not because the defect was detected.
TIER1 = (
    "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
    "--ignore=tests/lint",
    "--deselect=tests/test_tools.py::TestGenerator::test_generated_file_is_current",
)

#: A mutant's command may take this many times the unmutated run (plus a
#: floor) before it is stopped and recorded as a timeout, which counts as
#: no catch: a slow suite names no failing check.
TIMEOUT_FACTOR = 4.0
TIMEOUT_FLOOR_S = 60.0

#: The timeout of a run on the unmutated copy.
GENEROUS_TIMEOUT_S = 1800.0

#: Mutants measured at once.
JOBS = 2

_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)

#: Extra runs a flaky tier-1 failure gets to fail again and count.
CONFIRM_RUNS = 2

#: The timing gate: ``perfbench/run.py`` on each workload, ``TIMING_PAIRS``
#: interleaved clean/mutant runs of ``TIMING_SECONDS`` each. It fails when
#: the mutant's median speed-scaled ``run_s`` exceeds ``TIMING_BOUND``
#: times the clean median (BENCHMARK.json bounds ``run_s`` at 0.25), or
#: when a mutant run outlives its timeout: a run that never finishes is a
#: slowdown too.
TIMING_WORKLOADS = ("learn", "nolearn", "breakout")
TIMING_PAIRS = 3
TIMING_SECONDS = 0
TIMING_BOUND = 1.25


def corpus_hash(defects: Sequence[dict]) -> str:
    """The registration hash every verdict table carries."""
    text = json.dumps(list(defects), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def apply_defect(tree: Path, defect: dict) -> None:
    """Apply every edit of *defect* under *tree*; each ``old`` occurs once."""
    path = tree / defect["file"]
    text = path.read_text()
    for edit in defect["edits"]:
        count = text.count(edit["old"])
        if count != 1:
            raise ValueError(
                f"{defect['id']}: edit text occurs {count} times in "
                f"{defect['file']}"
            )
        text = text.replace(edit["old"], edit["new"])
    path.write_text(text)


def copy_tree(source: Path) -> Path:
    target = Path(tempfile.mkdtemp(prefix="lint-mutant-"))
    shutil.copytree(
        source,
        target / "tree",
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".repro_cache", ".pytest_cache",
            ".hypothesis", ".benchmarks", ".perfbench_tmp",
        ),
    )
    return target


def run(
    tree: Path, args: Sequence[str], timeout: float
) -> Tuple[str, float, str]:
    """Run ``python *args`` in *tree*: (pass|fail|timeout, seconds, output)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("REPRO_JOBS", None)
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *args],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - started, ""
    verdict = "pass" if done.returncode == 0 else "fail"
    return verdict, time.perf_counter() - started, done.stdout + done.stderr


def lint_rules(tree: Path) -> Tuple[List[str], Dict[str, int]]:
    """The tree's rule ids and its findings per rule over src/ and tests/."""
    _, _, listing = run(tree, ("-m", "repro.lint", "--list-rules"), 120)
    rule_ids = re.findall(r"^([A-Z]\d)\b", listing, re.MULTILINE)
    _, _, output = run(
        tree,
        ("-m", "repro.lint", "src/", "tests/", "--format", "json"),
        300,
    )
    start = output.find("[")
    findings = json.loads(output[start:output.rfind("]") + 1])
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding["rule"]] = counts.get(finding["rule"], 0) + 1
    return rule_ids, counts


def measure(tree: Path, timeouts: Dict[str, float]) -> dict:
    """Lint findings, the first tier-1 failure and each gate's verdict."""
    rule_ids, findings = lint_rules(tree)
    verdict, seconds, output = run(tree, TIER1, timeouts["tier1"])
    failure = _FIRST_FAILURE.search(output)
    tier1 = {
        "verdict": verdict,
        "seconds": round(seconds, 1),
        "first_failure": failure.group(1) if failure else None,
    }
    gates = {}
    for name, args in GATES.items():
        verdict, seconds, _ = run(tree, args, timeouts[name])
        gates[name] = {"verdict": verdict, "seconds": round(seconds, 1)}
    return {
        "rules": rule_ids,
        "findings": findings,
        "tier1": tier1,
        "gates": gates,
    }


def verdict_row(defect: dict, clean: dict, mutant: dict) -> dict:
    """Which catchers flag *defect*, judged against the clean copy."""
    new_findings = sorted(
        rule
        for rule, count in mutant["findings"].items()
        if count > clean["findings"].get(rule, 0)
    )
    if defect["rule"] not in clean["rules"]:
        own = None  # the rule is not in this tree's catalogue
    else:
        own = defect["rule"] in new_findings
    catchers = []
    if clean["tier1"]["verdict"] == "pass" and (
        mutant["tier1"]["verdict"] == "fail"
    ):
        catchers.append("tier1")
    for name, gate in mutant["gates"].items():
        if clean["gates"][name]["verdict"] == "pass" and (
            gate["verdict"] == "fail"
        ):
            catchers.append(name)
    return {
        "rule_flags": own,
        "lint_rules": new_findings,
        "tier1_first_failure": mutant["tier1"]["first_failure"],
        "tier1": mutant["tier1"]["verdict"],
        "tier1_flaky": [],
        "gates": {name: gate["verdict"] for name, gate in mutant["gates"].items()},
        "non_lint_catchers": catchers,
    }


def timing_gate(
    clean: Path, mutant: Path, timeouts: Dict[str, float]
) -> Tuple[str, Dict[str, dict]]:
    """Time *mutant* against *clean*: (pass|fail, per-workload medians).

    The runs alternate which tree goes first, so a drift in host speed
    falls on both sides; the first workload that fails ends the gate.
    """
    trees = {"clean": clean, "mutant": mutant}
    details: Dict[str, dict] = {}
    for workload in TIMING_WORKLOADS:
        args = (
            "perfbench/run.py", "--workload", workload,
            "--seconds", str(TIMING_SECONDS),
        )
        run_s: Dict[str, List[float]] = {"clean": [], "mutant": []}
        for pair in range(TIMING_PAIRS):
            order = ("clean", "mutant") if pair % 2 == 0 else ("mutant", "clean")
            for side in order:
                timeout = (
                    timeouts[f"perfbench-{workload}"]
                    if side == "mutant"
                    else GENEROUS_TIMEOUT_S
                )
                verdict, _, output = run(trees[side], args, timeout)
                if verdict != "pass" and side == "clean":
                    raise RuntimeError(f"the clean {workload} run: {verdict}")
                if verdict != "pass":
                    details[workload] = {"mutant": verdict}
                    return "fail", details
                result = json.loads(output.strip().splitlines()[-1])
                run_s[side].append(result["metrics"]["run_s"]["value"])
        clean_s = statistics.median(run_s["clean"])
        mutant_s = statistics.median(run_s["mutant"])
        details[workload] = {
            "clean_run_s": round(clean_s, 3),
            "mutant_run_s": round(mutant_s, 3),
            "ratio": round(mutant_s / clean_s, 3),
        }
        if mutant_s > TIMING_BOUND * clean_s:
            return "fail", details
    return "pass", details


def confirm(
    source: Path, defect: dict, row: dict, timeouts: Dict[str, float]
) -> None:
    """Re-check *row*'s tier-1 catch on a fresh copy, alone."""
    copy = copy_tree(source)
    try:
        tree = copy / "tree"
        apply_defect(tree, defect)
        test = row["tier1_first_failure"]
        if "tier1" in row["non_lint_catchers"] and test is not None:
            row["non_lint_catchers"].remove("tier1")
            row["tier1"] = "flaky"
            # ``-x`` stops at the first failure, so a flaky test can hide a
            # real one behind it: re-run the suite without the tests that
            # did not fail again alone.
            for _ in range(1 + CONFIRM_RUNS):
                verdict, _, _ = run(
                    tree,
                    ("-m", "pytest", "-q", "-p", "no:cacheprovider", test),
                    timeouts["tier1"],
                )
                if verdict == "fail":
                    row["non_lint_catchers"].insert(0, "tier1")
                    row["tier1"] = "fail"
                    row["tier1_first_failure"] = test
                    break
                row["tier1_flaky"].append(test)
                deselect = [f"--deselect={name}" for name in row["tier1_flaky"]]
                verdict, _, output = run(
                    tree, (*TIER1, *deselect), timeouts["tier1"]
                )
                failure = _FIRST_FAILURE.search(output)
                if verdict != "fail" or failure is None:
                    break
                test = failure.group(1)
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tree",
        type=Path,
        default=ROOT,
        help="source tree to mutate (default: this checkout)",
    )
    parser.add_argument(
        "--label",
        required=True,
        help="name of the verdict table to write, e.g. parent or final",
    )
    args = parser.parse_args(argv)
    corpus = json.loads(CORPUS.read_text())
    defects = corpus["defects"]

    clean_copy = copy_tree(args.tree)
    try:
        generous = {name: GENEROUS_TIMEOUT_S for name in ("tier1", *GATES)}
        clean = measure(clean_copy / "tree", generous)
    finally:
        shutil.rmtree(clean_copy, ignore_errors=True)
    timeouts = {
        "tier1": max(
            TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * clean["tier1"]["seconds"]
        ),
    }
    for name, gate in clean["gates"].items():
        timeouts[name] = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * gate["seconds"])
    print(
        f"clean copy: tier-1 {clean['tier1']['verdict']}, gates "
        + ", ".join(f"{n} {g['verdict']}" for n, g in clean["gates"].items()),
        flush=True,
    )

    def one(defect: dict) -> dict:
        copy = copy_tree(args.tree)
        try:
            apply_defect(copy / "tree", defect)
            mutant = measure(copy / "tree", timeouts)
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        return verdict_row(defect, clean, mutant)

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        measured = list(pool.map(one, defects))
    rows = {}
    clean_copy = copy_tree(args.tree)
    try:
        for defect, row in zip(defects, measured):
            confirm(args.tree, defect, row, timeouts)
            row["gates"]["timing"] = "skipped"
            if not row["non_lint_catchers"]:
                copy = copy_tree(args.tree)
                try:
                    apply_defect(copy / "tree", defect)
                    verdict, row["timing"] = timing_gate(
                        clean_copy / "tree", copy / "tree", timeouts
                    )
                finally:
                    shutil.rmtree(copy, ignore_errors=True)
                row["gates"]["timing"] = verdict
                if verdict == "fail":
                    row["non_lint_catchers"].append("timing")
            rows[defect["id"]] = row
            print(
                f"{defect['id']}: rule {row['rule_flags']}, lint "
                f"{row['lint_rules']}, caught by {row['non_lint_catchers']}, "
                f"timing {row['gates']['timing']}",
                flush=True,
            )
    finally:
        shutil.rmtree(clean_copy, ignore_errors=True)

    corpus = json.loads(CORPUS.read_text())
    if corpus_hash(corpus["defects"]) != corpus_hash(defects):
        print("the corpus changed while it was measured; nothing written")
        return 1
    corpus.setdefault("evidence", {})[args.label] = {
        "corpus_sha256": corpus_hash(defects),
        "rules": clean["rules"],
        "clean": {
            "tier1": clean["tier1"]["verdict"],
            "gates": {
                name: gate["verdict"] for name, gate in clean["gates"].items()
            },
        },
        "rows": rows,
    }
    CORPUS.write_text(json.dumps(corpus, indent=2) + "\n")
    print(f"wrote evidence.{args.label} to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
