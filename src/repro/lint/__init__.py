"""repro-lint: whole-program checks for the invariants the paper rests on.

The catalogue keeps only rules with evidence: each one flags a seeded
defect in ``tests/lint/mutants.json`` that no tier-1 test and no dynamic
gate catches (``tools/lint_mutants.py`` measures this). Determinism and
check-count parity are guarded by running them, not by lint.

* **Agent isolation** — agents communicate only through messages. Rule A1
  (no transport/mailbox references from ``SimulatedAgent`` subclasses)
  guards it.
* **Metric accounting** — every nogood consistency test is counted toward
  ``maxcck``. Rule M1 guards it (no uncounted predicates in agent code).

File-local rules work from a single AST; the whole-program rule A1 reads
a :class:`ProjectGraph` (one parse per file, import resolution, subclass
closures, memoised analyses). ``repro lint --check-trace run.jsonl``
additionally replays a recorded trace and asserts the runtime invariants
(clock monotonicity, value chaining, summary totals).

Run as ``python -m repro.lint src/ tests/`` or ``repro lint``. Findings can
be suppressed per line with ``# repro-lint: disable=<RULE> -- <why>`` — the
justification is mandatory. See CONTRIBUTING.md for the rule catalogue.
"""

from .findings import Finding
from .engine import lint_paths, lint_file, lint_source, load_baseline
from .catalogue import ALL_RULES, rule_by_id
from .graph import ProjectGraph
from .trace_check import check_trace_file
from .output import to_json, to_sarif
from .cli import main

__all__ = [
    "Finding",
    "ALL_RULES",
    "rule_by_id",
    "ProjectGraph",
    "lint_paths",
    "lint_file",
    "lint_source",
    "load_baseline",
    "check_trace_file",
    "to_json",
    "to_sarif",
    "main",
]
