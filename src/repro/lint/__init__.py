"""repro-lint: whole-program checks for the invariants the paper rests on.

The catalogue keeps only rules with evidence: each one flags a seeded
defect in ``tests/lint/mutants.json`` that no tier-1 test and no dynamic
gate catches (``tools/lint_mutants.py`` measures this). Determinism and
check-count parity are guarded by running them, not by lint.

* **Agent isolation** — agents communicate only through messages. Rule P2
  (no mutation of a payload after it is sent; no mutable containers
  inside frozen payload dataclasses) and rule A1 (no transport/mailbox
  references from ``SimulatedAgent`` subclasses) guard it.
* **Metric accounting** — every nogood consistency test is counted toward
  ``maxcck``. Rule M1 guards it (no uncounted predicates in agent code).
* **Reordering safety** — rule R1 keeps neighbor state behind
  ``AgentView``'s counter-guarded API.
* **Allocation discipline** — the per-message dispatch paths must not
  regrow Python-side garbage. Rules H1 (no loop-local temporaries in hot
  loops), H2 (no per-dispatch constant-shape containers), H3 (no repeated
  ``sorted()`` of maintained state) and H4 (no closure allocation in hot
  dispatch) guard it, over a hot set derived
  from the committed ``hotpaths.toml`` plus the call-edge closure of the
  agent-handler and store-consultation surfaces (see
  :mod:`repro.lint.hotpaths` and the escape analysis in
  :mod:`repro.lint.alloc`).
* **Handler discipline** — rule S2 (no blocking calls reachable from
  message handlers) keeps agent code to computing and returning messages.

File-local rules work from a single AST; the whole-program rules share a
:class:`ProjectGraph` (one parse per file, import resolution, subclass
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
from .dataflow import collect_events
from .trace_check import check_trace_file
from .output import to_json, to_sarif
from .cli import main
from .hotpaths import HotConfig, HotSet, hot_set_for, load_hot_config
from .alloc import AllocSite, FunctionAllocs, analyze_function

__all__ = [
    "Finding",
    "ALL_RULES",
    "rule_by_id",
    "ProjectGraph",
    "collect_events",
    "lint_paths",
    "lint_file",
    "lint_source",
    "load_baseline",
    "check_trace_file",
    "to_json",
    "to_sarif",
    "main",
    "HotConfig",
    "HotSet",
    "hot_set_for",
    "load_hot_config",
    "AllocSite",
    "FunctionAllocs",
    "analyze_function",
]
