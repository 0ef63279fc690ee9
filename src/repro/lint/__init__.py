"""repro-lint: whole-program checks for the invariants the paper rests on.

The simulator's correctness contract has four parts no unit test can pin
locally:

* **Determinism** — a run is a pure function of its seed. Rules D1 (no
  global/unseeded ``random``), D2 (no wall-clock reads in simulated code),
  D3 (no order-sensitive iteration over sets) and D4 (RNG master seeds
  must derive from an explicit parameter, traced across assignments,
  closures, dataclass fields and factory helpers) guard it.
* **Agent isolation** — agents communicate only through messages. Rules P1
  (frozen message dataclasses; no mutation of received messages) and P2
  (no mutation of a payload after it is sent; no mutable containers
  inside frozen payload dataclasses) guard it.
* **Protocol conformance** — the runtime's delivery machinery stays out of
  agent code and stays deterministic. Rules A1 (no transport/mailbox
  references from ``SimulatedAgent`` subclasses) and A2 (event-queue heap
  keys totally ordered: sequence tie-break before payload, agent id
  present) guard it.
* **Metric accounting** — every nogood consistency test is counted toward
  ``maxcck``. Rule M1 guards it (no uncounted predicates in agent code).
* **Allocation discipline** — the per-message dispatch paths must not
  regrow Python-side garbage. Rules H1 (no loop-local temporaries in hot
  loops), H2 (no per-dispatch constant-shape containers), H3 (no repeated
  ``sorted()`` of maintained state) and H4 (no closure allocation in hot
  dispatch) guard it, over a hot set derived
  from the committed ``hotpaths.toml`` plus the call-edge closure of the
  agent-handler and store-consultation surfaces (see
  :mod:`repro.lint.hotpaths` and the escape analysis in
  :mod:`repro.lint.alloc`).

File-local rules work from a single AST; the whole-program rules share a
:class:`ProjectGraph` (one parse per file, import resolution, subclass
closures, memoised dataflow). ``repro lint --check-trace run.jsonl``
additionally replays a recorded trace and asserts the runtime invariants
(clock monotonicity, causal delivery, the FIFO clamp).

Run as ``python -m repro.lint src/ tests/`` or ``repro lint``. Findings can
be suppressed per line with ``# repro-lint: disable=<RULE> -- <why>`` — the
justification is mandatory. See CONTRIBUTING.md for the rule catalogue.
"""

from .findings import Finding
from .engine import lint_paths, lint_file, lint_source, load_baseline
from .catalogue import ALL_RULES, rule_by_id
from .graph import ProjectGraph
from .dataflow import (
    FactorySummary,
    build_seed_env,
    collect_events,
    compute_factory_summaries,
)
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
    "FactorySummary",
    "build_seed_env",
    "collect_events",
    "compute_factory_summaries",
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
