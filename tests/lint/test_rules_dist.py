"""The handler-discipline rule S2 against its fixture.

Same golden pattern as ``test_rules_effects.py``: dirty lines pinned
exactly, clean counterexamples asserted silent. On top of that, the
S-rule findings over the dirty fixture are pinned as a golden SARIF
snapshot (the artifact CI uploads to code scanning), the whole shipped
tree must stay S-rule-clean, and agents must not regrow a reference to
the shared metrics collector.
"""

import json
from pathlib import Path

from repro.lint import lint_file
from repro.lint.engine import DEFAULT_EXCLUDES, lint_paths
from repro.lint.output import to_sarif
from repro.lint.rules_dist import DIST_RULES

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).parents[2]

DIRTY = ["s2_blocking.py"]


def s_findings_of(name):
    """Only the S-rule findings — fixtures may trip other catalogues too."""
    return [
        finding
        for finding in lint_file(str(FIXTURES / name))
        if finding.rule.startswith("S")
    ]


def located(findings):
    return sorted((finding.rule, finding.line) for finding in findings)


class TestBlockingHandler:
    def test_transitive_and_direct_blocking_flagged(self):
        assert located(s_findings_of("s2_blocking.py")) == [
            ("S2", 13),  # time.sleep via step -> self._throttle
            ("S2", 19),  # input() directly in initialize
        ]

    def test_unreachable_io_helper_stays_silent(self):
        lines = [f.line for f in s_findings_of("s2_blocking.py")]
        assert 30 not in lines  # open() in the harness-only helper


class TestGoldenSarif:
    def test_s_rule_findings_match_the_snapshot(self):
        findings = []
        for name in DIRTY:
            findings.extend(s_findings_of(name))
        produced = json.loads(json.dumps(to_sarif(findings), sort_keys=True))
        golden = json.loads(
            (FIXTURES / "sarif_s_rules_golden.json").read_text()
        )
        assert produced == golden


class TestTruePositiveFixes:
    """The shipped tree stays S-rule-clean, and agents stay unaliased.

    Agents keep a private GenerationLog and the collector merges the logs
    at cycle boundaries; an agent that recorded through one shared
    collector instead would keep writing to it after ``reset_episode``
    hands it a fresh one (``TestResetEpisode`` in
    ``tests/algorithms/test_awc.py`` and the soak stream's generation
    totals catch that at run time).
    """

    def test_shipped_tree_is_s_rule_clean(self):
        findings = lint_paths(
            [str(REPO / "src")],
            baseline=None,
            excludes=list(DEFAULT_EXCLUDES),
            rules=DIST_RULES,
        )
        assert findings == [], [f.format(show_hint=False) for f in findings]

    def test_awc_agents_hold_no_collector_reference(self):
        from repro.problems.coloring import random_coloring_instance
        from repro.algorithms.awc import build_awc_agents
        from repro.learning import learning_method
        from repro.runtime.metrics import MetricsCollector

        problem = random_coloring_instance(
            4, seed=1, num_edges=5
        ).to_discsp()
        metrics = MetricsCollector()
        agents = build_awc_agents(
            problem, learning_method("Rslv"), metrics, seed=0
        )
        for agent in agents:
            assert not hasattr(agent, "metrics")
            assert agent.generation_log is metrics.generation_log_for(
                agent.id
            )
        # Logs are per-agent objects, not one shared alias.
        logs = {id(agent.generation_log) for agent in agents}
        assert len(logs) == len(agents)
