"""The allocation rules (H1-H4) and their hot-path designation.

Same golden pattern as ``test_program_rules.py``: the dirty fixture pins
exact (rule, line) pairs, and its clean counterexamples — escaping
buffers, cache fills, non-constant copies, module-level sort keys,
justified pragmas, cold methods — must stay silent. The hot-set closure
and the allocation/escape analysis get direct unit coverage too.
"""

import ast
from pathlib import Path

from repro.lint import lint_file, lint_paths
from repro.lint.alloc import (
    COMPREHENSION,
    CONTAINER_KINDS,
    SORTED_COPY,
    analyze_function,
    sites_of_kind,
)
from repro.lint.engine import iter_python_files
from repro.lint.graph import ProjectGraph
from repro.lint.hotpaths import (
    DEFAULT_CONFIG,
    compute_hot_set,
    describe_hot_set,
    parse_hot_config,
    unresolved_items,
)

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "h_alloc_hotpaths.py"


def fixture_findings():
    return lint_file(str(FIXTURE))


def located(findings):
    return sorted((finding.rule, finding.line) for finding in findings)


class TestHRulesGolden:
    def test_flags_exactly_the_dirty_lines(self):
        assert located(fixture_findings()) == [
            ("H1", 28),  # per-iteration comprehension dropped each pass
            ("H2", 32),  # list(self.domain) constant-attr copy
            ("H2", 33),  # container of constants
            ("H3", 34),  # sorted(self.peers) outside the cache fill
            ("H4", 42),  # lambda sort key in hot dispatch
        ]

    def test_clean_counterexamples_stay_silent(self):
        lines = [finding.line for finding in fixture_findings()]
        # 30: comprehension escapes via append + concatenated return;
        # 35: cache-filling assignment; 36: non-constant attribute copy;
        # 43: module-level key function; 44: justified pragma; 48: cold.
        for clean_line in (30, 35, 36, 43, 44, 48):
            assert clean_line not in lines

    def test_messages_name_function_and_state(self):
        by_rule = {}
        for finding in fixture_findings():
            by_rule.setdefault(finding.rule, finding)
        assert "'batch'" in by_rule["H1"].message
        assert "step()" in by_rule["H1"].message
        assert "'self.domain'" in by_rule["H2"].message
        assert "'self.peers'" in by_rule["H3"].message
        assert "lambda" in by_rule["H4"].message
        assert "itemgetter" in by_rule["H4"].hint


class TestHotSet:
    def graph(self):
        source = FIXTURE.read_text(encoding="utf-8")
        return ProjectGraph.build_from_sources(
            [(str(FIXTURE), source, "algorithms/fixture_h_alloc.py")]
        )

    def test_closure_reaches_helpers_but_not_cold_methods(self):
        hot = compute_hot_set(self.graph(), DEFAULT_CONFIG)
        labels = set(hot.labels.values())
        scope = "algorithms/fixture_h_alloc.py"
        assert f"{scope}::ChurningAgent.step" in labels
        assert f"{scope}::ChurningAgent._select" in labels
        assert f"{scope}::ChurningAgent.cold" not in labels

    def test_dunders_are_never_hot(self):
        hot = compute_hot_set(self.graph(), DEFAULT_CONFIG)
        assert not any("__init__" in label for label in hot.labels.values())

    def test_describe_is_deterministic(self):
        first = describe_hot_set(compute_hot_set(self.graph()))
        second = describe_hot_set(compute_hot_set(self.graph()))
        assert first == second
        assert first.splitlines()[0].endswith("root(s)")


class TestHotConfigParsing:
    def test_toml_overrides_merge_over_defaults(self):
        config = parse_hot_config(
            '[hot]\nagent_methods = ["step"]\n'
            'entries = ["algorithms/awc.py::AwcAgent._backtrack"]\n'
        )
        assert config.agent_methods == ("step",)
        assert config.entries == (
            "algorithms/awc.py::AwcAgent._backtrack",
        )
        # untouched keys keep the built-in policy
        assert config.agent_classes == DEFAULT_CONFIG.agent_classes
        assert config.modules == DEFAULT_CONFIG.modules

    def test_multiline_arrays_and_comments(self):
        config = parse_hot_config(
            "[hot]\n# profiled roots\nentries = [\n"
            '  "a.py::f",  # hottest\n  "b.py::C.m",\n]\n'
        )
        assert config.entries == ("a.py::f", "b.py::C.m")

    def test_committed_config_parses_and_adds_entries(self):
        config = parse_hot_config(
            Path("hotpaths.toml").read_text(encoding="utf-8")
        )
        assert (
            "runtime/simulator.py::SynchronousSimulator._route"
            in config.entries
        )
        assert any("AwcAgent" in entry for entry in config.entries)

    def test_committed_config_items_all_resolve(self):
        config = parse_hot_config(
            Path("hotpaths.toml").read_text(encoding="utf-8")
        )
        graph = ProjectGraph.build(iter_python_files(["src/"]))
        assert unresolved_items(graph, config, Path("src/repro")) == []
        # Against an empty graph every item resolves from disk instead.
        assert unresolved_items(ProjectGraph(), config, Path("src/repro")) == []
        hot = compute_hot_set(graph, config)
        labels = set(hot.labels.values())
        assert set(config.entries) <= hot.roots
        assert "runtime/simulator.py::SynchronousSimulator._route" in labels

    def test_unresolvable_items_are_reported(self, tmp_path):
        package = tmp_path / "src" / "repro" / "core"
        package.mkdir(parents=True)
        (package / "thing.py").write_text(
            "class Thing:\n    def hot(self):\n        return 1\n"
        )
        (tmp_path / "hotpaths.toml").write_text(
            "[hot]\n"
            'modules = ["core/gone.py"]\n'
            "entries = [\n"
            '    "core/thing.py::Thing.hot",\n'
            '    "core/thing.py::Thing.cold",\n'
            "]\n"
        )
        findings = lint_paths([str(tmp_path / "src")])
        reported = sorted(
            (finding.rule, finding.line, finding.message)
            for finding in findings
            if finding.path.endswith("hotpaths.toml")
        )
        assert reported == [
            ("X0", 2, "hot-path item 'core/gone.py' names no module or "
             "function"),
            ("X0", 5, "hot-path item 'core/thing.py::Thing.cold' names no "
             "module or function"),
        ]


def analyzed(source):
    tree = ast.parse(source)
    return analyze_function(tree.body[0])


class TestAllocAnalysis:
    def test_returned_buffer_escapes(self):
        analysis = analyzed(
            "def f(xs):\n    out = [x for x in xs]\n    return out\n"
        )
        (site,) = sites_of_kind(analysis, {COMPREHENSION})
        assert analysis.escapes(site)

    def test_containment_propagates_escape(self):
        analysis = analyzed(
            "def f(xs):\n    out = []\n"
            "    for x in xs:\n        row = [x]\n        out.append(row)\n"
            "    return out\n"
        )
        sites = {site.name: site for site in analysis.sites}
        # Escape (checked first by H1) silences the site even though its
        # binding pattern is per-iteration.
        assert analysis.escapes(sites["row"])

    def test_loop_local_temporary_is_iteration_local(self):
        analysis = analyzed(
            "def f(xs):\n    total = 0\n"
            "    for x in xs:\n        row = [y for y in x]\n"
            "        total += len(row)\n    return total\n"
        )
        (site,) = sites_of_kind(analysis, {COMPREHENSION})
        assert not analysis.escapes(site)
        assert analysis.iteration_local(site)

    def test_carry_over_read_is_not_iteration_local(self):
        analysis = analyzed(
            "def f(xs):\n    row = []\n"
            "    for x in xs:\n        use(row)\n"
            "        row = [y for y in x]\n    return 0\n"
        )
        (site,) = sites_of_kind(analysis, {COMPREHENSION})
        assert not analysis.iteration_local(site)

    def test_read_after_loop_is_not_iteration_local(self):
        analysis = analyzed(
            "def f(xs):\n"
            "    for x in xs:\n        row = sorted(x)\n"
            "    return len(row)\n"
        )
        (site,) = sites_of_kind(analysis, {SORTED_COPY})
        assert not analysis.iteration_local(site)

    def test_store_consultation_does_not_retain(self):
        analysis = analyzed(
            "def f(self, view, values, priority):\n"
            "    buf = [v for v in values]\n"
            "    return self.store.count_violated_higher_batch("
            "view, buf, priority)[0]\n"
        )
        (site,) = sites_of_kind(analysis, {COMPREHENSION})
        assert not analysis.escapes(site)

    def test_sorted_copy_classification(self):
        analysis = analyzed(
            "def f(self):\n    return sorted(self.items)\n"
        )
        (site,) = sites_of_kind(analysis, CONTAINER_KINDS)
        assert site.kind == SORTED_COPY
