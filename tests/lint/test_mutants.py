"""The lint mutation corpus: evidence for every rule in the catalogue.

``mutants.json`` registers seeded defects in real product code, one or
more per rule, and holds the verdict tables ``tools/lint_mutants.py``
measured on the tree the rules were judged on (``parent``) and on the tree
after the judgement (``final``). These tests keep the corpus applicable,
keep the catalogue and the evidence in step, and re-check that every
surviving rule still flags its own defects.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

from repro.lint.catalogue import KNOWN_RULE_IDS, rule_by_id
from repro.lint.engine import DEFAULT_EXCLUDES, iter_python_files, lint_file
from repro.lint.graph import ProjectGraph

ROOT = Path(__file__).resolve().parents[2]
CORPUS = json.loads((ROOT / "tests" / "lint" / "mutants.json").read_text())
DEFECTS = CORPUS["defects"]
EVIDENCE = CORPUS["evidence"]

sys.path.insert(0, str(ROOT / "tools"))
from lint_mutants import apply_defect, corpus_hash  # noqa: E402


def _harmless(defect, row):
    """A time-only defect is harmless when its recorded timing gate passed:
    it slows nothing the paper-cell benchmark bounds."""
    return defect.get("time_only", False) and row["gates"]["timing"] == "pass"


def _kept_by_evidence(rule_id):
    """The decision rule: a rule stays iff it flags one of its defects at
    the parent, nothing outside lint (the timing gate included) catches
    that defect there, and the defect is not harmless."""
    rows = EVIDENCE["parent"]["rows"]
    return any(
        rows[defect["id"]]["rule_flags"]
        and not rows[defect["id"]]["non_lint_catchers"]
        and not _harmless(defect, rows[defect["id"]])
        for defect in DEFECTS
        if defect["rule"] == rule_id
    )


class TestCorpus:
    @pytest.mark.parametrize("defect", DEFECTS, ids=lambda d: d["id"])
    def test_every_edit_occurs_exactly_once(self, defect):
        text = (ROOT / defect["file"]).read_text()
        for edit in defect["edits"]:
            assert text.count(edit["old"]) == 1, edit["old"]

    def test_every_rule_has_a_defect(self):
        covered = {defect["rule"] for defect in DEFECTS}
        assert KNOWN_RULE_IDS - {"X0"} <= covered

    def test_defect_ids_are_unique(self):
        ids = [defect["id"] for defect in DEFECTS]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("label", ["parent", "final"])
    def test_verdict_tables_describe_this_corpus(self, label):
        table = EVIDENCE[label]
        assert table["corpus_sha256"] == corpus_hash(DEFECTS)
        assert set(table["rows"]) == {defect["id"] for defect in DEFECTS}
        # A gate counts only where it passed on the unmutated tree.
        assert table["clean"]["tier1"] == "pass"


class TestDecision:
    def test_catalogue_is_what_the_evidence_decided(self):
        judged = {defect["rule"] for defect in DEFECTS}
        kept = {rule for rule in judged if _kept_by_evidence(rule)}
        assert KNOWN_RULE_IDS == kept

    def test_deleted_rules_name_a_non_lint_catcher(self):
        for defect in DEFECTS:
            if defect["rule"] in KNOWN_RULE_IDS:
                continue
            for label in ("parent", "final"):
                row = EVIDENCE[label]["rows"][defect["id"]]
                assert row["non_lint_catchers"] or _harmless(defect, row), (
                    label,
                    defect["id"],
                )

    def test_every_defect_is_still_caught_on_the_final_tree(self):
        rows = EVIDENCE["final"]["rows"]
        for defect in DEFECTS:
            row = rows[defect["id"]]
            assert (
                row["non_lint_catchers"]
                or set(row["lint_rules"]) & KNOWN_RULE_IDS
                or _harmless(defect, row)
            ), defect["id"]

    @pytest.mark.parametrize("label", ["parent", "final"])
    def test_every_time_only_defect_has_a_timing_verdict(self, label):
        rows = EVIDENCE[label]["rows"]
        for defect in DEFECTS:
            if defect.get("time_only"):
                verdict = rows[defect["id"]]["gates"]["timing"]
                assert verdict in ("pass", "fail"), (label, defect["id"])


@pytest.fixture(scope="module")
def source_copy(tmp_path_factory):
    target = tmp_path_factory.mktemp("mutant") / "tree"
    shutil.copytree(
        ROOT / "src",
        target / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return target


SURVIVING = [
    defect
    for defect in DEFECTS
    if defect["rule"] in KNOWN_RULE_IDS
    and EVIDENCE["parent"]["rows"][defect["id"]]["rule_flags"]
]


@pytest.mark.parametrize("defect", SURVIVING, ids=lambda d: d["id"])
def test_surviving_rule_flags_its_defect(defect, source_copy):
    mutated = source_copy / defect["file"]
    original = mutated.read_text()
    try:
        apply_defect(source_copy, defect)
        files = iter_python_files(
            [str(source_copy / "src")], list(DEFAULT_EXCLUDES)
        )
        graph = ProjectGraph.build(files)
        findings = lint_file(
            str(mutated), rules=[rule_by_id(defect["rule"])], graph=graph
        )
    finally:
        mutated.write_text(original)
    assert any(finding.rule == defect["rule"] for finding in findings)
