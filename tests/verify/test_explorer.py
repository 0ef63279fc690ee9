"""The DPOR explorer: pruning, invariants, and the seeded race.

The acceptance test of the whole verifier lives here: the deliberately racy
agent in ``tests/verify/fixtures/racy_agent.py`` must be caught
*dynamically* — the
explorer has to find the two delivery orders and report the outcome
divergence.
"""

import pytest

from repro.verify.corpus import corpus_by_name
from repro.verify.explorer import (
    explore_corpus,
    explore_entry,
    repo_commutativity_matrix,
)

from .fixtures.racy_agent import build_racy_setup


@pytest.fixture(scope="module")
def matrix():
    return repo_commutativity_matrix()


class RacyEntry:
    """Duck-typed corpus entry wrapping the seeded-race fixture."""

    name = "racy-fixture"
    algorithm = "RacyAgent"
    max_cycles = 50

    def build(self):
        return build_racy_setup()


class TestSeededRace:
    def test_outcome_divergence_is_reported(self, matrix):
        report = explore_entry(RacyEntry(), matrix=matrix, count_naive=False)
        # Two ok? messages race to agent 0: both orders must be explored —
        # the racy pair is same-recipient, so pruning may never drop it.
        assert report.explored == 2
        assert report.outcomes == {"solved": 1, "quiescent": 1}
        # The quiescent order also ends unsolved, which check_run flags
        # on its own; the cross-run check reports the divergence.
        [quiescent, divergence] = report.violations
        assert "quiescent and unsolved" in quiescent
        assert "diverges" in divergence

    def test_race_survives_pruning_because_unknown_pairs_are_dependent(
        self, matrix
    ):
        # RacyAgent is not in src/repro, so its (class, Ok, Ok) entry is
        # absent from the static matrix — the explorer must treat the pair
        # as dependent, not silently commute it away.
        key = ("RacyAgent", "OkMessage", "OkMessage")
        assert key not in matrix
        pruned = explore_entry(RacyEntry(), matrix=matrix, count_naive=False)
        naive = explore_entry(
            RacyEntry(), matrix=matrix, prune=False, count_naive=False
        )
        assert pruned.explored == naive.explored == 2


class TestRepoMatrix:
    def test_absorbing_pairs_commute(self, matrix):
        assert matrix[("AwcAgent", "OkMessage", "RequestValueMessage")]
        assert matrix[("AbtAgent", "OkMessage", "RequestValueMessage")]
        assert matrix[("BreakoutAgent", "ImproveMessage", "OkRoundMessage")]

    def test_view_writers_conflict(self, matrix):
        assert not matrix[("AwcAgent", "NogoodMessage", "OkMessage")]
        assert not matrix[("AwcAgent", "OkMessage", "OkMessage")]
        assert not matrix[("AbtAgent", "NogoodMessage", "OkMessage")]

    def test_matrix_is_symmetric(self, matrix):
        for (cls, type_a, type_b), commutes in matrix.items():
            assert matrix[(cls, type_b, type_a)] == commutes


class TestCorpusExploration:
    def test_pinned_entry_closes_clean(self, matrix):
        [entry] = corpus_by_name(["multi-awc-n5"])
        report = explore_entry(entry, matrix=matrix, count_naive=False)
        assert not report.explored_capped
        assert report.violations == []
        assert report.branch_points > 0
        # Outcome agreement: the conclusive outcomes collapse to one label.
        conclusive = {
            label: count
            for label, count in report.outcomes.items()
            if label != "capped"
        }
        assert len(conclusive) == 1

    def test_pruning_shrinks_the_tree(self, matrix):
        [entry] = corpus_by_name(["multi-awc-n5"])
        pruned = explore_entry(entry, matrix=matrix, count_naive=False)
        naive = explore_entry(
            entry,
            matrix=matrix,
            prune=False,
            count_naive=False,
            budget=pruned.explored * 3,
        )
        explored_more = naive.explored > pruned.explored
        assert explored_more or naive.explored_capped

    def test_budget_caps_exploration(self, matrix):
        [entry] = corpus_by_name(["abt-n6"])
        report = explore_entry(
            entry, matrix=matrix, budget=5, count_naive=False
        )
        assert report.explored == 5
        assert report.explored_capped

    def test_capped_naive_count_is_a_lower_bound(self, matrix):
        [entry] = corpus_by_name(["multi-awc-n5"])
        report = explore_entry(entry, matrix=matrix, naive_budget=10)
        assert report.naive_counted
        assert report.naive_capped
        assert report.naive == 10
        assert report.prune_ratio == 10 / report.explored

    def test_corpus_report_aggregates(self, matrix):
        entries = corpus_by_name(["multi-awc-n5", "db-n4"])
        report = explore_corpus(entries, matrix=matrix, count_naive=False)
        assert [e.name for e in report.entries] == ["multi-awc-n5", "db-n4"]
        assert report.explored == sum(e.explored for e in report.entries)
        assert report.violations == []
        payload = report.as_dict()
        assert payload["explored"] == report.explored
        assert len(payload["entries"]) == 2
