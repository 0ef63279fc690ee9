"""The DPOR explorer: pruning, invariants, and the seeded race.

The acceptance test of the whole verifier lives here: the deliberately racy
agent in ``tests/verify/fixtures/racy_agent.py`` must be caught
*dynamically* — the
explorer has to find the two delivery orders and report the outcome
divergence.
"""

from repro.verify.corpus import corpus_by_name
from repro.verify.explorer import explore_corpus, explore_entry

from .fixtures.racy_agent import RacyAgent, build_racy_setup


class RacyEntry:
    """Duck-typed corpus entry wrapping the seeded-race fixture."""

    name = "racy-fixture"
    algorithm = "RacyAgent"
    max_cycles = 50

    def build(self):
        return build_racy_setup()


class TestSeededRace:
    def test_outcome_divergence_is_reported(self):
        report = explore_entry(RacyEntry(), count_naive=False)
        # Two ok? messages race to agent 0: both orders must be explored —
        # the racy pair is same-recipient, so pruning may never drop it.
        assert report.explored == 2
        assert report.outcomes == {"solved": 1, "quiescent": 1}
        # The quiescent order also ends unsolved, which check_run flags
        # on its own; the cross-run check reports the divergence.
        [quiescent, divergence] = report.violations
        assert "quiescent and unsolved" in quiescent
        assert "diverges" in divergence

    def test_race_survives_as_an_undeclared_pair_is_dependent(self):
        # RacyAgent declares no commuting deliveries, so the explorer must
        # treat its (Ok, Ok) pair as dependent, not commute it away.
        assert RacyAgent.commuting_deliveries == frozenset()
        pruned = explore_entry(RacyEntry(), count_naive=False)
        naive = explore_entry(RacyEntry(), prune=False, count_naive=False)
        assert pruned.explored == naive.explored == 2


class TestPinnedCorpus:
    def test_explored_counts_and_outcomes_are_pinned(self):
        # The per-entry schedule counts BENCH_verify.json records. A change
        # to what the explorer prunes shows up here first.
        report = explore_corpus(count_naive=False)
        assert [(e.name, e.explored) for e in report.entries] == [
            ("awc-rslv-n4", 337),
            ("awc-norec-n4", 725),
            ("awc-no-n4", 337),
            ("abt-n6", 108),
            ("db-n4", 792),
            ("multi-awc-n5", 68),
        ]
        for entry in report.entries:
            assert not entry.explored_capped
            assert entry.outcomes == {"solved": entry.explored}
        assert report.violations == []


class TestCorpusExploration:
    def test_pinned_entry_closes_clean(self):
        [entry] = corpus_by_name(["multi-awc-n5"])
        report = explore_entry(entry, count_naive=False)
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

    def test_pruning_shrinks_the_tree(self):
        [entry] = corpus_by_name(["multi-awc-n5"])
        pruned = explore_entry(entry, count_naive=False)
        naive = explore_entry(
            entry,
            prune=False,
            count_naive=False,
            budget=pruned.explored * 3,
        )
        explored_more = naive.explored > pruned.explored
        assert explored_more or naive.explored_capped

    def test_budget_caps_exploration(self):
        [entry] = corpus_by_name(["abt-n6"])
        report = explore_entry(
            entry, budget=5, count_naive=False
        )
        assert report.explored == 5
        assert report.explored_capped

    def test_capped_naive_count_is_a_lower_bound(self):
        [entry] = corpus_by_name(["multi-awc-n5"])
        report = explore_entry(entry, naive_budget=10)
        assert report.naive_counted
        assert report.naive_capped
        assert report.naive == 10
        assert report.prune_ratio == 10 / report.explored

    def test_corpus_report_aggregates(self):
        entries = corpus_by_name(["multi-awc-n5", "db-n4"])
        report = explore_corpus(entries, count_naive=False)
        assert [e.name for e in report.entries] == ["multi-awc-n5", "db-n4"]
        assert report.explored == sum(e.explored for e in report.entries)
        assert report.violations == []
        payload = report.as_dict()
        assert payload["explored"] == report.explored
        assert len(payload["entries"]) == 2
