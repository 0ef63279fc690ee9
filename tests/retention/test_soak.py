"""The soak harness: persistent populations, budgets, and determinism."""

import json

import pytest

from repro.core.exceptions import ModelError
from repro.experiments.soak import run_soak

SOAK_KWARGS = dict(
    episodes=8,
    pool=2,
    n=12,
    budget=10,
    max_cycles=500,
    seed=11,
)


@pytest.fixture(scope="module")
def report():
    return run_soak(policies=("keep-all", "lru", "subsume"), **SOAK_KWARGS)


class TestStream:
    def test_every_policy_reported(self, report):
        assert [row.policy for row in report.policies] == [
            "keep-all",
            "lru:10",
            "subsume",
        ]

    def test_episode_counts(self, report):
        for row in report.policies:
            assert row.episodes == 8
            assert row.solved + row.capped >= row.solved  # capped >= 0
            assert row.solved <= row.episodes

    def test_solutions_reverified(self, report):
        assert report.all_verified
        for row in report.policies:
            assert row.verified == row.solved

    def test_bounded_policy_within_budget(self, report):
        assert report.all_within_budget
        lru = next(row for row in report.policies if row.policy == "lru:10")
        assert lru.bounded
        assert lru.peak_learned <= 10
        assert lru.evictions > 0

    def test_keep_all_grows_past_budget(self, report):
        keep_all = next(
            row for row in report.policies if row.policy == "keep-all"
        )
        assert not keep_all.bounded
        assert keep_all.evictions == 0
        # Persistent populations accumulate: the unbounded store must
        # actually exceed the budget for the bounded comparison to mean
        # anything.
        assert keep_all.peak_learned > 10

    def test_generation_accounting_reaches_the_stream(self, report):
        # Every episode runs Rslv on a fresh collector; the stream must
        # add up what the episodes' collectors saw.
        for row in report.policies:
            assert row.total_generated > 0, row.policy
            assert 0 <= row.total_redundant <= row.total_generated

    def test_interner_deduplicates(self, report):
        for row in report.policies:
            assert row.interner["hits"] > 0
            assert row.interner["unique"] == row.interner["misses"]


class TestDeterminismAndSerialization:
    def test_same_seed_same_report(self):
        first = run_soak(policies=("lru",), **SOAK_KWARGS)
        second = run_soak(policies=("lru",), **SOAK_KWARGS)
        assert first.to_json() == second.to_json()

    def test_json_roundtrip(self, report, tmp_path):
        path = tmp_path / "soak.json"
        report.write_json(str(path))
        data = json.loads(path.read_text())
        assert data["episodes"] == 8
        assert data["all_verified"] is True
        assert set(data["policies"]) == {"keep-all", "lru:10", "subsume"}
        assert data["policies"]["lru:10"]["within_budget"] is True

    def test_format_text_mentions_every_policy(self, report):
        text = report.format_text()
        assert "keep-all" in text
        assert "lru:10" in text
        assert "subsume" in text


class TestArgumentValidation:
    def test_bad_episodes(self):
        with pytest.raises(ModelError, match="episodes"):
            run_soak(episodes=0)

    def test_bad_pool(self):
        with pytest.raises(ModelError, match="pool"):
            run_soak(pool=0)

    def test_bad_budget(self):
        with pytest.raises(ModelError, match="budget"):
            run_soak(budget=0)

    def test_no_policies(self):
        with pytest.raises(ModelError, match="policy"):
            run_soak(policies=())

    def test_bad_policy_spec(self):
        with pytest.raises(ModelError):
            run_soak(policies=("fifo",), episodes=1, pool=1)

