"""Descriptive statistics."""

import math

import pytest

from repro.analysis.stats import (
    compare,
    mean,
    measure,
    median,
    percentile,
    std,
    summarize,
    summarize_cycles,
    summarize_maxcck,
)
from repro.core.exceptions import ModelError
from repro.runtime.simulator import RunResult


def trial(cycles=10, maxcck=100):
    return RunResult(
        solved=True,
        unsolvable=False,
        capped=False,
        quiescent=False,
        cycles=cycles,
        maxcck=maxcck,
        total_checks=maxcck,
        messages_sent=0,
        generated_nogoods=0,
        redundant_generations=0,
    )


class TestBasics:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0
        with pytest.raises(ModelError):
            mean([])

    def test_std_known_value(self):
        assert std([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(
            math.sqrt(32 / 7)
        )
        assert std([5]) == 0.0

    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5
        with pytest.raises(ModelError):
            median([])

    def test_percentile(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 0) == 10
        assert percentile(values, 100) == 40
        assert percentile(values, 50) == 25.0
        with pytest.raises(ModelError):
            percentile(values, 120)
        with pytest.raises(ModelError):
            percentile([], 50)


class TestSummarize:
    def test_fields(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.mean == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.median == 3.0
        assert summary.ci_low < 3.0 < summary.ci_high

    def test_single_value_has_zero_width_interval(self):
        summary = summarize([7])
        assert summary.ci_low == summary.ci_high == 7.0

    def test_str_mentions_everything(self):
        text = str(summarize([1, 2, 3]))
        assert "mean" in text and "CI" in text and "n=3" in text

    def test_trial_helpers(self):
        trials = [trial(cycles=10, maxcck=100), trial(cycles=20, maxcck=300)]
        assert summarize_cycles(trials).mean == 15.0
        assert summarize_maxcck(trials).mean == 200.0
        assert measure(trials, lambda t: t.cycles) == [10.0, 20.0]


class TestComparison:
    def test_ratio_and_separation(self):
        a = [trial(cycles=10)] * 10
        b = [trial(cycles=100)] * 10
        comparison = compare(
            "fast", a, "slow", b, lambda t: t.cycles
        )
        assert comparison.mean_ratio == pytest.approx(0.1)
        assert comparison.a_clearly_below_b

    def test_overlapping_intervals_not_clearly_separated(self):
        a = [trial(cycles=c) for c in (5, 50)]
        b = [trial(cycles=c) for c in (10, 45)]
        comparison = compare("a", a, "b", b, lambda t: t.cycles)
        assert not comparison.a_clearly_below_b

    def test_zero_denominator(self):
        a = [trial(cycles=5)]
        b = [trial(cycles=0)]
        comparison = compare("a", a, "b", b, lambda t: t.cycles)
        assert comparison.mean_ratio == math.inf

    def test_str(self):
        a = [trial(cycles=5)]
        comparison = compare("a", a, "b", a, lambda t: t.cycles)
        assert "ratio of means" in str(comparison)
