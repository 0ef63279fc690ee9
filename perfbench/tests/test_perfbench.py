"""Tests for the benchmark's own code: timing arithmetic, the correctness
check, and the traced run's patching of the library."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import cells
import layers
import speed
from repro import algorithm_by_name

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
TINY = cells.Workload("tiny", "d3c", 30, ("AWC+Rslv",), 1, 2, 60)
#: Per-layer metrics run.py adds to the tracer's own.
RUN_LEVEL = {
    "problems.instance_s",
    "experiments.overhead_s",
    "trace.overhead_ratio",
}


def declared(section):
    return {metric["name"] for metric in MANIFEST[section]}


def fingerprints(trials):
    return [trial.fingerprint() for trial in trials]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    cache = tmp_path_factory.mktemp("tiny") / "cache"
    instances = cells.build_instances(TINY, 0, cache)
    _, trials = cells.run_trials(TINY, 0)
    assert any(trial.result.solved for trial in trials)
    return instances, trials


def test_timing_metrics_take_medians_and_the_slowest_trial():
    metrics = cells.timing_metrics(
        run_times=[3.0, 1.0, 2.0],
        trial_times=[[1.0, 2.0], [3.0, 4.0], [2.0, 9.0]],
        checks=100,
    )
    assert metrics == {
        "run_s": 2.0,
        "checks_per_s": 50.0,
        "trial_p50_s": 3.0,
        "trial_max_s": 4.0,
    }
    assert set(metrics) | {"setup_s", "peak_rss_mb"} == declared("end_to_end")


def test_probe_scales_follow_the_host_but_not_one_noisy_probe():
    half_speed = [2 * speed.REFERENCE_S] * 7
    half_speed[3] = speed.REFERENCE_S / 2
    assert speed.scales(half_speed) == pytest.approx([0.5] * 6)


def test_repeated_trials_pass_the_fingerprint_check(tiny):
    instances, trials = tiny
    _, again = cells.run_trials(TINY, 0)
    assert cells.count_failures(again, instances, fingerprints(trials)) == 0


def test_a_perturbed_trial_fails_the_fingerprint_check(tiny):
    instances, trials = tiny
    expected = fingerprints(trials)
    expected[1][cells.FINGERPRINT_FIELDS.index("total_checks")] += 1
    assert cells.count_failures(trials, instances, expected) == 1
    assert cells.count_failures(trials[:-1], instances, fingerprints(trials)) == 1


def test_a_false_solution_fails_the_solution_check(tiny):
    instances, trials = tiny
    trial = next(trial for trial in trials if trial.result.solved)
    colour = next(iter(trial.result.assignment.values()))
    one_colour = dict.fromkeys(trial.result.assignment, colour)
    broken = replace(trial.result, assignment=one_colour)
    bad = cells.Trial(trial.label, trial.instance, broken)
    assert cells.count_failures([trial], instances) == 0
    assert cells.count_failures([bad], instances) == 1


def test_the_checker_holds_later_runs_to_the_first(tiny):
    instances, trials = tiny
    checker = cells.Checker(instances)
    checker.check(trials)
    checker.check(trials)
    assert (checker.attempted, checker.failed) == (2 * len(trials), 0)
    slower = replace(trials[0].result, cycles=trials[0].result.cycles + 1)
    checker.check([cells.Trial(trials[0].label, 0, slower), *trials[1:]])
    assert checker.failed == 1


def current_attributes():
    found = {}
    for _span, module, path in layers.TARGETS:
        owner, name, value = layers.resolve(module, path)
        found[module, path] = (value, name in vars(owner))
    return found


def test_install_then_uninstall_leaves_every_attribute_as_it_was():
    before = current_attributes()
    tracer = layers.Tracer()
    with tracer.installed():
        during = current_attributes()
        assert all(during[key][0] is not before[key][0] for key in before)
    assert current_attributes() == before
    for key, (value, _owned) in current_attributes().items():
        assert value is before[key][0], key
    assert not tracer.absent


def test_uninstall_also_runs_when_the_traced_run_raises():
    before = current_attributes()
    with pytest.raises(RuntimeError):
        with layers.Tracer().installed():
            raise RuntimeError("trial failed")
    for key, (value, _owned) in current_attributes().items():
        assert value is before[key][0], key


def test_a_missing_target_marks_its_span_absent_and_skips_it():
    before = current_attributes()
    send = ("repro.runtime.network", "SynchronousNetwork.send")
    targets = layers.TARGETS + (
        ("runtime.send", "repro.runtime.no_such_module", "send"),
        ("gone", "repro.runtime.network", "NoSuchNetwork.send"),
    )
    tracer = layers.Tracer(targets)
    with tracer.installed():
        assert layers.resolve(*send)[2] is before[send][0]
    assert tracer.absent == {"runtime.send", "gone"}
    metrics = tracer.metrics([])
    assert "runtime.send_s" not in metrics
    assert "runtime.deliver_s" in metrics


def test_the_traced_run_repeats_the_untraced_trajectories(tiny):
    _, trials = tiny
    tracer = layers.Tracer()
    with tracer.installed():
        _, traced = cells.run_trials(
            TINY, 0, lambda label: tracer.capture(algorithm_by_name(label))
        )
    assert fingerprints(traced) == fingerprints(trials)
    results = [trial.result for trial in traced]
    metrics = tracer.metrics(results)
    assert set(metrics) | RUN_LEVEL == declared("per_layer")
    assert metrics["store.checks"] == sum(r.total_checks for r in results)
    assert metrics["runtime.messages"] == sum(r.messages_sent for r in results)
    assert metrics["algorithms.step_calls"] > 0
    assert metrics["learning.make_calls"] > 0
    assert 0.0 < metrics["store.key_cache_hit_ratio"] <= 1.0
