"""The event-driven simulator's semantics: termination, validation, tracing."""

import pytest

from repro.algorithms.registry import algorithm_by_name
from repro.core.exceptions import SimulationError
from repro.experiments.runner import random_initial_assignment
from repro.problems.coloring import random_coloring_instance
from repro.runtime.events import (
    EventDrivenSimulator,
    InProcessTransport,
    UniformLatency,
)
from repro.runtime.metrics import MetricsCollector
from repro.runtime.trace import TraceRecorder


def build(problem, label="AWC+Rslv", seed=0, **kwargs):
    metrics = MetricsCollector()
    agents = algorithm_by_name(label).build(
        problem, metrics, seed, random_initial_assignment(problem, seed)
    )
    return EventDrivenSimulator(problem, agents, metrics=metrics, **kwargs)


class TestTermination:
    def test_solves_coloring(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        result = build(problem).run()
        assert result.solved
        assert problem.is_solution(result.assignment)
        assert result.logical_time >= result.cycles

    def test_unsolvable_triangle(self, triangle_2col):
        result = build(triangle_2col, seed=1).run()
        assert result.unsolvable and not result.solved

    def test_epoch_cap(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        result = build(problem, seed=2, max_epochs=1).run()
        assert result.capped and result.cycles == 1

    def test_lucky_initial_assignment_costs_zero_epochs(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        for seed in range(200):
            initial = random_initial_assignment(problem, seed)
            if problem.is_solution(initial):
                result = build(problem, seed=seed).run()
                assert result.solved and result.cycles == 0
                return
        pytest.skip("no lucky seed in range")

    def test_random_latency_still_solves(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        transport = InProcessTransport(
            latency=UniformLatency(max_delay=4, seed=5)
        )
        result = build(problem, seed=3, transport=transport).run()
        assert result.solved
        assert problem.is_solution(result.assignment)
        # Epochs are distinct timestamps, so the clock can only run ahead
        # of (or level with) the epoch count.
        assert result.logical_time >= result.cycles


class TestValidation:
    def test_agents_must_match_problem(self, triangle_3col, triangle_2col):
        metrics = MetricsCollector()
        agents = algorithm_by_name("AWC+Rslv").build(
            triangle_3col,
            metrics,
            0,
            random_initial_assignment(triangle_3col, 0),
        )
        with pytest.raises(SimulationError, match="do not match"):
            EventDrivenSimulator(triangle_2col, agents[:2], metrics=metrics)

    def test_max_epochs_must_be_positive(self, triangle_3col):
        with pytest.raises(SimulationError, match="max_epochs"):
            build(triangle_3col, max_epochs=0)


class TestTracing:
    def test_tracer_sees_messages_and_changes(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        tracer = TraceRecorder()
        result = build(problem, seed=6, tracer=tracer).run()
        assert result.solved
        assert len(tracer.messages) == result.messages_sent
        assert tracer.messages[0].cycle == 0
        records = list(tracer.to_jsonl_records())
        assert records[-1]["event"] == "summary"
        assert records[-1]["messages"] == result.messages_sent

    def test_tracer_does_not_change_results(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        plain = build(problem, seed=6).run()
        traced = build(problem, seed=6, tracer=TraceRecorder()).run()
        assert (plain.cycles, plain.maxcck, plain.assignment) == (
            traced.cycles, traced.maxcck, traced.assignment,
        )
