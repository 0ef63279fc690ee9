"""Execution tracing."""

from repro.algorithms.awc import build_awc_agents
from repro.learning import learning_method
from repro.problems.coloring import random_coloring_instance
from repro.runtime.messages import OkMessage
from repro.runtime.metrics import MetricsCollector
from repro.runtime.simulator import SynchronousSimulator
from repro.runtime.trace import (
    MessageEvent,
    TraceRecorder,
    ValueChangeEvent,
)


def traced_run(seed=0, max_events=100_000):
    problem = random_coloring_instance(10, seed=4).to_discsp()
    metrics = MetricsCollector()
    agents = build_awc_agents(
        problem, learning_method("Rslv"), metrics, seed
    )
    tracer = TraceRecorder(max_events=max_events)
    simulator = SynchronousSimulator(
        problem, agents, metrics=metrics, tracer=tracer
    )
    result = simulator.run()
    return result, tracer


class TestRecording:
    def test_messages_match_network_count(self):
        result, tracer = traced_run()
        assert len(tracer.messages) == result.messages_sent

    def test_initial_values_recorded_as_changes(self):
        result, tracer = traced_run()
        changed = {event.variable for event in tracer.changes}
        first = {
            event.variable
            for event in tracer.changes
            if event.old_value is None
        }
        assert first == changed | first  # every variable appears once fresh

    def test_trace_is_purely_observational(self):
        traced, _tracer = traced_run(seed=1)
        problem = random_coloring_instance(10, seed=4).to_discsp()
        metrics = MetricsCollector()
        agents = build_awc_agents(
            problem, learning_method("Rslv"), metrics, 1
        )
        untraced = SynchronousSimulator(
            problem, agents, metrics=metrics
        ).run()
        assert traced.cycles == untraced.cycles
        assert traced.maxcck == untraced.maxcck
        assert traced.assignment == untraced.assignment

    def test_event_cap_drops_and_counts(self):
        _result, tracer = traced_run(max_events=5)
        _result, full = traced_run()
        assert len(tracer.messages) == 5
        assert tracer.dropped > 0
        # The cap keeps the run's first messages and drops the later ones.
        assert tracer.messages == full.messages[:5]


class TestQueries:
    def test_message_counts_by_type(self):
        _result, tracer = traced_run()
        counts = tracer.message_counts_by_type()
        assert counts.get("OkMessage", 0) > 0
        assert sum(counts.values()) == len(tracer.messages)

    def test_messages_in_cycle_zero_are_initial_oks(self):
        _result, tracer = traced_run()
        initial = tracer.messages_in_cycle(0)
        assert initial
        assert all(isinstance(e.message, OkMessage) for e in initial)

    def test_changes_of_variable(self):
        _result, tracer = traced_run()
        for event in tracer.changes_of(0):
            assert event.variable == 0

    def test_busiest_agents_ranked(self):
        _result, tracer = traced_run()
        busiest = tracer.busiest_agents(top=3)
        counts = [count for _agent, count in busiest]
        assert counts == sorted(counts, reverse=True)

    def test_render_produces_lines(self):
        _result, tracer = traced_run()
        text = tracer.render(limit=10)
        lines = text.splitlines()
        assert len(lines) >= 10
        assert "->" in lines[0] or "x" in lines[0]

    def test_describe_formats(self):
        message_event = MessageEvent(3, 0, 1, OkMessage(0, 0, 2, 1))
        assert "0 -> 1" in message_event.describe()
        change = ValueChangeEvent(4, 7, 0, 1)
        assert "x7" in change.describe()
