"""The pinned corpus: tiny, reproducible, and strict about its limits."""

import typing
from collections import Counter

import pytest

from repro.algorithms.multi_awc import MultiVariableAwcAgent
from repro.algorithms.registry import algorithm_by_name
from repro.core.exceptions import ModelError
from repro.experiments.runner import run_trial
from repro.runtime.messages import Message
from repro.runtime.trace import TraceRecorder
from repro.verify.corpus import (
    MAX_NODES,
    PINNED_CORPUS,
    CorpusEntry,
    corpus_by_name,
)


class TestEntry:
    def test_size_cap_enforced(self):
        with pytest.raises(ModelError, match="n <= 8"):
            CorpusEntry("too-big", "ABT", MAX_NODES + 1)

    def test_build_is_reproducible(self):
        entry = PINNED_CORPUS[0]
        first_problem, first_agents = entry.build()
        second_problem, second_agents = entry.build()
        assert first_problem.variables == second_problem.variables
        assert [a.id for a in first_agents] == [a.id for a in second_agents]

    def test_build_shares_the_problem_and_makes_fresh_agents(self):
        entry = PINNED_CORPUS[0]
        first_problem, first_agents = entry.build()
        second_problem, second_agents = entry.build()
        assert first_problem is second_problem
        assert all(
            first is not second
            for first, second in zip(first_agents, second_agents)
        )

    def test_reowning_produces_multi_variable_agents(self):
        entry = next(e for e in PINNED_CORPUS if e.num_agents is not None)
        problem, agents = entry.build()
        assert len(agents) == entry.num_agents
        assert all(isinstance(a, MultiVariableAwcAgent) for a in agents)
        assert len(problem.variables) == entry.num_nodes

    def test_every_entry_builds(self):
        for entry in PINNED_CORPUS:
            problem, agents = entry.build()
            assert agents and problem.variables


class TestSelection:
    def test_empty_selection_is_the_whole_corpus(self):
        assert corpus_by_name([]) == PINNED_CORPUS

    def test_selection_preserves_request_order(self):
        names = [PINNED_CORPUS[2].name, PINNED_CORPUS[0].name]
        assert [e.name for e in corpus_by_name(names)] == names

    def test_unknown_name_rejected_with_the_known_list(self):
        with pytest.raises(ModelError, match="unknown corpus entries"):
            corpus_by_name(["nope"])


class TestTraffic:
    def test_corpus_sends_every_message_type(self):
        sent: Counter = Counter()
        for entry in PINNED_CORPUS:
            recorder = TraceRecorder()
            run_trial(
                entry.problem(),
                algorithm_by_name(entry.algorithm),
                entry.agent_seed,
                max_cycles=entry.max_cycles,
                tracer=recorder,
            )
            sent.update(recorder.message_counts_by_type())
        declared = {kind.__name__ for kind in typing.get_args(Message)}
        assert set(sent) == declared
