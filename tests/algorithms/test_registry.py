"""The algorithm registry: names map to working builders."""

import pickle

import pytest

from repro.algorithms.abt import ABT_LEARNING_MODES, AbtAgent
from repro.algorithms.awc import AwcAgent
from repro.algorithms.breakout import WEIGHT_MODES, BreakoutAgent
from repro.algorithms.multi_awc import MultiVariableAwcAgent
from repro.algorithms.registry import (
    abt,
    algorithm_by_name,
    awc,
    db,
    multi_awc,
)
from repro.core.exceptions import ModelError
from repro.experiments.runner import run_trial
from repro.learning import ResolventLearning
from repro.problems.coloring import coloring_discsp, random_coloring_instance
from repro.runtime.metrics import MetricsCollector

from ..conftest import triangle_graph


#: Every learning label family :func:`repro.learning.learning_method` takes.
LEARNING_LABELS = ("Rslv", "Mcs", "No", "Rslv/rec", "Rslv/norec", "3rdRslv")


#: Every spec family the registry builds, in every learning label or mode.
EVERY_SPEC = pytest.mark.parametrize(
    "spec",
    [
        *(awc(label) for label in LEARNING_LABELS),
        *(multi_awc(label) for label in LEARNING_LABELS),
        *(db(mode) for mode in WEIGHT_MODES),
        *(abt(mode) for mode in ABT_LEARNING_MODES),
    ],
    ids=lambda spec: spec.name,
)


def trial_fingerprint(spec, problem):
    result = run_trial(problem, spec, seed=3, max_cycles=500)
    return (
        result.solved,
        result.cycles,
        result.maxcck,
        result.total_checks,
        result.messages_sent,
        result.generated_nogoods,
        sorted(result.assignment.items()),
    )


def build(spec):
    problem = coloring_discsp(triangle_graph(), 3)
    return spec.build(problem, MetricsCollector(), 0, None)


class TestSpecs:
    def test_awc_names_follow_learning(self):
        assert awc("Rslv").name == "AWC+Rslv"
        assert awc("3rdRslv").name == "AWC+3rdRslv"
        assert awc("Rslv/norec").name == "AWC+Rslv/norec"

    def test_awc_accepts_method_instance(self):
        spec = awc(ResolventLearning())
        assert spec.name == "AWC+Rslv"

    def test_db_name(self):
        assert db().name == "DB"
        assert db("pair").name == "DB(pair)"

    def test_abt_name(self):
        assert abt().name == "ABT"

    def test_multi_awc_names_follow_learning(self):
        assert multi_awc("Rslv").name == "MultiAWC+Rslv"
        assert multi_awc("No").name == "MultiAWC+No"
        assert multi_awc(ResolventLearning()).name == "MultiAWC+Rslv"

    def test_builders_produce_the_right_agents(self):
        assert all(isinstance(a, AwcAgent) for a in build(awc("Rslv")))
        assert all(isinstance(a, BreakoutAgent) for a in build(db()))
        assert all(isinstance(a, AbtAgent) for a in build(abt()))
        assert all(
            isinstance(a, MultiVariableAwcAgent)
            for a in build(multi_awc("Rslv"))
        )


class TestByName:
    @pytest.mark.parametrize(
        "name",
        [
            "AWC+Rslv",
            "AWC+Mcs",
            "AWC+No",
            "AWC+4thRslv",
            "MultiAWC+Rslv",
            "MultiAWC+No",
            "DB",
            "ABT",
        ],
    )
    def test_round_trips(self, name):
        assert algorithm_by_name(name).name == name

    @EVERY_SPEC
    def test_parses_every_spec_name(self, spec):
        assert algorithm_by_name(spec.name).name == spec.name

    @EVERY_SPEC
    def test_every_spec_pickles(self, spec):
        # A process pool runs the unpickled spec: it must be the same
        # algorithm, down to the trial's trajectory and check counts.
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.name == spec.name
        problem = random_coloring_instance(10, seed=5).to_discsp()
        assert trial_fingerprint(clone, problem) == trial_fingerprint(
            spec, problem
        )

    @pytest.mark.parametrize("name", ["DB(x)", "ABT(pair)", "DB(pair", "DBX"])
    def test_unknown_mode_rejected(self, name):
        with pytest.raises(ModelError):
            algorithm_by_name(name)

    def test_unknown_rejected(self):
        with pytest.raises(ModelError):
            algorithm_by_name("SGD")

    def test_unknown_learning_rejected(self):
        with pytest.raises(ModelError):
            algorithm_by_name("AWC+Nothing")

    def test_unknown_multi_awc_learning_rejected(self):
        with pytest.raises(ModelError):
            algorithm_by_name("MultiAWC+Nothing")
