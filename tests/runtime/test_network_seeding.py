"""Seeded network models: schedules are a pure function of the seed.

The asynchronous-network experiments (Section 6's delay/loss variations)
only reproduce if the network's randomness is part of the trial seed, not
process-global state. These tests pin that: a network model built from the
same trial seed always yields the same delivery schedule, different seeds
differ, every model survives pickling (a process pool ships them to
workers), and a malformed spec is rejected when it is parsed.
"""

import pickle

import pytest

from repro.core.exceptions import ModelError
from repro.experiments.asynchrony import DEFAULT_NETWORKS
from repro.experiments.runner import network_model


def delivery_schedule(network, num_messages=40, max_steps=200):
    """Inject messages and record which arrive at each deliver() step."""
    for index in range(num_messages):
        network.send("a", "b", index)
    schedule = []
    steps = 0
    while not network.is_idle() and steps < max_steps:
        steps += 1
        inbox = network.deliver()
        schedule.append(tuple(inbox.get("b", ())))
    return tuple(schedule)


class TestRandomDelaySeeding:
    def test_same_seed_same_schedule(self):
        model = network_model("random:4")
        assert delivery_schedule(model(11)) == delivery_schedule(model(11))

    def test_different_seed_different_schedule(self):
        model = network_model("random:4")
        assert delivery_schedule(model(11)) != delivery_schedule(model(12))


class TestLossySeeding:
    def test_same_seed_same_schedule(self):
        model = network_model("lossy:40")
        assert delivery_schedule(model(3)) == delivery_schedule(model(3))

    def test_different_seed_different_schedule(self):
        model = network_model("lossy:40")
        assert delivery_schedule(model(3)) != delivery_schedule(model(4))


class TestFactories:
    def test_factories_are_picklable(self):
        for spec in (*DEFAULT_NETWORKS, "random:2:reorder", "lossy:10"):
            model = network_model(spec)
            clone = pickle.loads(pickle.dumps(model))
            assert clone == model

    def test_factory_threads_the_trial_seed(self):
        model = network_model("random:4")
        assert delivery_schedule(model(21)) == delivery_schedule(model(21))
        assert delivery_schedule(model(21)) != delivery_schedule(model(22))

    def test_pickled_factory_builds_identical_networks(self):
        model = network_model("lossy:40")
        clone = pickle.loads(pickle.dumps(model))
        assert delivery_schedule(model(5)) == delivery_schedule(clone(5))


class TestSpecParsing:
    @pytest.mark.parametrize(
        "spec",
        [
            "random:3:reoder",
            "random:3:reorder:x",
            "random:reorder",
            "sync:5",
            "fixed:2:9",
            "fixed:x",
            "fixed:",
            "lossy:10:2",
        ],
    )
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ModelError):
            network_model(spec)

    @pytest.mark.parametrize(
        "spec, name",
        [
            ("fixed", "fixed(2)"),
            ("random", "random(3)"),
            ("lossy", "lossy(30%)"),
            ("lossy:10", "lossy(10%)"),
        ],
    )
    def test_omitted_number_takes_its_default(self, spec, name):
        assert network_model(spec).name == name
