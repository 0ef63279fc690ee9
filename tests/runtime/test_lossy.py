"""The lossy network with retransmission-based reliability."""

import random

import pytest

from repro.algorithms.registry import awc, db
from repro.core.exceptions import SimulationError
from repro.experiments.runner import run_trial
from repro.problems.coloring import random_coloring_instance
from repro.runtime.messages import OkMessage
from repro.runtime.network import LossyNetwork
from repro.runtime.random_source import derive_rng


def ok(sender, value=0):
    return OkMessage(sender=sender, variable=sender, value=value)


class TestDeliveryGuarantee:
    def test_every_message_delivered_exactly_once(self):
        net = LossyNetwork(loss_rate=0.5, rng=random.Random(0))
        for i in range(100):
            net.send(0, 1, ok(0, value=i))
        received = []
        while not net.is_idle():
            received.extend(net.deliver().get(1, []))
        assert sorted(m.value for m in received) == list(range(100))

    def test_channel_fifo_held_back(self):
        net = LossyNetwork(
            loss_rate=0.6, retransmit_after=3, rng=random.Random(5)
        )
        for i in range(50):
            net.send(0, 1, ok(0, value=i))
        received = []
        while not net.is_idle():
            received.extend(net.deliver().get(1, []))
        assert [m.value for m in received] == list(range(50))

    def test_zero_loss_is_synchronous(self):
        net = LossyNetwork(loss_rate=0.0, rng=random.Random(0))
        net.send(0, 1, ok(0))
        assert net.deliver() == {1: [ok(0)]}

    def test_loss_statistics_recorded(self):
        net = LossyNetwork(loss_rate=0.5, rng=random.Random(1))
        for i in range(200):
            net.send(0, 1, ok(0, value=i))
        assert net.retransmissions > 0
        # With loss 0.5, roughly one retransmission per message on average.
        assert 100 < net.retransmissions < 400

    def test_deterministic_for_seed(self):
        def run(seed):
            net = LossyNetwork(loss_rate=0.4, rng=random.Random(seed))
            for i in range(30):
                net.send(0, 1, ok(0, value=i))
            trace = []
            while not net.is_idle():
                trace.append(len(net.deliver().get(1, [])))
            return trace

        assert run(3) == run(3)

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(SimulationError):
            LossyNetwork(loss_rate=1.0, rng=rng)
        with pytest.raises(SimulationError):
            LossyNetwork(loss_rate=-0.1, rng=rng)
        with pytest.raises(SimulationError):
            LossyNetwork(retransmit_after=0, rng=rng)
        net = LossyNetwork(rng=rng)
        with pytest.raises(SimulationError):
            net.send(1, 1, ok(1))

    def test_retransmission_budget_guard(self):
        net = LossyNetwork(
            loss_rate=0.99, max_attempts=3, rng=random.Random(0)
        )
        with pytest.raises(SimulationError):
            for i in range(200):
                net.send(0, 1, ok(0, value=i))


class TestAlgorithmsOnLossyLinks:
    @pytest.mark.parametrize(
        "loss_rate,retransmit_after", [(0.2, 1), (0.5, 2)]
    )
    def test_awc_still_correct(self, loss_rate, retransmit_after):
        problem = random_coloring_instance(15, seed=8).to_discsp()

        def factory(seed):
            return LossyNetwork(
                loss_rate=loss_rate,
                retransmit_after=retransmit_after,
                rng=derive_rng(seed, "lossy"),
            )

        result = run_trial(
            problem,
            awc("Rslv"),
            seed=4,
            max_cycles=20_000,
            network_factory=factory,
        )
        assert result.solved
        assert problem.is_solution(result.assignment)

    def test_db_still_correct(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()

        def factory(seed):
            return LossyNetwork(loss_rate=0.3, rng=derive_rng(seed, "lossy"))

        result = run_trial(
            problem, db(), seed=4, max_cycles=20_000, network_factory=factory
        )
        assert result.solved

    def test_loss_costs_cycles(self):
        problem = random_coloring_instance(15, seed=8).to_discsp()

        def lossy(seed):
            return LossyNetwork(
                loss_rate=0.6, retransmit_after=3,
                rng=derive_rng(seed, "lossy"),
            )

        clean = run_trial(problem, awc("Rslv"), seed=4)
        noisy = run_trial(
            problem, awc("Rslv"), seed=4, max_cycles=20_000,
            network_factory=lossy,
        )
        assert noisy.solved
        assert noisy.cycles > clean.cycles
