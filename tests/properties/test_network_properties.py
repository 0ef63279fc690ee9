"""Conservation properties of every network model.

Whatever the delivery policy — synchronous, fixed delay, random delay with
or without FIFO, lossy-with-retransmission — every sent message must be
delivered exactly once, to the right recipient, in finite time. The
algorithms' correctness proofs assume nothing more of the medium; these
properties pin that contract for all implementations at once.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algorithms.registry import algorithm_by_name
from repro.experiments.runner import network_model, run_trial
from repro.problems.coloring import random_coloring_instance
from repro.runtime.messages import OkMessage
from repro.runtime.network import (
    FixedDelayNetwork,
    LossyNetwork,
    RandomDelayNetwork,
    SynchronousNetwork,
)

NETWORK_BUILDERS = [
    lambda seed: SynchronousNetwork(),
    lambda seed: FixedDelayNetwork(delay=3),
    lambda seed: RandomDelayNetwork(
        max_delay=4, rng=random.Random(seed), fifo=True
    ),
    lambda seed: RandomDelayNetwork(
        max_delay=4, rng=random.Random(seed), fifo=False
    ),
    lambda seed: LossyNetwork(loss_rate=0.4, rng=random.Random(seed)),
]

#: (sender, recipient) pairs over 4 agents, sender != recipient.
sends = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda pair: pair[0] != pair[1]
    ),
    max_size=40,
)


@st.composite
def network_and_traffic(draw):
    builder = draw(st.sampled_from(NETWORK_BUILDERS))
    seed = draw(st.integers(0, 10_000))
    traffic = draw(sends)
    return builder(seed), traffic


class TestConservation:
    @given(network_and_traffic())
    @settings(max_examples=80, deadline=None)
    def test_every_message_delivered_exactly_once(self, scenario):
        network, traffic = scenario
        expected = {}
        for index, (sender, recipient) in enumerate(traffic):
            message = OkMessage(sender, sender, index, 0)
            network.send(sender, recipient, message)
            expected[index] = recipient
        received = {}
        for _round in range(500):
            inbox = network.deliver()
            for recipient, messages in inbox.items():
                for message in messages:
                    assert message.value not in received, "duplicate delivery"
                    received[message.value] = recipient
            if network.is_idle():
                break
        assert network.is_idle(), "messages still in flight after 500 cycles"
        assert received == expected

    @given(network_and_traffic())
    @settings(max_examples=40, deadline=None)
    def test_counters_are_consistent(self, scenario):
        network, traffic = scenario
        for index, (sender, recipient) in enumerate(traffic):
            network.send(sender, recipient, OkMessage(sender, sender, index, 0))
        assert network.sent_count == len(traffic)
        while not network.is_idle():
            network.deliver()
        assert network.delivered_count == len(traffic)
        assert network.pending() == 0


def channel_order(network, count=30):
    """Send *count* numbered messages down one channel; return the arrival
    order of their sequence numbers."""
    for index in range(count):
        network.send(0, 1, OkMessage(0, 0, index, 0))
    order = []
    while not network.is_idle():
        for message in network.deliver().get(1, []):
            order.append(message.value)
    return order


class TestReordering:
    """``fifo=False`` is advertised as real reordering — prove it happens.

    A same-channel overtake is a pair delivered out of send order. With
    FIFO on it must never occur; with FIFO off it must actually occur for
    some seed, otherwise the "reorder" rows of the asynchrony table would
    silently measure plain random delay.
    """

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_fifo_never_reorders_a_channel(self, seed):
        network = RandomDelayNetwork(
            max_delay=4, rng=random.Random(seed), fifo=True
        )
        order = channel_order(network)
        assert order == sorted(order)

    def test_no_fifo_overtakes_on_some_seed(self):
        overtakes = 0
        for seed in range(50):
            network = RandomDelayNetwork(
                max_delay=4, rng=random.Random(seed), fifo=False
            )
            order = channel_order(network)
            if order != sorted(order):
                overtakes += 1
        # With 30 messages and delays in 1..4, almost every seed reorders;
        # demand a solid majority so a FIFO regression cannot hide.
        assert overtakes > 25

    def test_awc_resolvent_solves_under_reordering(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        algorithm = algorithm_by_name("AWC+Rslv")
        solved = 0
        for seed in range(3):
            result = run_trial(
                problem,
                algorithm,
                seed,
                max_cycles=5000,
                network_factory=network_model("random:4:reorder"),
            )
            if result.solved:
                assert problem.is_solution(result.assignment)
                solved += 1
        assert solved == 3
