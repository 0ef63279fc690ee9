"""ScheduledNetwork: the explorer's replay seam.

The contract under test: exactly one delivery per ``deliver`` (a cycle is
one handler invocation), the enabled set is the per-channel FIFO heads in a
deterministic order, decisions replay bit-for-bit from ``choices_taken``,
and schedule mistakes fail loudly instead of silently reordering.
"""

import pytest

from repro.core.exceptions import SimulationError
from repro.runtime.messages import OkMessage
from repro.runtime.network import ChoicePoint, ScheduledNetwork


def ok(sender, value=0):
    return OkMessage(sender, sender, value)


def delivered(inbox):
    """The single (recipient, message) pair of a one-message inbox."""
    [(recipient, [message])] = inbox.items()
    return recipient, message


def loaded(schedule=()):
    """Two channels into agent 0, one of them two deep."""
    network = ScheduledNetwork(schedule=schedule)
    network.send(2, 0, ok(2, value=10))
    network.send(1, 0, ok(1, value=20))
    network.send(2, 0, ok(2, value=30))
    return network


def drain(network):
    while not network.is_idle():
        network.deliver()


class TestEnabledSet:
    def test_heads_are_per_channel_and_sorted(self):
        enabled = loaded().enabled()
        assert [(d.sender, d.recipient) for d in enabled] == [(1, 0), (2, 0)]
        # Channel (2, 0) is two deep: only its first send is enabled.
        assert enabled[1].message.value == 10

    def test_fifo_within_a_channel(self):
        network = loaded()
        drain(network)
        values = [d.message.value for d in network.delivery_log if d.sender == 2]
        assert values == [10, 30]

    def test_self_send_rejected(self):
        network = ScheduledNetwork()
        with pytest.raises(SimulationError, match="itself"):
            network.send(0, 0, ok(0))


class TestDelivery:
    def test_exactly_one_delivery_per_cycle(self):
        network = loaded()
        recipient, _message = delivered(network.deliver())
        assert recipient == 0
        assert network.pending() == 2

    def test_default_schedule_takes_index_zero(self):
        _recipient, message = delivered(loaded().deliver())
        assert message.sender == 1  # channel (1, 0) sorts first

    def test_schedule_picks_the_head(self):
        network = ScheduledNetwork(schedule=(1,))
        network.send(2, 0, ok(2, value=10))
        network.send(1, 0, ok(1, value=20))
        _recipient, message = delivered(network.deliver())
        assert message.sender == 2 and message.value == 10

    def test_out_of_range_index_fails_loudly(self):
        network = ScheduledNetwork(schedule=(5,))
        network.send(1, 0, ok(1))
        with pytest.raises(SimulationError, match="only 1 channel heads"):
            network.deliver()

    def test_each_delivery_is_one_cycle(self):
        network = ScheduledNetwork()
        assert network.deliver() == {}  # an idle cycle still advances time
        network.send(1, 0, ok(1))
        network.deliver()
        network.send(1, 0, ok(1))
        network.deliver()
        assert [d.time for d in network.delivery_log] == [2, 3]
        assert [point.time for point in network.choice_log] == [2, 3]


class TestChoiceLog:
    def test_records_enabled_and_chosen(self):
        network = ScheduledNetwork(schedule=(1,))
        network.send(2, 0, ok(2))
        network.send(1, 0, ok(1))
        network.deliver()
        [point] = network.choice_log
        assert isinstance(point, ChoicePoint)
        assert point.chosen == 1 and len(point.enabled) == 2
        assert point.branching

    def test_single_head_is_not_branching(self):
        network = ScheduledNetwork()
        network.send(1, 0, ok(1))
        network.deliver()
        assert not network.choice_log[0].branching

    def test_choices_taken_replays_the_run(self):
        first = loaded(schedule=(1,))
        drain(first)
        replay = loaded(schedule=first.choices_taken)
        drain(replay)
        assert replay.delivery_log == first.delivery_log
        assert replay.choices_taken == first.choices_taken
