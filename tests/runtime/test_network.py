"""Network models: synchronous one-cycle delivery and random delays."""

import random

import pytest

from repro.core.exceptions import SimulationError
from repro.runtime.messages import OkMessage
from repro.runtime.network import (
    FixedDelayNetwork,
    RandomDelayNetwork,
    SynchronousNetwork,
)


def ok(sender, value=0):
    return OkMessage(sender=sender, variable=sender, value=value)


class TestSynchronousNetwork:
    def test_delivers_next_cycle(self):
        net = SynchronousNetwork()
        net.send(0, 1, ok(0))
        inbox = net.deliver()
        assert inbox == {1: [ok(0)]}

    def test_messages_do_not_linger(self):
        net = SynchronousNetwork()
        net.send(0, 1, ok(0))
        net.deliver()
        assert net.deliver() == {}

    def test_batches_by_recipient(self):
        net = SynchronousNetwork()
        net.send(0, 2, ok(0))
        net.send(1, 2, ok(1))
        net.send(0, 3, ok(0, value=1))
        inbox = net.deliver()
        assert inbox[2] == [ok(0), ok(1)]
        assert inbox[3] == [ok(0, value=1)]

    def test_counts(self):
        net = SynchronousNetwork()
        net.send(0, 1, ok(0))
        net.send(0, 2, ok(0))
        assert net.sent_count == 2
        assert net.pending() == 2
        assert not net.is_idle()
        net.deliver()
        assert net.delivered_count == 2
        assert net.is_idle()

    def test_rejects_self_send(self):
        net = SynchronousNetwork()
        with pytest.raises(SimulationError):
            net.send(1, 1, ok(1))


class TestSynchronousSendAll:
    AGENTS = frozenset(range(4))

    def test_per_recipient_order_is_global_send_order(self):
        net = SynchronousNetwork()
        net.send_all(0, [(2, ok(0)), (3, ok(0))], self.AGENTS)
        net.send(1, 2, ok(1))
        net.send_all(3, [(2, ok(3)), (0, ok(3))], self.AGENTS)
        net.send_all(0, [(2, ok(0, value=1))], self.AGENTS)
        inbox = net.deliver()
        assert inbox == {
            2: [ok(0), ok(1), ok(3), ok(0, value=1)],
            3: [ok(0)],
            0: [ok(3)],
        }

    def test_counts_across_cycles(self):
        net = SynchronousNetwork()
        net.send_all(0, [(1, ok(0)), (2, ok(0))], self.AGENTS)
        net.send_all(1, [], self.AGENTS)
        assert (net.sent_count, net.pending(), net.delivered_count) == (2, 2, 0)
        assert len(net.deliver()[1]) == 1
        assert (net.sent_count, net.pending(), net.delivered_count) == (2, 0, 2)
        assert net.is_idle()
        net.send_all(2, [(0, ok(2)), (1, ok(2)), (3, ok(2))], self.AGENTS)
        assert (net.sent_count, net.pending()) == (5, 3)
        net.deliver()
        assert (net.sent_count, net.pending(), net.delivered_count) == (5, 0, 5)
        assert net.deliver() == {}

    def test_rejects_self_send(self):
        net = SynchronousNetwork()
        with pytest.raises(SimulationError, match="itself"):
            net.send_all(1, [(2, ok(1)), (1, ok(1))], self.AGENTS)
        # The message before the bad one was queued and counted.
        assert net.sent_count == net.pending() == 1

    def test_rejects_unknown_recipient(self):
        net = SynchronousNetwork()
        with pytest.raises(SimulationError, match="unknown agent 9"):
            net.send_all(1, [(9, ok(1))], self.AGENTS)
        assert net.sent_count == net.pending() == 0

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: FixedDelayNetwork(2),
            lambda: RandomDelayNetwork(max_delay=3, rng=random.Random(0)),
        ],
    )
    def test_base_send_all_checks_recipients_too(self, factory):
        net = factory()
        with pytest.raises(SimulationError, match="unknown agent 9"):
            net.send_all(1, [(9, ok(1))], self.AGENTS)
        with pytest.raises(SimulationError, match="itself"):
            net.send_all(1, [(1, ok(1))], self.AGENTS)
        net.send_all(1, [(2, ok(1)), (0, ok(1))], self.AGENTS)
        assert net.sent_count == net.pending() == 2


class TestRandomDelayNetwork:
    def test_every_message_is_eventually_delivered_exactly_once(self):
        net = RandomDelayNetwork(max_delay=4, rng=random.Random(0))
        sent = []
        for i in range(50):
            message = ok(0, value=i)
            net.send(0, 1, message)
            sent.append(message)
        received = []
        for _ in range(100):
            inbox = net.deliver()
            received.extend(inbox.get(1, []))
            if net.is_idle():
                break
        assert sorted(m.value for m in received) == list(range(50))

    def test_fifo_preserves_channel_order(self):
        net = RandomDelayNetwork(max_delay=5, rng=random.Random(3), fifo=True)
        for i in range(30):
            net.send(0, 1, ok(0, value=i))
        received = []
        while not net.is_idle():
            received.extend(net.deliver().get(1, []))
        assert [m.value for m in received] == list(range(30))

    def test_non_fifo_can_reorder(self):
        # With many messages and delays up to 5, some pair almost surely
        # overtakes; the seed below is checked to exhibit it.
        net = RandomDelayNetwork(max_delay=5, rng=random.Random(1), fifo=False)
        for i in range(30):
            net.send(0, 1, ok(0, value=i))
        received = []
        while not net.is_idle():
            received.extend(net.deliver().get(1, []))
        values = [m.value for m in received]
        assert sorted(values) == list(range(30))
        assert values != list(range(30))

    def test_delay_of_one_behaves_synchronously(self):
        net = RandomDelayNetwork(max_delay=1, rng=random.Random(0))
        net.send(0, 1, ok(0))
        assert net.deliver() == {1: [ok(0)]}

    def test_deterministic_for_seed(self):
        def run(seed):
            net = RandomDelayNetwork(max_delay=4, rng=random.Random(seed))
            for i in range(20):
                net.send(0, 1, ok(0, value=i))
            trace = []
            while not net.is_idle():
                trace.append([m.value for m in net.deliver().get(1, [])])
            return trace

        assert run(7) == run(7)

    def test_rejects_bad_delay(self):
        with pytest.raises(SimulationError):
            RandomDelayNetwork(max_delay=0, rng=random.Random(0))

    def test_rejects_self_send(self):
        net = RandomDelayNetwork(rng=random.Random(0))
        with pytest.raises(SimulationError):
            net.send(2, 2, ok(2))
