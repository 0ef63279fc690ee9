"""The asynchrony extension experiment."""

import pytest

from repro.core.exceptions import ModelError
from repro.experiments.asynchrony import (
    DEFAULT_NETWORKS,
    delay_response,
    network_model,
    run_asynchrony_table,
)
from repro.experiments.paper import QUICK_SCALE
from repro.runtime.network import (
    FixedDelayNetwork,
    RandomDelayNetwork,
    SynchronousNetwork,
)


class TestNetworkModelParsing:
    def test_sync(self):
        model = network_model("sync")
        assert model.name == "sync"
        assert isinstance(model(0), SynchronousNetwork)

    def test_fixed_with_delay(self):
        model = network_model("fixed:5")
        network = model(0)
        assert isinstance(network, FixedDelayNetwork)
        assert network.delay == 5
        assert model.name == "fixed(5)"

    def test_random_fifo_default(self):
        model = network_model("random:4")
        network = model(0)
        assert isinstance(network, RandomDelayNetwork)
        assert network.fifo is True
        assert network.max_delay == 4

    def test_random_reorder(self):
        model = network_model("random:4:reorder")
        assert model(0).fifo is False
        assert model.name == "random(4)/reorder"

    def test_unknown_rejected(self):
        with pytest.raises(ModelError):
            network_model("carrier-pigeon")


class TestAsynchronyTable:
    @pytest.fixture(scope="class")
    def table(self):
        return run_asynchrony_table(scale=QUICK_SCALE, seed=0)

    def test_all_rows_present(self, table):
        assert len(table.rows) == 2 * len(DEFAULT_NETWORKS)

    def test_everything_solves(self, table):
        assert all(row.percent == 100.0 for row in table.rows)

    def test_delay_increases_cycles(self, table):
        for algorithm in ("AWC+Rslv", "DB"):
            series = dict(delay_response(table, algorithm))
            assert series["fixed(2)"] > series["sync"]
            assert series["fixed(4)"] > series["fixed(2)"]

    def test_delay_response_extraction(self, table):
        series = delay_response(table, "DB")
        assert [network for network, _ in series] == [
            network_model(spec).name for spec in DEFAULT_NETWORKS
        ]
