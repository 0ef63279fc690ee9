"""Pinned trajectories: what every remaining simulation path must reproduce.

Each golden value is a trial's measures — outcome, ``cycles``, ``maxcck``,
checks, messages and generation counts — recorded once and asserted
exactly, so any change to agent scheduling, message ordering, delay
sampling or cost counting shows up here as a diff. The cases:

* the four smoke cells of the paper's benchmark families, 2 instances x 2
  initial-value sets each, plus DB with the original per-pair weights on
  the colouring cell (3 of its 4 trials break out);
* a single agent owning every variable of a multi-variable AWC run with an
  intra-round cap of 1: it sends no network mail at all, so the run must
  not be called quiescent while the agent still has carryover work;
* AWC+Rslv and DB on five 20-node 3-colouring instances under the delay,
  reordering and lossy network models of the asynchrony table — the only
  check that the per-message delay schedules (the random-delay heap and
  its FIFO clamp, the retransmission process) are the ones the seed
  implies, not merely the same across two runs.
"""

import pytest

from repro.algorithms.multi_awc import build_multi_awc_agents
from repro.algorithms.registry import algorithm_by_name
from repro.core import DisCSP
from repro.experiments.asynchrony import network_model
from repro.experiments.paper import instances_for
from repro.experiments.runner import run_cell, run_trial
from repro.learning import learning_method
from repro.problems.coloring import coloring_csp, random_coloring_instance
from repro.runtime.metrics import MetricsCollector
from repro.runtime.random_source import derive_seed
from repro.runtime.simulator import SynchronousSimulator


def measures(result):
    """A trial's pinned measures, with the final assignment as one string."""
    assignment = "".join(
        str(int(value)) for _, value in sorted(result.assignment.items())
    )
    return (
        result.solved,
        result.unsolvable,
        result.capped,
        result.cycles,
        result.maxcck,
        result.total_checks,
        result.messages_sent,
        result.generated_nogoods,
        result.redundant_generations,
        assignment,
    )


SMOKE_CELLS = [
    pytest.param("d3c", 15, "AWC+Rslv", id="coloring-awc-rslv"),
    pytest.param("d3c", 15, "DB", id="coloring-db"),
    pytest.param("d3s", 10, "AWC+Rslv", id="3sat-awc-rslv"),
    pytest.param("d3s", 10, "AWC+No", id="3sat-awc-no"),
    pytest.param("d3c", 15, "DB(pair)", id="coloring-db-pair"),
]


def smoke_cell(family, n, label):
    instances = instances_for(family, n, count=2, seed=0)
    cell = run_cell(
        instances,
        algorithm_by_name(label),
        inits_per_instance=2,
        master_seed=derive_seed(0, family, n, label),
        n=n,
        max_cycles=500,
    )
    return [measures(trial) for trial in cell.trials]


def single_agent_multi_awc():
    instance = random_coloring_instance(10, seed=0)
    csp = coloring_csp(instance.graph, 3)
    problem = DisCSP(csp, {variable: 0 for variable in csp.variables})
    metrics = MetricsCollector()
    agents = build_multi_awc_agents(
        problem, learning_method("Rslv"), metrics, 1, intra_round_cap=1
    )
    return SynchronousSimulator(problem, agents, metrics=metrics).run()


NETWORK_SPECS = ["fixed:2", "random:4", "random:4:reorder", "lossy:30"]
NETWORK_ALGORITHMS = ["AWC+Rslv", "DB"]
NETWORK_SEEDS = range(5)


def network_trial(label, spec, seed):
    problem = random_coloring_instance(20, seed=seed).to_discsp()
    result = run_trial(
        problem,
        algorithm_by_name(label),
        seed,
        network_factory=network_model(spec),
    )
    return measures(result)


GOLDEN_CELLS = {
    ("AWC+Rslv", "d3c"): [
        (True, False, False, 4, 186, 710, 263, 10, 1, "221102110101102"),
        (True, False, False, 11, 624, 1569, 467, 21, 3, "221101110101102"),
        (True, False, False, 4, 115, 475, 186, 6, 2, "012120011122121"),
        (True, False, False, 4, 221, 695, 241, 8, 4, "201012220011010"),
    ],
    ("DB", "d3c"): [
        (True, False, False, 10, 151, 1225, 880, 0, 0, "001120112121120"),
        (True, False, False, 14, 211, 1709, 1200, 0, 0, "220010001010012"),
        (True, False, False, 22, 324, 2720, 1840, 0, 0, "120202112200202"),
        (True, False, False, 32, 480, 3969, 2640, 0, 0, "201010220011010"),
    ],
    ("DB(pair)", "d3c"): [
        (True, False, False, 10, 142, 1210, 880, 0, 0, "112202220202201"),
        (True, False, False, 12, 171, 1492, 1040, 0, 0, "002210221212210"),
        (True, False, False, 6, 81, 720, 560, 0, 0, "120201112200202"),
        (True, False, False, 18, 260, 2217, 1520, 0, 0, "021212022211212"),
    ],
    ("AWC+Rslv", "d3s"): [
        (True, False, False, 31, 1752, 3504, 925, 49, 1, "0110110101"),
        (True, False, False, 25, 1309, 2862, 869, 47, 5, "1001001010"),
        (True, False, False, 6, 180, 433, 241, 7, 0, "1100101011"),
        (True, False, False, 5, 197, 460, 266, 10, 0, "0011000100"),
    ],
    ("AWC+No", "d3s"): [
        (True, False, False, 4, 85, 188, 156, 0, 0, "1001001010"),
        (True, False, False, 5, 92, 270, 181, 0, 0, "1001001010"),
        (True, False, False, 18, 383, 870, 413, 0, 0, "1100100001"),
        (True, False, False, 8, 155, 334, 194, 0, 0, "1100100001"),
    ],
}

GOLDEN_MULTI_AWC = (True, False, False, 5, 749, 749, 0, 11, 6, "2111110222")

GOLDEN_NETWORKS = {
    ("AWC+Rslv", "fixed:2"): [
        (
            True, False, False, 18, 559, 1910, 606, 24, 4,
            "11220111101222020121",
        ),
        (
            True, False, False, 56, 2377, 8675, 2414, 103, 14,
            "02210202010120012112",
        ),
        (True, False, False, 10, 185, 648, 267, 6, 1, "10101212012212202020"),
        (
            True, False, False, 20, 486, 1722, 655, 21, 0,
            "00121012121011220220",
        ),
        (
            True, False, False, 10, 244, 1049, 419, 14, 3,
            "20021221201102112021",
        ),
    ],
    ("AWC+Rslv", "random:4"): [
        (
            True, False, False, 35, 1527, 3363, 944, 36, 4,
            "11222111101222000121",
        ),
        (
            True, False, False, 56, 3745, 9568, 2913, 105, 3,
            "21102121202012201001",
        ),
        (
            True, False, False, 43, 1214, 2602, 743, 27, 3,
            "10201212012212202020",
        ),
        (
            True, False, False, 80, 2622, 5835, 1636, 62, 3,
            "00212021212022110110",
        ),
        (
            True, False, False, 18, 766, 1915, 620, 23, 1,
            "10212112102201221012",
        ),
    ],
    ("AWC+Rslv", "random:4:reorder"): [
        (
            True, False, False, 31, 1516, 3474, 880, 40, 7,
            "11020111121000222101",
        ),
        (
            True, False, False, 44, 2735, 7069, 2282, 85, 9,
            "20012010212102210110",
        ),
        (False, False, False, 15, 174, 613, 231, 4, 0, "10201212002212212020"),
        (
            True, False, False, 18, 692, 2064, 750, 23, 0,
            "00212021212022110110",
        ),
        (
            True, False, False, 37, 1614, 4176, 1369, 45, 2,
            "22010110120011001210",
        ),
    ],
    ("AWC+Rslv", "lossy:30"): [
        (
            True, False, False, 21, 1163, 3570, 1103, 43, 3,
            "22110222201111000212",
        ),
        (
            True, False, False, 13, 543, 1539, 516, 15, 1,
            "01120101020210021221",
        ),
        (True, False, False, 9, 325, 676, 271, 6, 0, "10201212012212202020"),
        (
            True, False, False, 10, 355, 1085, 414, 12, 0,
            "20212020112022110110",
        ),
        (
            True, False, False, 21, 1253, 3681, 1255, 45, 5,
            "22101201021120110201",
        ),
    ],
    ("DB", "fixed:2"): [
        (True, False, False, 16, 132, 1296, 972, 0, 0, "11022111120000222101"),
        (
            True, False, False, 96, 824, 8033, 5292, 0, 0,
            "21102121202012201001",
        ),
        (
            True, False, False, 64, 498, 5362, 3564, 0, 0,
            "20102101021121101010",
        ),
        (
            True, False, False, 28, 230, 2313, 1620, 0, 0,
            "00212020212022110110",
        ),
        (
            True, False, False, 20, 166, 1674, 1188, 0, 0,
            "22021221201122112020",
        ),
    ],
    ("DB", "random:4"): [
        (True, False, False, 32, 273, 1302, 974, 0, 0, "11022111120000222101"),
        (
            True, False, False, 192, 1797, 8033, 5292, 0, 0,
            "21102121202012201001",
        ),
        (
            True, False, False, 128, 1180, 5362, 3564, 0, 0,
            "20102101021121101010",
        ),
        (
            True, False, False, 54, 512, 2313, 1527, 0, 0,
            "00212020212022110110",
        ),
        (
            True, False, False, 40, 340, 1674, 1188, 0, 0,
            "22021221201122112020",
        ),
    ],
    ("DB", "random:4:reorder"): [
        (True, False, False, 32, 273, 1302, 974, 0, 0, "11022111120000222101"),
        (
            True, False, False, 192, 1797, 8033, 5292, 0, 0,
            "21102121202012201001",
        ),
        (
            True, False, False, 128, 1180, 5362, 3564, 0, 0,
            "20102101021121101010",
        ),
        (
            True, False, False, 54, 512, 2313, 1527, 0, 0,
            "00212020212022110110",
        ),
        (
            True, False, False, 40, 340, 1674, 1188, 0, 0,
            "22021221201122112020",
        ),
    ],
    ("DB", "lossy:30"): [
        (True, False, False, 23, 357, 1281, 869, 0, 0, "11022111120000222101"),
        (
            True, False, False, 153, 2631, 7958, 5163, 0, 0,
            "21102121202012201001",
        ),
        (
            True, False, False, 106, 1749, 5344, 3465, 0, 0,
            "20102101021121101010",
        ),
        (
            True, False, False, 42, 694, 2286, 1515, 0, 0,
            "00212020212022110110",
        ),
        (
            True, False, False, 33, 585, 1674, 1184, 0, 0,
            "22021221201122112020",
        ),
    ],
}


class TestSmokeCells:
    @pytest.mark.parametrize("family,n,label", SMOKE_CELLS)
    def test_cell_trajectories(self, family, n, label):
        assert smoke_cell(family, n, label) == GOLDEN_CELLS[label, family]


class TestQuiescence:
    def test_single_agent_multi_awc_runs_to_a_solution(self):
        result = single_agent_multi_awc()
        assert result.solved
        assert measures(result) == GOLDEN_MULTI_AWC


class TestNetworkModels:
    @pytest.mark.parametrize("spec", NETWORK_SPECS)
    @pytest.mark.parametrize("label", NETWORK_ALGORITHMS)
    def test_trajectories(self, label, spec):
        trials = [network_trial(label, spec, seed) for seed in NETWORK_SEEDS]
        assert trials == GOLDEN_NETWORKS[label, spec]
