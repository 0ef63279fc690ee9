"""Ablation: per-own-value nogood indexing vs a linear store scan.

DESIGN.md's indexing decision: every nogood relevant to an agent binds the
agent's own variable, so candidate-value tests only need the matching
bucket. This benchmark runs identical AWC+Rslv cells with the indexed store
and with a linear store that scans everything, and records the check-count
inflation the index avoids. Search behaviour is identical either way (a
nogood binding another own-value simply fails its test), so ``cycle``
matches and only the cost measures move.
"""

import pytest

from _common import SCALE, SEED, bench_custom_cell

from repro.algorithms.awc import AwcAgent
from repro.algorithms.registry import AlgorithmSpec
from repro.core.store import LinearNogoodStore
from repro.learning import learning_method
from repro.runtime.random_source import derive_rng


class LinearStoreAwcAgent(AwcAgent):
    """AWC agent whose store scans linearly (no per-value index)."""

    store_class = LinearNogoodStore


def build_linear_store_awc(problem, metrics, seed, initial_assignment):
    """AWC+Rslv agents on the linear store; module-level, so it pickles."""
    method = learning_method("Rslv")
    agents = []
    for agent_id in problem.agents:
        variable = problem.variables_of(agent_id)[0]
        initial = (
            initial_assignment.get(variable)
            if initial_assignment is not None
            else None
        )
        agents.append(
            LinearStoreAwcAgent(
                agent_id,
                problem,
                method,
                metrics,
                derive_rng(seed, "awc-agent", agent_id),
                initial_value=initial,
            )
        )
    return agents


def linear_store_awc() -> AlgorithmSpec:
    return AlgorithmSpec(
        name="AWC+Rslv[linear-store]", build=build_linear_store_awc
    )


N, INSTANCES, INITS = SCALE.coloring[0]


@pytest.mark.parametrize(
    "spec_name", ["indexed", "linear"], ids=["indexed-store", "linear-store"]
)
def test_store_ablation(benchmark, spec_name):
    from repro.algorithms.registry import awc

    spec = awc("Rslv") if spec_name == "indexed" else linear_store_awc()
    cell = bench_custom_cell(benchmark, "d3c", N, INSTANCES, INITS, spec)
    assert cell.percent_solved == 100.0
