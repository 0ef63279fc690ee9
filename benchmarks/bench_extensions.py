"""Extension benchmarks: ABT, asynchronous networks, multi-variable agents.

Not tables from the paper, but the axes its Sections 1 and 5 discuss:

* ABT — the ancestor whose agent-view nogoods motivated resolvent learning;
* random-delay networks — the "other types of distributed systems" the
  authors defer to future work;
* multi-variable-per-agent AWC — the complex-local-problem extension.
"""

import pytest

from _common import SCALE, SEED, bench_custom_cell, record_cell

from repro.algorithms.registry import abt, awc, AlgorithmSpec
from repro.algorithms.multi_awc import build_multi_awc_agents
from repro.core.problem import DisCSP
from repro.experiments.paper import instances_for
from repro.experiments.runner import network_model, run_cell
from repro.learning import learning_method

N, INSTANCES, INITS = SCALE.coloring[0]


@pytest.mark.parametrize(
    "spec",
    [awc("Rslv"), abt(), abt("resolvent")],
    ids=["AWC+Rslv", "ABT-view", "ABT-resolvent"],
)
def test_abt_vs_awc(benchmark, spec):
    """ABT's cheap-but-weak nogoods vs resolvents — in ABT and in AWC.

    The paper's introduction frames resolvent learning against ABT's
    agent-view nogoods; ABT(resolvent) isolates the nogood-quality effect
    from the dynamic-ordering effect.
    """
    bench_custom_cell(benchmark, "d3c", N, INSTANCES, INITS, spec)


@pytest.mark.parametrize("max_delay", [1, 3, 6], ids=lambda d: f"delay{d}")
def test_awc_under_message_delays(benchmark, max_delay):
    """Cycle growth as the network gets slower (FIFO random delays)."""
    problems = instances_for("d3c", N, INSTANCES, SEED)

    def once():
        return run_cell(
            problems,
            awc("Rslv"),
            inits_per_instance=INITS,
            master_seed=SEED,
            n=N,
            max_cycles=SCALE.max_cycles,
            network_factory=network_model(f"random:{max_delay}"),
        )

    cell = benchmark.pedantic(once, rounds=1, iterations=1)
    record_cell(benchmark, cell, family="d3c")
    benchmark.extra_info["max_delay"] = max_delay


@pytest.mark.parametrize("divisor", [1, 3], ids=["1var-per-agent", "3vars"])
def test_multi_variable_awc(benchmark, divisor):
    """Hosting several variables per agent trades cycles for local work."""
    from repro.experiments.runner import (
        CellResult,
        random_initial_assignment,
    )
    from repro.runtime.metrics import MetricsCollector
    from repro.runtime.random_source import derive_seed
    from repro.runtime.simulator import SynchronousSimulator

    problems = instances_for("d3c", N, INSTANCES, SEED)
    method = learning_method("Rslv")

    def once():
        cell = CellResult(label=f"multiAWC/{divisor}vars", n=N)
        for index, problem in enumerate(problems):
            num_agents = max(1, len(problem.variables) // divisor)
            owner = {v: v % num_agents for v in problem.variables}
            hosted = DisCSP(problem.csp, owner)
            for init_index in range(INITS):
                seed = derive_seed(SEED, "multi", index, init_index)
                metrics = MetricsCollector()
                agents = build_multi_awc_agents(
                    hosted,
                    method,
                    metrics,
                    seed,
                    random_initial_assignment(hosted, seed),
                )
                cell.trials.append(
                    SynchronousSimulator(
                        hosted,
                        agents,
                        max_cycles=SCALE.max_cycles,
                        metrics=metrics,
                    ).run()
                )
        return cell

    cell = benchmark.pedantic(once, rounds=1, iterations=1)
    record_cell(benchmark, cell, family="d3c")
    assert cell.percent_solved == 100.0
