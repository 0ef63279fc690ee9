"""The multiprocess socket transport: genuinely concurrent agents.

These runs cross real process and socket boundaries, so nothing here
asserts determinism — only correctness (solutions verify) and the NCCC
accounting invariants. Kept small: one process per agent is expensive.
"""

import multiprocessing
import threading
import time

import pytest

from repro.core.exceptions import SimulationError
from repro.problems.coloring import random_coloring_instance
from repro.runtime.events import run_socket_trial


@pytest.mark.slow
class TestSocketTrial:
    def test_solves_coloring_and_verifies(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        result = run_socket_trial(
            problem, "AWC+Rslv", seed=3, timeout=120.0
        )
        assert result.solved
        assert problem.is_solution(result.assignment)
        # NCCC is a max over per-agent Lamport clocks, so it can never
        # exceed the total work performed.
        assert 0 < result.maxcck <= result.total_checks
        assert result.messages_sent > 0

    def test_unsolvable_detected(self, triangle_2col):
        result = run_socket_trial(
            triangle_2col, "AWC+Rslv", seed=1, timeout=120.0
        )
        assert result.unsolvable and not result.solved


class TestValidation:
    def test_requires_two_agents(self):
        problem = random_coloring_instance(12, seed=8).to_discsp()
        single = problem.__class__(
            problem.csp, {variable: 0 for variable in problem.variables}
        )
        with pytest.raises(SimulationError, match="at least two"):
            run_socket_trial(single, "AWC+Rslv", seed=0)


@pytest.mark.slow
class TestWorkerDeath:
    def test_dead_worker_raises_before_the_deadline(self, k4_3col):
        # DB never proves unsolvability, so on K4 with 3 colours the trial
        # runs until the deadline unless the router notices the death.
        timeout = 10.0
        killed = []

        def kill_one_worker():
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if len(children) == len(k4_3col.agents):
                    time.sleep(0.5)  # let the agents start exchanging mail
                    children[0].kill()
                    killed.append(children[0].pid)
                    return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_one_worker)
        killer.start()
        started = time.monotonic()
        try:
            with pytest.raises(SimulationError, match="agent"):
                run_socket_trial(
                    k4_3col,
                    "DB",
                    seed=0,
                    max_activations=10**9,
                    timeout=timeout,
                )
        finally:
            killer.join(timeout=timeout)
        assert not killer.is_alive()
        assert killed, "no worker was killed"
        assert time.monotonic() - started < timeout / 2
        assert multiprocessing.active_children() == []
