"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.algorithms.registry import AlgorithmSpec
from repro.core import CSP, DisCSP, LinearNogoodStore, Nogood, integer_domain
from repro.problems.coloring import coloring_discsp
from repro.problems.graphs import Graph


def triangle_graph() -> Graph:
    """K3: the smallest odd cycle."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def clique_graph(size: int) -> Graph:
    """The complete graph on *size* nodes."""
    graph = Graph(size)
    for u in range(size):
        for v in range(u + 1, size):
            graph.add_edge(u, v)
    return graph


def cycle_graph(size: int) -> Graph:
    """The cycle on *size* nodes."""
    graph = Graph(size)
    for u in range(size):
        graph.add_edge(u, (u + 1) % size)
    return graph


@pytest.fixture
def triangle_3col() -> DisCSP:
    """K3 with 3 colors: solvable, every solution is a permutation."""
    return coloring_discsp(triangle_graph(), 3)


@pytest.fixture
def triangle_2col() -> DisCSP:
    """K3 with 2 colors: unsolvable."""
    return coloring_discsp(triangle_graph(), 2)


@pytest.fixture
def k4_3col() -> DisCSP:
    """K4 with 3 colors: unsolvable."""
    return coloring_discsp(clique_graph(4), 3)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


def tiny_csp() -> CSP:
    """Two variables over {0,1} with x0 == x1 forbidden from being (0, 0)."""
    domain = integer_domain(2)
    return CSP({0: domain, 1: domain}, [Nogood.of((0, 0), (1, 0))])


def _linear_store_agents(build, problem, metrics, seed, initial_assignment):
    agents = build(problem, metrics, seed, initial_assignment)
    for agent in agents:
        agent.rebind_store(LinearNogoodStore)
    return agents


def with_linear_store(spec: AlgorithmSpec) -> AlgorithmSpec:
    """*spec* with every agent's store rebound to the unindexed oracle.

    The linear store runs every violation test the per-value index skips,
    so it reaches the same trajectory with at least as many checks. The
    builder is module-level, so the spec pickles whenever *spec* does.
    """
    return AlgorithmSpec(
        name=spec.name, build=partial(_linear_store_agents, spec.build)
    )
