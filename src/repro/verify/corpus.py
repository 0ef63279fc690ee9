"""The pinned instance corpus the explorer runs on.

Schedule exploration is exponential in the number of racing messages, so
the corpus is deliberately tiny — coloring instances with at most 8 nodes,
the same family as the paper's benchmarks, at the paper's edge density.
What makes the corpus useful is not size but *pinning*: every entry fixes
(instance seed, algorithm, agent seed), so the exploration tree is
reproducible run-to-run and the CI job explores exactly the corpus that the
committed BENCH_verify.json numbers describe.

Entries cover every agent family of ``repro.algorithms``: single-variable
AWC (with and without learning), ABT, distributed breakout, and the
multi-variable AWC agent (which exercises wakeups — internal carryover
work — on top of deliveries).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from ..algorithms.registry import algorithm_by_name
from ..core.exceptions import ModelError
from ..core.problem import DisCSP
from ..problems.coloring import random_coloring_instance
from ..runtime.agent import SimulatedAgent
from ..runtime.metrics import MetricsCollector
from ..runtime.random_source import Seed

#: The largest instance the corpus may contain (ISSUE: n <= 8).
MAX_NODES = 8


@dataclass(frozen=True)
class CorpusEntry:
    """One pinned (instance, algorithm) cell of the verify corpus."""

    name: str
    algorithm: str
    num_nodes: int
    num_colors: int = 3
    instance_seed: Seed = 0
    agent_seed: Seed = 0
    max_cycles: int = 600
    #: Pinned edge count — the paper's 2.7 edges/node over-constrains
    #: graphs this small, so every entry names its count explicitly.
    num_edges: int | None = None
    #: Re-own the variables onto this many agents (round-robin) — the
    #: multi-variable workload. None keeps one variable per agent.
    num_agents: int | None = None

    def __post_init__(self) -> None:
        if self.num_nodes > MAX_NODES:
            raise ModelError(
                f"corpus entry {self.name!r} has {self.num_nodes} nodes; "
                f"the verify corpus is pinned to n <= {MAX_NODES}"
            )

    def problem(self) -> DisCSP:
        """The entry's DisCSP, built once per entry and then shared.

        Sharing is safe because a DisCSP is immutable (tuples, frozensets
        and immutable domains behind read-only accessors): agents only read
        it. An exploration builds agents for thousands of schedules.
        """
        return _problem_of(self)

    def build(self) -> Tuple[DisCSP, Sequence[SimulatedAgent]]:
        """The shared problem + fresh agents; identical on every call."""
        problem = self.problem()
        spec = algorithm_by_name(self.algorithm)
        agents = spec.build(problem, MetricsCollector(), self.agent_seed, None)
        return problem, agents


@lru_cache(maxsize=None)
def _problem_of(entry: CorpusEntry) -> DisCSP:
    instance = random_coloring_instance(
        entry.num_nodes,
        num_colors=entry.num_colors,
        seed=entry.instance_seed,
        num_edges=entry.num_edges,
    )
    if entry.num_agents is None:
        return instance.to_discsp()
    csp = instance.to_csp()
    owner = {
        variable: variable % entry.num_agents for variable in csp.variables
    }
    return DisCSP.from_csp(csp, owner)


#: The corpus CI explores and BENCH_verify.json measures. Names are stable
#: identifiers (used by ``repro verify --only``); append entries rather
#: than renaming.
#: Seeds are pinned to instances whose full DPOR tree closes within a few
#: hundred schedules (measured), so default explorations terminate rather
#: than truncate and the prune ratio compares two *complete* trees
#: wherever the naive tree fits its budget too.
PINNED_CORPUS: Tuple[CorpusEntry, ...] = (
    CorpusEntry("awc-rslv-n4", "AWC+Rslv", 4, instance_seed=11, num_edges=5),
    CorpusEntry(
        "awc-norec-n4", "AWC+Rslv/norec", 4, instance_seed=5, num_edges=5
    ),
    CorpusEntry("awc-no-n4", "AWC+No", 4, instance_seed=2, num_edges=5),
    CorpusEntry("abt-n6", "ABT", 6, instance_seed=3, num_edges=9),
    CorpusEntry(
        "db-n4", "DB", 4, instance_seed=11, num_edges=4, max_cycles=900
    ),
    CorpusEntry(
        "multi-awc-n5",
        "MultiAWC+Rslv",
        5,
        instance_seed=2,
        num_edges=7,
        num_agents=3,
    ),
)


def corpus_by_name(names: Sequence[str]) -> Tuple[CorpusEntry, ...]:
    """Resolve ``--only`` selections; unknown names are an error."""
    if not names:
        return PINNED_CORPUS
    by_name: Dict[str, CorpusEntry] = {
        entry.name: entry for entry in PINNED_CORPUS
    }
    missing = [name for name in names if name not in by_name]
    if missing:
        raise ModelError(
            f"unknown corpus entries {missing}; "
            f"known: {sorted(by_name)}"
        )
    return tuple(by_name[name] for name in names)
