"""The soak harness: sustained solve streams under a nogood budget.

The paper measures one-shot trials — build agents, solve once, discard
everything. A long-running service looks different: the same agent
population keeps solving, its knowledge base keeps growing, and the
memory question the retention subsystem answers only shows up over a
*stream* of solves. This harness provides that stream:

* a seeded pool of instances from one of the paper's families;
* one **persistent AWC population per pool instance** — stores, pins,
  retention policies and the cross-agent interner survive from episode
  to episode (learned nogoods are logical consequences of the same
  instance's constraints, so carrying them is sound);
* a stream of *episodes*, each re-solving a pool instance from fresh
  seeded initial values (round-robin over the pool, so coverage is even
  and deterministic);
* per-policy reporting: solve rate, peak learned-nogood count (the
  budgeted quantity), checks per solve, evictions, interner dedup — the
  solve-rate-vs-memory-vs-policy study Section 4.2's one-shot ``kthRslv``
  ablation could not run.

Every solved episode is re-verified against the *original* constraints
(:meth:`~repro.core.problem.DisCSP.is_solution`), so a retention bug that
manufactured false solutions would be caught here, not just in unit
tests. Bounded policies must additionally keep the peak learned count
within the budget; :attr:`PolicySoakResult.within_budget` records it and
``repro bench --axis retention`` gates on it.

Wall-clock use is fine here (experiments layer); the simulated measures
remain deterministic per ``(seed, policy)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..algorithms.awc import AwcAgent, build_awc_agents
from ..core.exceptions import ModelError
from ..core.problem import DisCSP
from ..learning import learning_method
from ..retention import (
    NogoodInterner,
    retention_factory,
    spec_with_budget,
)
from ..runtime.metrics import MetricsCollector
from ..runtime.network import SynchronousNetwork
from ..runtime.random_source import Seed, derive_rng, derive_seed
from ..runtime.simulator import SynchronousSimulator
from .paper import instances_for

#: Default stream length (the acceptance bar is a >= 200-episode stream).
DEFAULT_EPISODES = 200

#: Default number of distinct pool instances the stream cycles through.
DEFAULT_POOL = 10

#: Default per-store learned-nogood budget for bounded policies.
DEFAULT_BUDGET = 64

#: Default per-episode cycle cap (episodes re-solve small instances from
#: warm stores; the paper's 10 000 cap would hide pathologies here).
DEFAULT_EPISODE_CYCLES = 1_000

#: The soak default policy set, in report order.
DEFAULT_POLICIES = ("keep-all", "lru", "decay", "subsume")


@dataclass
class PolicySoakResult:
    """One policy's aggregate over the whole episode stream."""

    policy: str
    bounded: bool
    episodes: int
    solved: int
    verified: int
    capped: int
    total_cycles: int
    total_checks: int
    total_maxcck: int
    #: Nogoods generated over the stream, and how many of those were
    #: redundant (an agent generating one it had generated before).
    total_generated: int
    total_redundant: int
    peak_learned: int
    peak_pinned: int
    evictions: int
    interner: Dict[str, int] = field(default_factory=dict)

    @property
    def solve_rate(self) -> float:
        """Share of episodes solved within the cycle cap, in percent."""
        if not self.episodes:
            return 0.0
        return 100.0 * self.solved / self.episodes

    @property
    def checks_per_solve(self) -> float:
        """Mean nogood checks spent per solved episode."""
        if not self.solved:
            return float(self.total_checks)
        return self.total_checks / self.solved

    def within_budget(self, budget: int) -> bool:
        """True when the peak learned count respected *budget*.

        Only meaningful for bounded policies; unbounded ones report their
        peak but are exempt from the bound.
        """
        if not self.bounded:
            return True
        return self.peak_learned <= budget


@dataclass
class SoakReport:
    """The full soak run: stream parameters plus one row per policy."""

    family: str
    n: int
    pool: int
    episodes: int
    budget: int
    learning: str
    seed: Seed
    policies: List[PolicySoakResult] = field(default_factory=list)

    @property
    def all_verified(self) -> bool:
        """True when every solved episode re-verified, for every policy."""
        return all(
            result.verified == result.solved for result in self.policies
        )

    @property
    def all_within_budget(self) -> bool:
        """True when every bounded policy respected the budget."""
        return all(
            result.within_budget(self.budget) for result in self.policies
        )

    def format_text(self) -> str:
        lines = [
            f"soak: {self.episodes} episodes over {self.pool} "
            f"{self.family} n={self.n} instances, budget={self.budget}, "
            f"learning={self.learning}, seed={self.seed}",
            f"{'policy':<14} {'solve%':>7} {'peak':>6} {'pinned':>7} "
            f"{'evict':>7} {'chk/solve':>11} {'generated':>10} "
            f"{'redundant':>10} {'interned':>9} {'budget':>7}",
        ]
        for result in self.policies:
            bound = (
                "ok"
                if result.within_budget(self.budget)
                else "OVER"
            ) if result.bounded else "-"
            lines.append(
                f"{result.policy:<14} {result.solve_rate:>6.1f}% "
                f"{result.peak_learned:>6d} {result.peak_pinned:>7d} "
                f"{result.evictions:>7d} {result.checks_per_solve:>11.1f} "
                f"{result.total_generated:>10d} {result.total_redundant:>10d} "
                f"{result.interner.get('hits', 0):>9d} {bound:>7}"
            )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "n": self.n,
            "pool": self.pool,
            "episodes": self.episodes,
            "budget": self.budget,
            "learning": self.learning,
            "seed": self.seed,
            "all_verified": self.all_verified,
            "all_within_budget": self.all_within_budget,
            "policies": {
                result.policy: {
                    "bounded": result.bounded,
                    "episodes": result.episodes,
                    "solved": result.solved,
                    "verified": result.verified,
                    "capped": result.capped,
                    "solve_rate": result.solve_rate,
                    "total_cycles": result.total_cycles,
                    "total_checks": result.total_checks,
                    "total_maxcck": result.total_maxcck,
                    "checks_per_solve": result.checks_per_solve,
                    "total_generated": result.total_generated,
                    "total_redundant": result.total_redundant,
                    "peak_learned": result.peak_learned,
                    "peak_pinned": result.peak_pinned,
                    "evictions": result.evictions,
                    "within_budget": result.within_budget(self.budget),
                    "interner": dict(result.interner),
                }
                for result in self.policies
            },
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")


class _Population:
    """One pool instance's persistent agents plus its shared interner."""

    def __init__(
        self,
        problem: DisCSP,
        agents: List[AwcAgent],
        interner: NogoodInterner,
    ) -> None:
        self.problem = problem
        self.agents = agents
        self.interner = interner

    def peak_counts(self) -> Tuple[int, int]:
        """(max learned, max pinned) over this population's stores."""
        learned = 0
        pinned = 0
        for agent in self.agents:
            count = agent.store.learned_count()
            if count > learned:
                learned = count
            pins = sum(
                1
                for nogood in agent.store.nogoods()
                if agent.store.is_pinned(nogood)
            )
            if pins > pinned:
                pinned = pins
        return learned, pinned

    def evictions(self) -> int:
        return sum(agent.store.evictions for agent in self.agents)


def _build_population(
    problem: DisCSP,
    learning_name: str,
    policy_spec: str,
    seed: Seed,
) -> _Population:
    metrics = MetricsCollector()
    agents = build_awc_agents(
        problem, learning_method(learning_name), metrics, seed
    )
    factory = (
        retention_factory(policy_spec)
        if policy_spec != "keep-all"
        else None
    )
    interner = NogoodInterner()
    for agent in agents:
        agent.attach_retention(factory, interner)
    return _Population(problem, agents, interner)


def run_soak(
    policies: Sequence[str] = DEFAULT_POLICIES,
    budget: int = DEFAULT_BUDGET,
    episodes: int = DEFAULT_EPISODES,
    pool: int = DEFAULT_POOL,
    family: str = "d3c",
    n: int = 20,
    learning: str = "Rslv",
    seed: Seed = 0,
    max_cycles: int = DEFAULT_EPISODE_CYCLES,
) -> SoakReport:
    """Stream *episodes* re-solves through persistent populations per policy.

    Every policy sees the same instance pool, the same episode order and
    the same per-episode initial values (all derived from *seed*), so the
    rows of the report differ only by retention behaviour. ``budget`` is
    attached as the cap of bare bounded specs (``lru`` -> ``lru:<budget>``);
    explicit caps (``lru:100``) are honoured as written.
    """
    if episodes < 1:
        raise ModelError(f"episodes must be positive, got {episodes}")
    if pool < 1:
        raise ModelError(f"pool must be positive, got {pool}")
    if budget < 1:
        raise ModelError(f"budget must be positive, got {budget}")
    if not policies:
        raise ModelError("at least one retention policy is required")
    # Validate every spec before the (expensive) pool build, so a typo in
    # the last policy fails fast instead of after minutes of streaming.
    specs = [spec_with_budget(policy, budget) for policy in policies]
    for spec in specs:
        if spec != "keep-all":
            retention_factory(spec)
    instances = instances_for(family, n, pool, derive_seed(seed, "soak-pool"))
    report = SoakReport(
        family=family,
        n=n,
        pool=pool,
        episodes=episodes,
        budget=budget,
        learning=learning,
        seed=seed,
    )
    for spec in specs:
        populations = [
            _build_population(
                instance,
                learning,
                spec,
                derive_seed(seed, "soak-agents", spec, index),
            )
            for index, instance in enumerate(instances)
        ]
        result = PolicySoakResult(
            policy=spec,
            bounded=spec.startswith(("lru", "decay")),
            episodes=episodes,
            solved=0,
            verified=0,
            capped=0,
            total_cycles=0,
            total_checks=0,
            total_maxcck=0,
            total_generated=0,
            total_redundant=0,
            peak_learned=0,
            peak_pinned=0,
            evictions=0,
        )
        for episode in range(episodes):
            population = populations[episode % len(populations)]
            problem = population.problem
            init_rng = derive_rng(seed, "soak-init", spec, episode)
            initial = {
                variable: init_rng.choice(
                    problem.csp.domain_of(variable).values
                )
                for variable in sorted(problem.variables)
            }
            metrics = MetricsCollector()
            for agent in population.agents:
                agent.reset_episode(metrics, initial[agent.variable])
            run = SynchronousSimulator(
                problem,
                population.agents,
                network=SynchronousNetwork(),
                max_cycles=max_cycles,
                metrics=metrics,
            ).run()
            if run.solved:
                result.solved += 1
                # Re-verify against the original constraints only: an
                # eviction bug can never be hidden by learned state.
                if problem.is_solution(run.assignment):
                    result.verified += 1
            if run.capped:
                result.capped += 1
            result.total_cycles += run.cycles
            result.total_checks += run.total_checks
            result.total_maxcck += run.maxcck
            result.total_generated += run.generated_nogoods
            result.total_redundant += run.redundant_generations
            # Only the active population's stores changed this episode, so
            # scanning it alone suffices for the running peaks.
            learned, pinned = population.peak_counts()
            if learned > result.peak_learned:
                result.peak_learned = learned
            if pinned > result.peak_pinned:
                result.peak_pinned = pinned
        result.evictions = sum(
            population.evictions() for population in populations
        )
        interner_totals = {"unique": 0, "hits": 0, "misses": 0}
        for population in populations:
            for key, value in population.interner.stats().items():
                interner_totals[key] += value
        result.interner = interner_totals
        report.policies.append(result)
    return report
