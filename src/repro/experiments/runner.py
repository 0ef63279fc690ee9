"""Running trials and cells of the paper's experiments.

The paper's unit of measurement is the *trial*: one problem instance, one
random set of initial values, one algorithm, run to solution or to the
10 000-cycle cap. A *cell* of a table aggregates 100 trials (e.g. 10
instances × 10 initial-value sets) into mean ``cycle``, mean ``maxcck`` and
the percentage of trials finished within the cap — capped trials contribute
"the data at that time", exactly as the paper describes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..algorithms.registry import AlgorithmSpec
from ..core.exceptions import ModelError
from ..core.problem import DisCSP
from ..core.variables import Value, VariableId
from ..runtime.metrics import MetricsCollector
from ..runtime.network import (
    FixedDelayNetwork,
    LossyNetwork,
    Network,
    RandomDelayNetwork,
    SynchronousNetwork,
)
from ..runtime.random_source import Seed, derive_rng, derive_seed
from ..runtime.simulator import (
    DEFAULT_MAX_CYCLES,
    RunResult,
    SynchronousSimulator,
)

if TYPE_CHECKING:
    from ..runtime.trace import TraceRecorder

#: Environment variable naming the default worker count of :func:`run_cell`.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Builds a fresh network per trial (delay models carry per-trial RNG state).
NetworkFactory = Callable[[Seed], Network]


@dataclass(frozen=True)
class NetworkModel:
    """A named network recipe of plain values, built per trial.

    Called with a trial seed it returns that trial's network; a delay or
    loss process draws from an rng derived from the seed, so the same seed
    yields the same deliveries sequentially and in a process pool. Plain
    values make it pickle into worker processes. Build one with
    :func:`network_model`.
    """

    name: str
    kind: str
    delay: int = 1
    fifo: bool = True
    loss_rate: float = 0.0

    def __call__(self, seed: Seed) -> Network:
        if self.kind == "sync":
            return SynchronousNetwork()
        if self.kind == "fixed":
            return FixedDelayNetwork(self.delay)
        if self.kind == "random":
            return RandomDelayNetwork(
                self.delay,
                rng=derive_rng(seed, "network", "delay"),
                fifo=self.fifo,
            )
        return LossyNetwork(
            self.loss_rate, rng=derive_rng(seed, "network", "lossy")
        )


#: Each numbered network kind with the number its spec may omit.
_NETWORK_DEFAULTS = {"fixed": 2, "random": 3, "lossy": 30}


def network_model(spec: str) -> NetworkModel:
    """Parse a network spec: ``sync``, ``fixed:3``, ``random:3``,
    ``random:3:reorder``, ``lossy:30`` (percent loss).

    A malformed spec raises :class:`ModelError`; whether the number is in
    range is checked when the network is built.
    """
    kind, *args = spec.split(":")
    reorder = kind == "random" and args[1:] == ["reorder"]
    if reorder:
        args = args[:1]
    if kind == "sync" and not args:
        return NetworkModel("sync", kind)
    if kind not in _NETWORK_DEFAULTS or len(args) > 1:
        raise ModelError(f"unknown network spec {spec!r}")
    try:
        number = int(args[0]) if args else _NETWORK_DEFAULTS[kind]
    except ValueError:
        raise ModelError(
            f"network spec {spec!r}: {args[0]!r} is not an integer"
        ) from None
    if kind == "lossy":
        return NetworkModel(
            f"lossy({number}%)", kind, loss_rate=number / 100.0
        )
    if kind == "fixed":
        return NetworkModel(f"fixed({number})", kind, delay=number)
    suffix = "/reorder" if reorder else ""
    return NetworkModel(
        f"random({number}){suffix}", kind, delay=number, fifo=not reorder
    )


def random_initial_assignment(
    problem: DisCSP, seed: Seed
) -> Dict[VariableId, Value]:
    """The trial's random initial values, drawn deterministically from *seed*."""
    rng = derive_rng(seed, "initial-values")
    return {
        variable: rng.choice(problem.csp.domain_of(variable).values)
        for variable in problem.variables
    }


def run_trial(
    problem: DisCSP,
    algorithm: AlgorithmSpec,
    seed: Seed,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    network_factory: NetworkFactory = network_model("sync"),
    tracer: Optional["TraceRecorder"] = None,
) -> RunResult:
    """One trial: build agents, simulate, return the run's measurements.

    The message medium comes from ``network_factory``, called with the
    trial seed; the default is the paper's one-cycle network.
    """
    metrics = MetricsCollector()
    initial = random_initial_assignment(problem, seed)
    agents = algorithm.build(problem, metrics, seed, initial)
    simulator = SynchronousSimulator(
        problem,
        agents,
        network=network_factory(seed),
        max_cycles=max_cycles,
        metrics=metrics,
        tracer=tracer,
    )
    return simulator.run()


@dataclass
class CellResult:
    """Aggregated measurements of one table cell."""

    label: str
    n: int
    trials: List[RunResult] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def mean_cycle(self) -> float:
        """Mean cycles over all trials (capped trials count at the cap)."""
        return _mean([trial.cycles for trial in self.trials])

    @property
    def mean_maxcck(self) -> float:
        """Mean maxcck over all trials."""
        return _mean([trial.maxcck for trial in self.trials])

    @property
    def percent_solved(self) -> float:
        """Share of trials that found a solution within the cap, in percent."""
        if not self.trials:
            return 0.0
        solved = sum(1 for trial in self.trials if trial.solved)
        return 100.0 * solved / len(self.trials)

    @property
    def mean_redundant_generations(self) -> float:
        """Mean redundant nogood generations (Table 4's measure)."""
        return _mean([trial.redundant_generations for trial in self.trials])

    @property
    def mean_generated(self) -> float:
        """Mean total nogood generations per trial."""
        return _mean([trial.generated_nogoods for trial in self.trials])

    @property
    def total_wall_time(self) -> float:
        """Total wall-clock seconds spent simulating this cell."""
        return sum(trial.wall_time for trial in self.trials)


def _mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return sum(values) / len(values)


#: One trial's coordinates within a cell: (instance index, init index, seed).
TrialParams = Tuple[int, int, int]


def trial_parameters(
    num_instances: int, inits_per_instance: int, master_seed: Seed
) -> Iterator[TrialParams]:
    """The cell's trials in canonical order, with their derived seeds.

    This is the single source of trial seeds: :func:`run_cell` iterates it
    whether the trials then run in a loop or in a process pool, so their
    per-trial seeds — and therefore their results — are identical by
    construction.
    """
    for instance_index in range(num_instances):
        for init_index in range(inits_per_instance):
            yield (
                instance_index,
                init_index,
                derive_seed(master_seed, "trial", instance_index, init_index),
            )


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, else ``REPRO_JOBS``, else 1.

    ``0`` (from either source) means "use every core". Negative counts are
    rejected.
    """
    if workers is None:
        raw = os.environ.get(JOBS_ENV_VAR)
        if raw is None:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ModelError(
                f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if workers < 0:
        raise ModelError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def run_cell(
    instances: Sequence[DisCSP],
    algorithm: AlgorithmSpec,
    inits_per_instance: int,
    master_seed: Seed,
    n: int,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    network_factory: NetworkFactory = network_model("sync"),
    workers: Optional[int] = None,
) -> CellResult:
    """One cell: every instance × every initial-value set.

    The trial seeds are derived from ``(master_seed, instance index, init
    index)`` so cells are reproducible and instances are independent.

    With more than one worker (``workers``, else ``REPRO_JOBS``; see
    :func:`resolve_workers`) the trials run in a process pool, one task
    per trial, and come back in canonical order: every measure equals the
    sequential run's apart from the timing fields. Each task pickles its
    instance, *algorithm* and *network_factory*, so a part that cannot be
    pickled raises the pool's pickling error.
    """
    problems: List[DisCSP] = []
    seeds: List[Seed] = []
    for instance_index, _init_index, trial_seed in trial_parameters(
        len(instances), inits_per_instance, master_seed
    ):
        problems.append(instances[instance_index])
        seeds.append(trial_seed)
    columns = (
        problems,
        repeat(algorithm),
        seeds,
        repeat(max_cycles),
        repeat(network_factory),
    )
    cell = CellResult(label=algorithm.name, n=n)
    workers = min(resolve_workers(workers), len(problems))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cell.trials.extend(pool.map(run_trial, *columns))
    else:
        cell.trials.extend(map(run_trial, *columns))
    return cell
