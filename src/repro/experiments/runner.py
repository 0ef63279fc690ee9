"""Running trials and cells of the paper's experiments.

The paper's unit of measurement is the *trial*: one problem instance, one
random set of initial values, one algorithm, run to solution or to the
10 000-cycle cap. A *cell* of a table aggregates 100 trials (e.g. 10
instances × 10 initial-value sets) into mean ``cycle``, mean ``maxcck`` and
the percentage of trials finished within the cap — capped trials contribute
"the data at that time", exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

#: Builds a fresh network per trial (delay models carry per-trial RNG state).
NetworkFactory = Callable[[Seed], Network]


@dataclass(frozen=True)
class NetworkModel:
    """A named network recipe of plain values, built per trial.

    Called with a trial seed it returns that trial's network; a delay or
    loss process draws from an rng derived from the seed, so the same seed
    yields the same deliveries sequentially and under ``--jobs N``. Plain
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


def network_model(spec: str) -> NetworkModel:
    """Parse a network spec: ``sync``, ``fixed:3``, ``random:3``,
    ``random:3:reorder``, ``lossy:30`` (percent loss)."""
    kind, *args = spec.split(":")
    if kind == "sync":
        return NetworkModel("sync", kind)
    if kind == "lossy":
        percent = int(args[0]) if args else 30
        return NetworkModel(
            f"lossy({percent}%)", kind, loss_rate=percent / 100.0
        )
    if kind == "fixed":
        delay = int(args[0]) if args else 2
        return NetworkModel(f"fixed({delay})", kind, delay=delay)
    if kind == "random":
        delay = int(args[0]) if args else 3
        fifo = args[1:2] != ["reorder"]
        suffix = "" if fifo else "/reorder"
        return NetworkModel(
            f"random({delay}){suffix}", kind, delay=delay, fifo=fifo
        )
    raise ModelError(f"unknown network spec {spec!r}")


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

    This is the single source of trial seeds: the sequential and parallel
    cell runners both iterate it, so their per-trial seeds — and therefore
    their results — are identical by construction.
    """
    for instance_index in range(num_instances):
        for init_index in range(inits_per_instance):
            yield (
                instance_index,
                init_index,
                derive_seed(master_seed, "trial", instance_index, init_index),
            )


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

    With ``workers`` above 1 (or ``REPRO_JOBS`` set) the trials are farmed
    out to a process pool via :mod:`repro.experiments.parallel`; results are
    identical to the sequential path apart from timing fields.
    """
    from .parallel import resolve_workers, run_cell_parallel

    if resolve_workers(workers) > 1:
        return run_cell_parallel(
            instances,
            algorithm,
            inits_per_instance=inits_per_instance,
            master_seed=master_seed,
            n=n,
            max_cycles=max_cycles,
            network_factory=network_factory,
            workers=workers,
        )
    cell = CellResult(label=algorithm.name, n=n)
    for instance_index, _init_index, trial_seed in trial_parameters(
        len(instances), inits_per_instance, master_seed
    ):
        cell.trials.append(
            run_trial(
                instances[instance_index],
                algorithm,
                trial_seed,
                max_cycles=max_cycles,
                network_factory=network_factory,
            )
        )
    return cell
