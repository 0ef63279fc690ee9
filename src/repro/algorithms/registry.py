"""Uniform construction of algorithm instances for the experiment harness.

An :class:`AlgorithmSpec` couples a display name (as used in the paper's
tables: "AWC+Rslv", "AWC+3rdRslv", "DB", ...) with a builder that produces
the per-agent objects for a given problem. The harness treats algorithms
entirely through this interface, so every table runner is a few lines of
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.exceptions import ModelError
from ..core.problem import DisCSP
from ..core.variables import Value, VariableId
from ..learning import LearningMethod, learning_method
from ..runtime.agent import SimulatedAgent
from ..runtime.metrics import MetricsCollector
from ..runtime.random_source import Seed
from .abt import ABT_LEARNING_MODES, build_abt_agents
from .awc import build_awc_agents
from .breakout import WEIGHT_MODES, build_breakout_agents
from .multi_awc import build_multi_awc_agents

#: initial values per variable (or None to let each agent draw its own).
InitialAssignment = Optional[Dict[VariableId, Value]]

#: The sequence return is covariant, so builders may return their concrete
#: agent lists (List[AwcAgent], ...) without a cast.
Builder = Callable[
    [DisCSP, MetricsCollector, Seed, InitialAssignment],
    Sequence[SimulatedAgent],
]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named recipe for building the agents of one algorithm.

    Every spec this module builds pickles: its builder is a module-level
    function bound by :func:`functools.partial` to plain values, so a
    process pool can run its trials (:func:`repro.experiments.run_cell`).
    """

    name: str
    build: Builder

    def __repr__(self) -> str:
        return f"AlgorithmSpec({self.name})"


def _learning_agents(
    build_agents: Callable[..., Sequence[SimulatedAgent]],
    method: LearningMethod,
    problem: DisCSP,
    metrics: MetricsCollector,
    seed: Seed,
    initial_assignment: InitialAssignment,
) -> Sequence[SimulatedAgent]:
    return build_agents(problem, method, metrics, seed, initial_assignment)


def _breakout_agents(
    weight_mode: str,
    problem: DisCSP,
    metrics: MetricsCollector,
    seed: Seed,
    initial_assignment: InitialAssignment,
) -> Sequence[SimulatedAgent]:
    del metrics  # DB generates no nogoods
    return build_breakout_agents(
        problem, seed, initial_assignment, weight_mode=weight_mode
    )


def _abt_agents(
    learning: str,
    problem: DisCSP,
    metrics: MetricsCollector,
    seed: Seed,
    initial_assignment: InitialAssignment,
) -> Sequence[SimulatedAgent]:
    del metrics
    return build_abt_agents(
        problem, seed, initial_assignment, learning=learning
    )


def _method(learning: object) -> LearningMethod:
    if isinstance(learning, LearningMethod):
        return learning
    return learning_method(str(learning))


def awc(learning: object = "Rslv") -> AlgorithmSpec:
    """AWC with the given learning method (a name or a strategy instance)."""
    method = _method(learning)
    return AlgorithmSpec(
        name=f"AWC+{method.name}",
        build=partial(_learning_agents, build_awc_agents, method),
    )


def multi_awc(learning: object = "Rslv") -> AlgorithmSpec:
    """Multi-variable AWC: one agent per owner, virtual handlers inside.

    Before this spec existed the multi-variable workload could only be
    built by calling :func:`~repro.algorithms.multi_awc.build_multi_awc_agents`
    by hand, so harness-level seams that dispatch through the registry —
    the verify corpus, table runners — never reached it. Registering it
    routes the multi-variable agents through the same batch-consultation
    store paths as single-variable AWC.
    """
    method = _method(learning)
    return AlgorithmSpec(
        name=f"MultiAWC+{method.name}",
        build=partial(_learning_agents, build_multi_awc_agents, method),
    )


def db(weight_mode: str = "nogood") -> AlgorithmSpec:
    """The distributed breakout algorithm."""
    suffix = "" if weight_mode == "nogood" else f"({weight_mode})"
    return AlgorithmSpec(
        name=f"DB{suffix}", build=partial(_breakout_agents, weight_mode)
    )


def abt(learning: str = "view") -> AlgorithmSpec:
    """Asynchronous backtracking; ``learning`` picks the backtrack nogood.

    ``"view"`` is classic ABT (the whole agent view); ``"resolvent"``
    applies the paper's Section 3 rule inside ABT instead.
    """
    suffix = "" if learning == "view" else f"({learning})"
    return AlgorithmSpec(
        name=f"ABT{suffix}", build=partial(_abt_agents, learning)
    )


#: The families whose names may carry a ``(mode)`` suffix.
_MODED: Dict[str, Tuple[Callable[..., AlgorithmSpec], Tuple[str, ...]]] = {
    "DB": (db, WEIGHT_MODES),
    "ABT": (abt, ABT_LEARNING_MODES),
}


def algorithm_by_name(name: str) -> AlgorithmSpec:
    """Parse a table-style algorithm label into a spec.

    Accepted: ``"DB"``, ``"DB(<weight mode>)"``, ``"ABT"``,
    ``"ABT(<learning>)"``, ``"AWC+<learning>"`` and
    ``"MultiAWC+<learning>"``, where a DB weight mode is one of
    ``WEIGHT_MODES``, an ABT learning one of ``ABT_LEARNING_MODES``, and an
    AWC ``<learning>`` any label accepted by
    :func:`repro.learning.learning_method` — every name a spec of this
    module carries.
    """
    family, paren, mode = name.partition("(")
    if family in _MODED:
        make, modes = _MODED[family]
        if not paren:
            return make()
        if mode.endswith(")") and mode[:-1] in modes:
            return make(mode[:-1])
    if name.startswith("MultiAWC+"):
        return multi_awc(name[len("MultiAWC+"):])
    if name.startswith("AWC+"):
        return awc(name[len("AWC+"):])
    raise ModelError(f"unknown algorithm: {name!r}")
