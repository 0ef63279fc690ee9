"""Detecting when a simulated run is done.

The paper's simulator observes the system globally: a trial ends when the
agents' current values form a solution ("cycles consumed until a solution is
found"), or when the cycle cap (10 000 in the paper) is hit. This module
provides that observer, plus a stricter stability-aware variant used by the
asynchronous-network experiments: under message delays a *transient* global
assignment can look like a solution while contradicting information is still
in flight, and whether to count that as solved is a modelling choice.

For the paper's reproduction the plain detector is correct — the paper's
own simulator does exactly this — and for a consistent assignment of a CSP
in-flight messages can only confirm it, never invalidate it (nogoods are
entailed by the problem), so "solution observed" is safe in both modes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Set, Tuple

from ..core.nogood import Nogood
from ..core.problem import DisCSP
from ..core.variables import Value, VariableId
from .network import Network

if TYPE_CHECKING:
    from .agent import SimulatedAgent


class GlobalSolutionDetector:
    """Checks the agents' combined assignment against the original problem.

    Only the *original* nogoods are checked. Learned nogoods are logically
    entailed by the original ones, so they cannot exclude a true solution,
    and checking them would make termination depend on the learning method.
    """

    def __init__(self, problem: DisCSP) -> None:
        self._problem = problem

    def is_solution(self, assignment: Mapping[VariableId, Value]) -> bool:
        """True if *assignment* solves the problem."""
        return self._problem.is_solution(assignment)


class IncrementalSolutionDetector(GlobalSolutionDetector):
    """A stateful detector that re-evaluates only what a cycle changed.

    :class:`GlobalSolutionDetector` re-evaluates every original nogood on
    every call — O(constraints) work per cycle even when a single agent
    moved. This variant keeps the last observed assignment and a per-nogood
    violated flag, with the original nogoods indexed by every
    ``(variable, value)`` pair they bind. Each call diffs the new
    assignment against the previous one. When a variable leaves value *a*,
    the nogoods binding it to *a* can no longer be violated: their flags
    are cleared without a test. Only the nogoods binding a changed variable
    to its *new* value are re-evaluated. A running violated count is kept
    throughout. Per cycle that is O(variables) for the diff plus
    O(constraints binding a changed variable to its new value) for
    re-evaluation, instead of O(all constraints).

    Detection is purely observational: it performs no
    :meth:`~repro.core.store.NogoodStore.is_violated` calls, so it
    contributes nothing to the paper's ``maxcck``/check accounting — exactly
    like the full re-scan it replaces.

    The detector is stateful and therefore **per-run**: build a fresh one
    per simulator (the simulator's default does this). A positive answer is
    re-verified against the full problem before being returned, so a
    bookkeeping bug can never report a false solution.
    """

    def __init__(self, problem: DisCSP) -> None:
        super().__init__(problem)
        csp = problem.csp
        self._variables: Tuple[VariableId, ...] = csp.variables
        self._domains = {
            variable: csp.domain_of(variable) for variable in self._variables
        }
        # The index and the flags key nogoods by identity: the index holds
        # the same objects as csp.nogoods, and identity keys cost one
        # pointer hash instead of hashing pair sets.
        binding: Dict[Tuple[VariableId, Value], List[Nogood]] = {}
        for nogood in csp.nogoods:
            for pair in nogood.pairs:
                binding.setdefault(pair, []).append(nogood)
        self._binding: Dict[Tuple[VariableId, Value], Tuple[Nogood, ...]] = {
            pair: tuple(nogoods) for pair, nogoods in binding.items()
        }
        self._violated_flag: Dict[int, bool] = {
            id(nogood): False for nogood in csp.nogoods
        }
        self._violated_count = 0
        #: Variables currently unassigned or holding an out-of-domain value.
        self._bad_vars: Set[VariableId] = set(self._variables)
        self._last: Dict[VariableId, Value] = {}

    def is_solution(self, assignment: Mapping[VariableId, Value]) -> bool:
        changed = self._diff(assignment)
        if changed:
            self._apply(changed, assignment)
        if self._bad_vars or self._violated_count:
            return False
        # Cheap paranoia: a full check runs only on candidate solutions
        # (at most once per trial plus the rare already-solved cycle 0).
        return self._problem.is_solution(assignment)

    # -- internals ---------------------------------------------------------

    def _diff(
        self, assignment: Mapping[VariableId, Value]
    ) -> List[VariableId]:
        """The variables whose value differs from the last observation."""
        last = self._last
        missing = _MISSING
        changed = [
            variable
            for variable in self._variables
            if assignment.get(variable, missing) != last.get(variable, missing)
        ]
        return changed

    def _apply(
        self,
        changed: List[VariableId],
        assignment: Mapping[VariableId, Value],
    ) -> None:
        """Fold the changed variables into the detector's running state."""
        last = self._last
        binding = self._binding.get
        flags = self._violated_flag
        touched: Dict[int, Nogood] = {}
        for variable in changed:
            previous = last.pop(variable, _MISSING)
            if previous is not _MISSING:
                # The variable left *previous*: every nogood binding it
                # there is satisfied now, whatever else changed.
                for nogood in binding((variable, previous), ()):
                    key = id(nogood)
                    if flags[key]:
                        flags[key] = False
                        self._violated_count -= 1
            if variable in assignment:
                value = assignment[variable]
                last[variable] = value
                if value in self._domains[variable]:
                    self._bad_vars.discard(variable)
                else:
                    self._bad_vars.add(variable)
                for nogood in binding((variable, value), ()):
                    touched[id(nogood)] = nogood
            else:
                self._bad_vars.add(variable)
        # Tested only once every change is folded into the assignment.
        for key, nogood in touched.items():
            now = nogood.prohibits(last)
            if now != flags[key]:
                flags[key] = now
                self._violated_count += 1 if now else -1


class QuiescentSolutionDetector(GlobalSolutionDetector):
    """A solution only counts once the network is also idle.

    Used by the asynchronous-network experiments to report *stable*
    termination: the assignment solves the problem and no messages are in
    flight that could still perturb agents into moving.
    """

    def __init__(self, problem: DisCSP, network: Network) -> None:
        super().__init__(problem)
        self._network = network

    def is_solution(self, assignment: Mapping[VariableId, Value]) -> bool:
        return self._network.is_idle() and super().is_solution(assignment)


#: Reads as "no value": None is a legal value.
_MISSING = object()


def collect_assignment(
    agents: Iterable["SimulatedAgent"],
) -> Dict[VariableId, Value]:
    """Merge the local assignments of *agents* into one global assignment."""
    merged: Dict[VariableId, Value] = {}
    for agent in agents:
        merged.update(agent.local_assignment())
    return merged
