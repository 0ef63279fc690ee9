"""Detecting when a simulated run is done.

The paper's simulator observes the system globally: a trial ends when the
agents' current values form a solution ("cycles consumed until a solution is
found"), or when the cycle cap (10 000 in the paper) is hit. This module
provides that observer, in a full and an incremental form.

The observer is correct for the paper's reproduction — the paper's own
simulator does exactly this — and also under message delays: for a
consistent assignment of a CSP, in-flight messages can only confirm it,
never invalidate it (nogoods are entailed by the problem), so "solution
observed" is safe whether or not the network is idle.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..core.nogood import Pair
from ..core.problem import DisCSP
from ..core.variables import Value, VariableId

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

    def is_solution(
        self,
        assignment: Mapping[VariableId, Value],
        changed: Optional[Iterable[VariableId]] = None,
    ) -> bool:
        """True if *assignment* solves the problem.

        *changed*, when given, names every variable whose value may differ
        from the assignment of the previous call. This detector re-checks
        the whole assignment and ignores it.
        """
        return self._problem.is_solution(assignment)


class IncrementalSolutionDetector(GlobalSolutionDetector):
    """A stateful detector that re-evaluates only what a cycle changed.

    :class:`GlobalSolutionDetector` re-evaluates every original nogood on
    every call — O(constraints) work per cycle even when a single agent
    moved. This variant keeps, per original nogood, the number of its
    pairs the last observed assignment does not match; a nogood is
    violated exactly when that count is 0. The original nogoods are
    indexed by every ``(variable, value)`` pair they bind. When a variable
    leaves value *a*, each nogood binding it to *a* gains one unmatched
    pair; when it takes value *b*, each nogood binding it to *b* loses
    one. Each is an O(1) update, and a running count of violated nogoods
    is kept throughout, so no nogood is ever re-tested.

    The simulator passes the variables that changed this cycle. Without
    that list every variable of the problem is folded in again, which
    costs O(all bindings) per call; only tests call it that way.

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
        binding: Dict[Pair, List[int]] = {}
        for index, nogood in enumerate(csp.nogoods):
            for pair in nogood.pairs:
                binding.setdefault(pair, []).append(index)
        #: (variable, value) -> indices of the original nogoods binding it.
        self._binding: Dict[Pair, Tuple[int, ...]] = {
            pair: tuple(indices) for pair, indices in binding.items()
        }
        #: Per original nogood, its pairs the observed assignment does not
        #: match. Nothing is assigned yet; the empty nogood starts at 0.
        self._unmatched: List[int] = [len(nogood) for nogood in csp.nogoods]
        self._violated_count = self._unmatched.count(0)
        #: Variables currently unassigned or holding an out-of-domain value.
        self._bad_vars: Set[VariableId] = set(self._variables)
        self._last: Dict[VariableId, Value] = {}

    def is_solution(
        self,
        assignment: Mapping[VariableId, Value],
        changed: Optional[Iterable[VariableId]] = None,
    ) -> bool:
        self._apply(self._variables if changed is None else changed, assignment)
        if self._bad_vars or self._violated_count:
            return False
        # Cheap paranoia: a full check runs only on candidate solutions
        # (at most once per trial plus the rare already-solved cycle 0).
        return self._problem.is_solution(assignment)

    # -- internals ---------------------------------------------------------

    def _apply(
        self,
        changed: Iterable[VariableId],
        assignment: Mapping[VariableId, Value],
    ) -> None:
        """Fold the changed variables into the detector's running state."""
        last = self._last
        binding = self._binding.get
        unmatched = self._unmatched
        bad_vars = self._bad_vars
        violated = self._violated_count
        for variable in changed:
            domain = self._domains.get(variable)
            if domain is None:
                continue  # not a variable of the problem
            previous = last.pop(variable, _MISSING)
            if previous is not _MISSING:
                for index in binding((variable, previous), ()):
                    if not unmatched[index]:
                        violated -= 1
                    unmatched[index] += 1
            value = assignment.get(variable, _MISSING)
            if value is _MISSING:
                bad_vars.add(variable)
                continue
            last[variable] = value
            if value in domain:
                bad_vars.discard(variable)
            else:
                bad_vars.add(variable)
            for index in binding((variable, value), ()):
                unmatched[index] -= 1
                if not unmatched[index]:
                    violated += 1
        self._violated_count = violated


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
