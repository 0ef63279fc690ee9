"""Mcs-based learning: minimize the nogood down to a minimal conflict set.

The paper describes the method (after Mammen & Lesser) as: "make a nogood
with the resolvent-based learning and test whether a subset of the nogood is
a conflict set or not from larger subsets to smaller subsets". A *conflict
set* is a subset of the agent view under which no value of the deadend
variable is consistent with the higher nogoods.

We implement the larger-to-smaller walk as deletion-based minimization: try
dropping each element in turn and keep the drop whenever the remainder is
still a conflict set. This visits subsets in strictly decreasing size and
ends at a conflict set none of whose proper subsets obtained by a single
further deletion is conflicting — i.e. a *minimal* conflict set. (Finding a
true minimum-cardinality set is NP-hard; the paper's point is precisely that
even this subset search is expensive, which our check counting reproduces.)

Cost model: every "does this nogood prohibit value d under subset S?" test
counts one nogood check, which is why Mcs shows a much larger ``maxcck``
than Rslv in Tables 1–3.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.nogood import Nogood
from ..core.variables import Value, VariableId
from .base import DeadendContext, LearningMethod, ensure_deadend_nogood
from .resolvent import resolvent_nogood


def _prohibited_under(
    context: DeadendContext,
    subset: Dict[VariableId, Value],
    value: Value,
) -> bool:
    """True if some higher nogood forbids ``x_i = value`` using only *subset*.

    A nogood qualifies when all its non-own pairs are contained in *subset*
    (values included) and its own-variable pair, if it has one, matches
    *value*. ``for_value`` may return nogoods binding the owner to another
    value (the linear store returns every nogood), so the own pair is
    compared too. Each higher nogood examined costs one check; the
    outranking set is fetched once per call and the checks are added once.
    """
    store = context.store
    above = store.outranking(context.view, context.priority)
    own_variable = context.variable
    checks = 0
    prohibited = False
    for nogood in store.for_value(value):
        if not nogood.variables <= above:
            continue
        checks += 1
        for variable, bound in nogood.pairs:
            if variable == own_variable:
                if bound != value:
                    break
            elif subset.get(variable, _MISSING) != bound:
                break
        else:
            prohibited = True
            break
    store.counter.bump(checks)
    return prohibited


_MISSING = object()


def is_conflict_set(context: DeadendContext, subset: Nogood) -> bool:
    """True if *subset* (pairs consistent with the view) is a conflict set."""
    bound = {variable: value for variable, value in subset.pairs}
    return all(
        _prohibited_under(context, bound, value) for value in context.domain
    )


def minimize_conflict_set(context: DeadendContext, start: Nogood) -> Nogood:
    """Shrink *start* to a minimal conflict set by deletion.

    Elements are tried for removal lowest-ranked variable first (under the
    view's priorities), so that — like the resolvent tie-break — the
    surviving set prefers to keep highly prioritized variables, which are
    the ones worth notifying early.
    """
    ordered = sorted(
        start.pairs,
        key=lambda pair: (
            context.view.priority_of(pair[0]),
            -pair[0],
        ),
    )
    current = start
    for pair in ordered:
        if len(current) <= 1:
            break
        candidate = Nogood(p for p in current.pairs if p != pair)
        if is_conflict_set(context, candidate):
            current = candidate
    return current


class McsLearning(LearningMethod):
    """The paper's ``Mcs``: record a minimal conflict set."""

    name = "Mcs"

    def make_nogood(self, context: DeadendContext) -> Optional[Nogood]:
        start = resolvent_nogood(context)
        if len(start) <= 1:
            return start
        minimal = minimize_conflict_set(context, start)
        return ensure_deadend_nogood(context, minimal)
