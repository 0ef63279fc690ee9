"""Mcs-based learning: minimal conflict sets by deletion."""

from repro.core.assignment import AgentView
from repro.core.nogood import Nogood
from repro.core.store import CheckCounter, NogoodStore
from repro.core.variables import integer_domain
from repro.learning.base import DeadendContext
from repro.learning.mcs import (
    McsLearning,
    is_conflict_set,
    minimize_conflict_set,
)
from repro.learning.resolvent import resolvent_nogood

from .test_resolvent import G, R, Y, figure1_context


def deadend_with_redundant_member():
    """A deadend whose resolvent contains a removable element.

    x0 over {0, 1}; view: x1=0, x2=0, x3=0 (all priority 1, higher than x0).
    Nogoods: ((x1,0)(x0,0)) blocks value 0; ((x2,0)(x0,1)) and
    ((x1,0)(x3,0)(x0,1)) both block value 1. The resolvent selects the
    *smaller* blocker for value 1, giving {x1, x2} — but {x1} alone is NOT a
    conflict set, while dropping nothing more is possible, so here mcs keeps
    {x1, x2}. To create slack, add ((x1,0)(x0,1)) too: then {x1} blocks both
    values and the minimal conflict set is {(x1, 0)} alone.
    """
    store = NogoodStore(own_variable=0, counter=CheckCounter())
    store.add(Nogood.of((1, 0), (0, 0)))
    store.add(Nogood.of((2, 0), (0, 1)))
    store.add(Nogood.of((1, 0), (3, 0), (0, 1)))
    store.add(Nogood.of((1, 0), (0, 1)))
    view = AgentView()
    view.update(1, 0, 1)
    view.update(2, 0, 1)
    view.update(3, 0, 1)
    return DeadendContext(
        variable=0,
        domain=integer_domain(2),
        priority=0,
        view=view,
        store=store,
    )


class TestIsConflictSet:
    def test_full_view_is_a_conflict_set_at_deadend(self):
        context = figure1_context()
        full = Nogood.of((1, R), (2, Y), (3, G), (4, R))
        assert is_conflict_set(context, full)

    def test_resolvent_is_a_conflict_set(self):
        context = figure1_context()
        assert is_conflict_set(context, resolvent_nogood(context))

    def test_too_small_subset_is_not(self):
        context = figure1_context()
        assert not is_conflict_set(context, Nogood.of((1, R)))
        assert not is_conflict_set(context, Nogood.of((1, R), (2, Y)))

    def test_counts_checks(self):
        context = figure1_context()
        before = context.store.counter.total
        is_conflict_set(context, resolvent_nogood(context))
        assert context.store.counter.total > before


class TestMinimize:
    def test_figure1_resolvent_is_already_minimal(self):
        context = figure1_context()
        resolvent = resolvent_nogood(context)
        assert minimize_conflict_set(context, resolvent) == resolvent

    def test_removable_member_is_removed(self):
        context = deadend_with_redundant_member()
        minimal = McsLearning().make_nogood(context)
        assert minimal == Nogood.of((1, 0))

    def test_result_is_still_a_conflict_set(self):
        context = deadend_with_redundant_member()
        minimal = McsLearning().make_nogood(context)
        assert is_conflict_set(context, minimal)


class TestMcsLearning:
    def test_matches_resolvent_on_figure1(self):
        # When the resolvent is already minimal the two methods agree.
        assert McsLearning().make_nogood(figure1_context()) == resolvent_nogood(
            figure1_context()
        )

    def test_costs_more_checks_than_resolvent(self):
        # The paper's maxcck story: subset testing is expensive.
        rslv_context = figure1_context()
        resolvent_nogood(rslv_context)
        rslv_checks = rslv_context.store.counter.total

        mcs_context = figure1_context()
        McsLearning().make_nogood(mcs_context)
        mcs_checks = mcs_context.store.counter.total
        assert mcs_checks > rslv_checks

    def test_name(self):
        assert McsLearning().name == "Mcs"

    def test_records_everything(self):
        assert McsLearning().should_record(Nogood.of((1, 0), (2, 0), (3, 0)))
