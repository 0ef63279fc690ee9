"""Property-based tests of the learning methods on random deadends."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.assignment import AgentView
from repro.core.nogood import Nogood
from repro.core.store import CheckCounter, NogoodStore
from repro.core.variables import integer_domain
from repro.learning.base import DeadendContext
from repro.learning.mcs import McsLearning, is_conflict_set
from repro.learning.resolvent import resolvent_nogood

OWN = 0
DOMAIN_SIZE = 3
OTHERS = (1, 2, 3, 4)


@st.composite
def deadend_contexts(draw):
    """Random agent views plus nogood stores that form a genuine deadend.

    The view binds the other variables to random values with random
    priorities ≥ 1 (so every nogood over them outranks OWN at priority 0).
    For each domain value, at least one violated nogood is forced; extra
    random nogoods (violated or not) are sprinkled on top.
    """
    view = AgentView()
    values = {}
    for variable in OTHERS:
        value = draw(st.integers(0, DOMAIN_SIZE - 1))
        priority = draw(st.integers(1, 5))
        values[variable] = value
        view.update(variable, value, priority)
    store = NogoodStore(own_variable=OWN, counter=CheckCounter())
    # Force the deadend: one violated nogood per own value.
    for own_value in range(DOMAIN_SIZE):
        members = draw(
            st.lists(st.sampled_from(OTHERS), min_size=1, max_size=3,
                     unique=True)
        )
        pairs = [(OWN, own_value)] + [(v, values[v]) for v in members]
        store.add(Nogood(pairs))
    # Sprinkle extra nogoods, possibly non-violated.
    extra = draw(st.integers(0, 4))
    for _ in range(extra):
        own_value = draw(st.integers(0, DOMAIN_SIZE - 1))
        members = draw(
            st.lists(st.sampled_from(OTHERS), min_size=1, max_size=3,
                     unique=True)
        )
        pairs = [(OWN, own_value)]
        for variable in members:
            value = draw(st.integers(0, DOMAIN_SIZE - 1))
            pairs.append((variable, value))
        store.add(Nogood(pairs))
    return DeadendContext(
        variable=OWN,
        domain=integer_domain(DOMAIN_SIZE),
        priority=0,
        view=view,
        store=store,
    )


class TestResolventProperties:
    @given(deadend_contexts())
    @settings(max_examples=60)
    def test_resolvent_is_a_conflict_set_over_the_view(self, context):
        """The learned nogood really does prohibit every own value."""
        nogood = resolvent_nogood(context)
        assert not nogood.mentions(OWN)
        assert is_conflict_set(context, nogood)

    @given(deadend_contexts())
    @settings(max_examples=60)
    def test_resolvent_agrees_with_the_view(self, context):
        nogood = resolvent_nogood(context)
        for variable, value in nogood.pairs:
            assert context.view.value_of(variable) == value

    @given(deadend_contexts())
    @settings(max_examples=60)
    def test_deterministic(self, context):
        assert resolvent_nogood(context) == resolvent_nogood(context)


class TestMcsProperties:
    @given(deadend_contexts())
    @settings(max_examples=40)
    def test_mcs_result_is_minimal_conflict_set(self, context):
        minimal = McsLearning().make_nogood(context)
        assert is_conflict_set(context, minimal)
        # Minimality: removing any single element breaks the conflict set.
        if len(minimal) > 1:
            for pair in minimal.pairs:
                smaller = Nogood(p for p in minimal.pairs if p != pair)
                assert not is_conflict_set(context, smaller)

    @given(deadend_contexts())
    @settings(max_examples=40)
    def test_mcs_never_larger_than_resolvent(self, context):
        resolvent = resolvent_nogood(context)
        minimal = McsLearning().make_nogood(context)
        assert len(minimal) <= len(resolvent)
        assert minimal.is_subset_of(resolvent)
