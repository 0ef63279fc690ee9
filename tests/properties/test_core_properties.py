"""Property-based tests over the core data structures (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given

from repro.core.assignment import AgentView
from repro.core.nogood import Nogood, union_nogoods
from repro.core.priorities import nogood_priority_key, order_key
from repro.core.store import CheckCounter, NogoodStore

# A pair binds a variable in 0..7 to a value in 0..3.
pairs = st.tuples(st.integers(0, 7), st.integers(0, 3))


def consistent_pairs(draw_pairs):
    """Deduplicate conflicting bindings (keep the first per variable)."""
    seen = {}
    for variable, value in draw_pairs:
        seen.setdefault(variable, value)
    return list(seen.items())


nogoods = st.lists(pairs, max_size=6).map(consistent_pairs).map(Nogood)
assignments = st.dictionaries(st.integers(0, 7), st.integers(0, 3), max_size=8)


class TestNogoodProperties:
    @given(nogoods)
    def test_equality_is_pair_set_equality(self, nogood):
        clone = Nogood(sorted(nogood.pairs))
        assert clone == nogood
        assert hash(clone) == hash(nogood)

    @given(nogoods, assignments)
    def test_prohibits_iff_all_pairs_match(self, nogood, assignment):
        expected = all(
            variable in assignment and assignment[variable] == value
            for variable, value in nogood.pairs
        )
        assert nogood.prohibits(assignment) == expected

    @given(nogoods, st.integers(0, 7))
    def test_without_removes_exactly_one_variable(self, nogood, variable):
        stripped = nogood.without(variable)
        assert not stripped.mentions(variable)
        assert stripped.pairs == {
            pair for pair in nogood.pairs if pair[0] != variable
        }

    @given(nogoods)
    def test_restriction_to_own_variables_is_identity(self, nogood):
        assert nogood.restricted_to(nogood.variables) == nogood

    @given(nogoods, nogoods)
    def test_subset_relation_matches_pairs(self, a, b):
        assert a.is_subset_of(b) == (a.pairs <= b.pairs)

    @given(st.lists(nogoods, max_size=4))
    def test_union_contains_every_compatible_input(self, parts):
        bound = {}
        compatible = True
        for part in parts:
            for variable, value in part.pairs:
                if bound.setdefault(variable, value) != value:
                    compatible = False
        if not compatible:
            return  # union would (correctly) raise; covered by unit tests
        merged = union_nogoods(parts)
        for part in parts:
            assert part.is_subset_of(merged)


class TestPriorityProperties:
    @given(st.integers(0, 100), st.integers(0, 50), st.integers(0, 100),
           st.integers(0, 50))
    def test_order_is_total_and_antisymmetric(self, p1, v1, p2, v2):
        a, b = order_key(p1, v1), order_key(p2, v2)
        assert (a < b) + (a > b) + (a == b) == 1
        if (p1, v1) == (p2, v2):
            assert a == b

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)),
                    min_size=1, max_size=6))
    def test_nogood_priority_is_min_member(self, members):
        key = nogood_priority_key(members)
        assert key == min(order_key(p, v) for p, v in members)


class TestStoreProperties:
    @given(st.lists(nogoods, max_size=12), st.integers(0, 3))
    def test_for_value_partition(self, batch, value):
        """Every stored nogood appears in for_value(v) iff it could bind v."""
        store = NogoodStore(own_variable=0)
        for nogood in batch:
            store.add(nogood)
        bucket = store.for_value(value)
        for nogood in set(batch):
            could_apply = (
                not nogood.mentions(0) or nogood.value_of(0) == value
            )
            assert (nogood in bucket) == could_apply

    @given(st.lists(nogoods, max_size=12))
    def test_add_is_idempotent(self, batch):
        store = NogoodStore(own_variable=0)
        for nogood in batch:
            store.add(nogood)
        size = len(store)
        for nogood in batch:
            assert store.add(nogood) is False
        assert len(store) == size

    @given(nogoods, assignments, st.integers(0, 3))
    def test_is_violated_matches_prohibits(self, nogood, view_map, own_value):
        """The counted store test agrees with the reference semantics."""
        store = NogoodStore(own_variable=0, counter=CheckCounter())
        view = AgentView()
        for variable, value in view_map.items():
            if variable != 0:
                view.update(variable, value, 0)
        full_assignment = {
            variable: value
            for variable, value in view_map.items()
            if variable != 0
        }
        full_assignment[0] = own_value
        assert store.is_violated(nogood, view, own_value) == nogood.prohibits(
            full_assignment
        )
