"""The eviction API of both store classes: pins, removal, cache hygiene."""

import pytest

from repro.core.assignment import AgentView
from repro.core.exceptions import ModelError
from repro.core.nogood import Nogood
from repro.core.store import LinearNogoodStore, NogoodStore
from repro.retention import NogoodInterner
from repro.retention.policy import LruPolicy

STORE_CLASSES = (NogoodStore, LinearNogoodStore)


def make_view(entries):
    view = AgentView()
    for variable, (value, priority) in entries.items():
        view.update(variable, value, priority)
    return view


@pytest.mark.parametrize("store_class", STORE_CLASSES)
class TestRemove:
    def test_remove_absent_returns_false(self, store_class):
        store = store_class(own_variable=0)
        assert store.remove(Nogood.of((0, 0), (1, 0))) is False

    def test_removed_nogood_gone_from_queries(self, store_class):
        store = store_class(own_variable=0)
        doomed = Nogood.of((0, 0), (1, 0))
        kept = Nogood.of((0, 0), (1, 1))
        store.add(doomed)
        store.add(kept)
        view = make_view({1: (0, 1)})
        assert store.violated(view, 0) == [doomed]
        assert store.remove(doomed) is True
        assert doomed not in store
        assert store.violated(view, 0) == []
        assert store.count_violated(view, 0) == 0
        assert store.is_consistent(view, 0)
        assert store.for_value(0) == [kept]
        assert list(store.nogoods()) == [kept]
        assert len(store) == 1

    def test_remove_then_readd(self, store_class):
        store = store_class(own_variable=0)
        nogood = Nogood.of((0, 0), (1, 0))
        store.add(nogood)
        store.remove(nogood)
        assert store.add(nogood) is True
        view = make_view({1: (0, 2)})
        assert store.violated_higher(view, 0, own_priority=0) == [nogood]

    def test_permanently_pinned_cannot_be_removed(self, store_class):
        store = store_class(own_variable=0)
        nogood = Nogood.of((0, 0), (1, 0))
        store.add(nogood, pinned=True)
        with pytest.raises(ModelError, match="pinned"):
            store.remove(nogood)

    def test_slot_pinned_cannot_be_removed(self, store_class):
        store = store_class(own_variable=0)
        nogood = Nogood.of((0, 0), (1, 0))
        store.add(nogood, slot="agent-3")
        with pytest.raises(ModelError, match="pinned"):
            store.remove(nogood)

    def test_eviction_counter(self, store_class):
        store = store_class(own_variable=0)
        nogood = Nogood.of((0, 0), (1, 0))
        store.add(nogood)
        assert store.evictions == 0
        store.remove(nogood)
        assert store.evictions == 1


@pytest.mark.parametrize("store_class", STORE_CLASSES)
class TestPins:
    def test_pinned_add_not_counted_as_learned(self, store_class):
        store = store_class(own_variable=0)
        store.add(Nogood.of((0, 0), (1, 0)), pinned=True)
        store.add(Nogood.of((0, 0), (1, 1)))
        assert store.learned_count() == 1
        assert len(store) == 2

    def test_slot_rotation_unpins_previous(self, store_class):
        store = store_class(own_variable=0)
        first = Nogood.of((0, 0), (1, 0))
        second = Nogood.of((0, 0), (1, 1))
        store.add(first, slot="sender")
        store.add(second, slot="sender")
        # The slot moved on, so the first resolvent is evictable again.
        assert store.remove(first) is True
        with pytest.raises(ModelError, match="pinned"):
            store.remove(second)

    def test_same_slot_pin_twice_is_idempotent(self, store_class):
        store = store_class(own_variable=0)
        nogood = Nogood.of((0, 0), (1, 0))
        store.add(nogood, slot="sender")
        assert store.add(nogood, slot="sender") is False  # duplicate add
        with pytest.raises(ModelError, match="pinned"):
            store.remove(nogood)

    def test_nogood_pinned_by_two_slots(self, store_class):
        store = store_class(own_variable=0)
        nogood = Nogood.of((0, 0), (1, 0))
        store.add(nogood, slot="a")
        store.add(nogood, slot="b")
        other = Nogood.of((0, 0), (1, 1))
        store.add(other, slot="a")
        # Slot "b" still pins it after "a" rotated away.
        with pytest.raises(ModelError, match="pinned"):
            store.remove(nogood)
        store.add(other, slot="b")
        assert store.remove(nogood) is True

    def test_evictable_excludes_both_pin_kinds(self, store_class):
        store = store_class(own_variable=0)
        permanent = Nogood.of((0, 0), (1, 0))
        slotted = Nogood.of((0, 0), (1, 1))
        free = Nogood.of((0, 0), (1, 2))
        store.add(permanent, pinned=True)
        store.add(slotted, slot="sender")
        store.add(free)
        assert store.evictable_nogoods() == [free]
        assert store.is_pinned(permanent)
        assert store.is_pinned(slotted)
        assert not store.is_pinned(free)
        assert store.is_permanently_pinned(permanent)
        assert not store.is_permanently_pinned(slotted)


@pytest.mark.parametrize("store_class", STORE_CLASSES)
class TestRetentionEnforcement:
    def test_policy_evicts_over_cap_on_add(self, store_class):
        store = store_class(own_variable=0)
        store.set_retention(LruPolicy(cap=2))
        nogoods = [Nogood.of((0, 0), (1, k)) for k in range(4)]
        for nogood in nogoods:
            store.add(nogood)
        assert store.learned_count() == 2
        assert store.evictions == 2

    def test_pins_never_evicted_even_when_over_cap(self, store_class):
        store = store_class(own_variable=0)
        store.set_retention(LruPolicy(cap=1))
        pinned = [Nogood.of((0, 0), (1, k)) for k in range(3)]
        for index, nogood in enumerate(pinned):
            store.add(nogood, slot=f"sender-{index}")
        constraint = Nogood.of((0, 1), (2, 1))
        store.add(constraint, pinned=True)
        store.add(Nogood.of((0, 0), (1, 99)))
        assert constraint in store
        assert all(nogood in store for nogood in pinned)

    def test_policy_may_evict_the_new_nogood(self, store_class):
        # When pins already crowd the budget the freshly added learned
        # nogood is the only candidate; evicting it must leave the index
        # consistent on both backends.
        store = store_class(own_variable=0)
        store.set_retention(LruPolicy(cap=1))
        store.add(Nogood.of((0, 0), (1, 0)))
        store.add(Nogood.of((0, 0), (1, 1)))  # at cap; oldest evicted
        newcomer = Nogood.of((0, 0), (1, 2))
        store.add(newcomer)
        assert store.learned_count() == 1
        view = make_view({1: (2, 1)})
        assert store.violated(view, 0) == [newcomer]

    def test_detach_policy(self, store_class):
        store = store_class(own_variable=0)
        store.set_retention(LruPolicy(cap=1))
        assert store.retention is not None
        store.set_retention(None)
        assert store.retention is None
        for k in range(3):
            store.add(Nogood.of((0, 0), (1, k)))
        assert store.learned_count() == 3


@pytest.mark.parametrize("store_class", STORE_CLASSES)
class TestInternerAdoption:
    def test_adds_are_interned(self, store_class):
        store = store_class(own_variable=0)
        interner = NogoodInterner()
        store.adopt_interner(interner)
        store.add(Nogood.of((0, 0), (1, 0)))
        duplicate = Nogood.of((0, 0), (1, 0))
        assert store.add(duplicate) is False
        assert interner.unique == 1

    def test_existing_contents_interned_on_adoption(self, store_class):
        store = store_class(own_variable=0)
        nogood = Nogood.of((0, 0), (1, 0))
        store.add(nogood)
        interner = NogoodInterner()
        store.adopt_interner(interner)
        assert nogood in interner
        assert store.interner is interner


class TestCacheInvalidationOnRemoval:
    """The satellite regression: stale caches after ``remove``."""

    def test_combined_list_cache_invalidated(self):
        store = NogoodStore(own_variable=0)
        conditional = Nogood.of((0, 0), (1, 0))
        unconditional = Nogood.of((1, 0), (2, 0))
        store.add(conditional)
        store.add(unconditional)
        # Populate the combined cache for value 0.
        assert store.for_value(0) == [conditional, unconditional]
        store.remove(unconditional)
        assert store.for_value(0) == [conditional]
        store.remove(conditional)
        assert store.for_value(0) == []

    def test_bucket_only_removal_invalidates_that_value(self):
        store = NogoodStore(own_variable=0)
        a = Nogood.of((0, 0), (1, 0))
        b = Nogood.of((0, 1), (1, 0))
        store.add(a)
        store.add(b)
        assert store.for_value(0) == [a]
        assert store.for_value(1) == [b]
        store.remove(a)
        assert store.for_value(0) == []
        assert store.for_value(1) == [b]


class TestLinearOracleAfterRemoval:
    def test_queries_match_dict_after_interleaved_removals(self):
        nogoods = [
            Nogood.of((0, 0), (1, 0)),
            Nogood.of((0, 0), (1, 1), (2, 0)),
            Nogood.of((0, 1), (2, 1)),
            Nogood.of((1, 0), (2, 0)),
            Nogood.of((0, 0), (2, 1)),
        ]
        dict_store = NogoodStore(own_variable=0)
        linear = LinearNogoodStore(own_variable=0)
        for store in (dict_store, linear):
            for nogood in nogoods:
                store.add(nogood)
        views = [
            make_view({1: (0, 2), 2: (0, 1)}),
            make_view({1: (1, 3), 2: (1, 0)}),
        ]
        for victim in (nogoods[1], nogoods[3], nogoods[0]):
            for store in (dict_store, linear):
                assert store.remove(victim) is True
            for view in views:
                for value in (0, 1):
                    # Linear scans every nogood in insertion order, so
                    # list-valued queries agree as sets.
                    assert set(linear.violated(view, value)) == set(
                        dict_store.violated(view, value)
                    )
                    assert linear.count_violated(
                        view, value
                    ) == dict_store.count_violated(view, value)
                    assert set(
                        linear.violated_higher(view, value, own_priority=0)
                    ) == set(
                        dict_store.violated_higher(view, value, own_priority=0)
                    )
                    assert linear.count_violated_lower(
                        view, value, own_priority=9
                    ) == dict_store.count_violated_lower(
                        view, value, own_priority=9
                    )
