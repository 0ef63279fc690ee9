"""The store's cached outranking set: correctness under view changes.

The scans classify a nogood as higher when its variables are a subset of
one cached set (the owner plus the variables that outrank it), rebuilt per
(view, priority_version, own priority). These tests pin the rebuild rules
and check the classification against the priority-key definition, so the
cache can never go stale.
"""

import random

import pytest

from repro.core.assignment import AgentView
from repro.core.nogood import Nogood
from repro.core.priorities import order_key
from repro.core.store import LinearNogoodStore, NogoodStore

STORE_CLASSES = (NogoodStore, LinearNogoodStore)


def fresh(entries):
    view = AgentView()
    for variable, (value, priority) in entries.items():
        view.update(variable, value, priority)
    return view


class TestPriorityVersion:
    def test_value_change_does_not_bump(self):
        view = AgentView()
        view.update(1, 0, 2)
        version = view.priority_version
        view.update(1, 1, 2)  # value only
        assert view.priority_version == version

    def test_priority_change_bumps(self):
        view = AgentView()
        view.update(1, 0, 2)
        version = view.priority_version
        view.update(1, 0, 3)
        assert view.priority_version > version

    def test_new_variable_at_zero_priority_does_not_bump(self):
        # Unknown variables already read as priority 0, so learning their
        # value at priority 0 changes no key.
        view = AgentView()
        version = view.priority_version
        view.update(5, 1, 0)
        assert view.priority_version == version

    def test_new_variable_at_nonzero_priority_bumps(self):
        view = AgentView()
        version = view.priority_version
        view.update(5, 1, 4)
        assert view.priority_version > version

    def test_forget_bumps_only_for_nonzero_priority(self):
        view = AgentView()
        view.update(1, 0, 0)
        view.update(2, 0, 3)
        version = view.priority_version
        view.forget(1)
        assert view.priority_version == version
        view.forget(2)
        assert view.priority_version > version


class TestCacheCorrectness:
    def test_key_updates_after_priority_change(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 0), (3, 1))
        view = fresh({3: (1, 1)})
        assert store.priority_key_of(nogood, view) == order_key(1, 3)
        view.update(3, 1, 9)
        assert store.priority_key_of(nogood, view) == order_key(9, 3)

    def test_key_stable_across_value_changes(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 0), (3, 1))
        view = fresh({3: (1, 2)})
        before = store.priority_key_of(nogood, view)
        view.update(3, 0, 2)
        assert store.priority_key_of(nogood, view) == before

    def test_different_view_objects_not_conflated(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 0), (3, 1))
        first = fresh({3: (1, 5)})
        second = fresh({3: (1, 7)})
        assert store.priority_key_of(nogood, first) == order_key(5, 3)
        assert store.priority_key_of(nogood, second) == order_key(7, 3)
        assert store.priority_key_of(nogood, first) == order_key(5, 3)

    def test_is_higher_tracks_priority_changes(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 0), (3, 1))
        store.add(nogood)
        view = fresh({3: (1, 0)})
        # x3 at priority 0 with larger id: ranks below x0 → nogood lower.
        assert not store.is_higher(nogood, view, own_priority=0)
        view.update(3, 1, 1)
        assert store.is_higher(nogood, view, own_priority=0)


class TestOutrankingSetReuse:
    """``key_cache_hits``/``misses`` count reuse of the outranking set.

    One lookup per classified consultation (a batch counts once);
    unclassified scans make none.
    """

    def make_store(self, count=20):
        store = NogoodStore(own_variable=0)
        for peer in range(1, count + 1):
            store.add(Nogood.of((0, 0), (peer, 1)))
        return store

    def lookups(self, store):
        return store.key_cache_hits, store.key_cache_misses

    def test_first_lookup_misses_and_repeats_hit(self):
        store = self.make_store()
        view = fresh({1: (1, 2)})
        store.violated_higher(view, 0, 0)
        assert self.lookups(store) == (0, 1)
        store.count_violated_lower(view, 0, 0)
        store.is_higher(Nogood.of((0, 0), (1, 1)), view, 0)
        assert self.lookups(store) == (2, 1)

    def test_a_batch_looks_up_once(self):
        store = self.make_store()
        view = fresh({1: (1, 2)})
        store.count_violated_higher_batch(view, [0, 1, 2], 0)
        store.count_violated_lower_batch(view, [0, 1, 2], 0)
        assert self.lookups(store) == (1, 1)

    def test_unclassified_scans_do_not_look_up(self):
        store = self.make_store()
        view = fresh({1: (1, 2)})
        store.violated(view, 0)
        store.count_violated_batch(view, [0, 1])
        store.is_consistent(view, 0)
        assert self.lookups(store) == (0, 0)

    def test_value_changes_do_not_invalidate(self):
        store = self.make_store()
        view = fresh({1: (1, 2)})
        store.violated_higher(view, 0, 0)
        misses = store.key_cache_misses
        for value in (0, 1, 0, 1):
            view.update(1, value, 2)  # value churn, same priority
            store.violated_higher(view, 0, 0)
        assert store.key_cache_misses == misses

    def test_priority_view_and_own_priority_changes_rebuild(self):
        store = self.make_store()
        view = fresh({1: (1, 2)})
        store.violated_higher(view, 0, 0)
        view.update(1, 1, 3)  # neighbour's priority
        store.violated_higher(view, 0, 0)
        store.violated_higher(view, 0, 1)  # owner's priority
        store.violated_higher(fresh({1: (1, 3)}), 0, 1)  # another view
        assert self.lookups(store) == (0, 4)

    def test_joining_at_priority_zero_reuses_the_set(self):
        # Unknown variables read as priority 0, so a variable joining the
        # view at priority 0 bumps no version and must not need a rebuild.
        store = NogoodStore(own_variable=5)
        below = Nogood.of((5, 0), (3, 1))
        above = Nogood.of((5, 0), (7, 1))
        store.add(below)
        store.add(above)
        view = AgentView()
        assert store.violated_higher(view, 0, 0) == []
        view.update(3, 1, 0)
        view.update(7, 1, 0)
        assert store.violated_higher(view, 0, 0) == [below]
        assert store.count_violated_lower(view, 0, 0) == 1
        assert self.lookups(store) == (2, 1)


def reference_is_higher(store, nogood, view, own_priority):
    """The paper's definition: the nogood's key outranks the owner's."""
    return store.priority_key_of(nogood, view) > order_key(
        own_priority, store.own_variable
    )


class TestClassificationEquivalence:
    """Randomized: the cached classification equals the key definition.

    One store and one view per case, mutated in place between queries so
    the cache sees value churn, priority changes, forgotten variables and
    variables joining at priority 0 (which bump no version); nogoods mix
    known and unknown variables, with and without the owner.
    """

    @pytest.mark.parametrize("store_class", STORE_CLASSES)
    @pytest.mark.parametrize("seed", range(40))
    def test_is_higher_and_scans_match_priority_keys(self, store_class, seed):
        rng = random.Random(seed)
        own = rng.randrange(8)
        store = store_class(own_variable=own)
        others = [v for v in range(12) if v != own]
        nogoods = []
        for _ in range(25):
            members = rng.sample(others, rng.randint(0, 3))
            if rng.random() < 0.8:
                members.append(own)
            nogood = Nogood((v, rng.randrange(2)) for v in members)
            nogoods.append(nogood)
            store.add(nogood)
        known = rng.sample(others, 8)  # the other three stay unknown
        view = AgentView()
        for _ in range(30):
            variable = rng.choice(known)
            if rng.random() < 0.15:
                view.forget(variable)
            else:
                view.update(
                    variable, rng.randrange(2), rng.choice((0, 0, 1, 2, 3))
                )
            own_priority = rng.choice((0, 0, 1, 2, 3))
            for nogood in nogoods:
                assert store.is_higher(
                    nogood, view, own_priority
                ) == reference_is_higher(store, nogood, view, own_priority)
            own_value = rng.randrange(2)
            scanned = store.for_value(own_value)
            higher = [
                nogood
                for nogood in scanned
                if reference_is_higher(store, nogood, view, own_priority)
            ]
            before = store.counter.total
            got = store.violated_higher(view, own_value, own_priority)
            assert store.counter.total - before == len(higher)
            assert got == [
                nogood
                for nogood in higher
                if nogood.prohibits({**view.as_assignment(), own: own_value})
            ]
            before = store.counter.total
            lower = store.count_violated_lower(view, own_value, own_priority)
            assert store.counter.total - before == len(scanned) - len(higher)
            assert lower + len(got) == store.count_violated(view, own_value)
