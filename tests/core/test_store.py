"""The nogood store: indexing, deduplication, and check accounting."""

import pickle
import random

import pytest

from repro.core.assignment import AgentView
from repro.core.nogood import Nogood
from repro.core.priorities import order_key
from repro.core.store import CheckCounter, LinearNogoodStore, NogoodStore


def make_view(entries):
    view = AgentView()
    for variable, (value, priority) in entries.items():
        view.update(variable, value, priority)
    return view


class TestAddAndLookup:
    def test_add_returns_true_once(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 1), (1, 1))
        assert store.add(nogood) is True
        assert store.add(nogood) is False
        assert len(store) == 1
        assert nogood in store

    def test_for_value_buckets_by_own_value(self):
        store = NogoodStore(own_variable=0)
        a = Nogood.of((0, 0), (1, 0))
        b = Nogood.of((0, 1), (1, 1))
        store.add(a)
        store.add(b)
        assert store.for_value(0) == [a]
        assert store.for_value(1) == [b]
        assert store.for_value(2) == []

    def test_nogood_without_own_variable_applies_to_all_values(self):
        store = NogoodStore(own_variable=0)
        other = Nogood.of((1, 0), (2, 0))
        store.add(other)
        assert other in store.for_value(0)
        assert other in store.for_value(1)

    def test_nogoods_iterates_everything(self):
        store = NogoodStore(own_variable=0)
        store.add(Nogood.of((0, 0), (1, 0)))
        store.add(Nogood.of((1, 1), (2, 1)))
        assert len(list(store.nogoods())) == 2


@pytest.mark.parametrize("store_class", (NogoodStore, LinearNogoodStore))
class TestLearnedCount:
    def test_initial_nogoods_not_counted_as_learned(self, store_class):
        store = store_class(0, initial=[Nogood.of((0, 0), (1, 0))])
        store.add(Nogood.of((0, 0), (1, 1)))
        assert store.learned_count() == 1
        assert len(store) == 2

    def test_duplicates_are_not_learned(self, store_class):
        constraint = Nogood.of((0, 0), (1, 0))
        store = store_class(0, initial=[constraint, constraint])
        assert len(store) == 1
        assert store.add(constraint) is False
        for k in range(3):
            store.add(Nogood.of((0, 0), (1, k)))
            store.add(Nogood.of((0, 0), (1, k)))
        assert store.learned_count() == 2

    def test_rebind_keeps_order_and_learned_count(self, store_class):
        from repro.algorithms.registry import awc
        from repro.problems.coloring import random_coloring_instance
        from repro.runtime.metrics import MetricsCollector

        problem = random_coloring_instance(10, seed=5).to_discsp()
        [agent, *_] = awc("Rslv").build(problem, MetricsCollector(), 0, None)
        learned = Nogood.of((agent.variable, 0), (99, 1))
        agent.store.add(learned)
        before = list(agent.store.nogoods())
        counter = agent.store.counter
        agent.rebind_store(store_class)
        assert type(agent.store) is store_class
        assert agent.store.counter is counter
        assert list(agent.store.nogoods()) == before
        assert agent.store.learned_count() == 1


class TestViolationChecking:
    def test_violated_when_view_and_value_match(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 1), (1, 2))
        view = make_view({1: (2, 0)})
        assert store.is_violated(nogood, view, own_value=1)
        assert not store.is_violated(nogood, view, own_value=0)

    def test_unknown_variable_blocks_violation(self):
        store = NogoodStore(own_variable=0)
        nogood = Nogood.of((0, 1), (9, 2))
        assert not store.is_violated(nogood, AgentView(), own_value=1)

    def test_every_test_counts_one_check(self):
        counter = CheckCounter()
        store = NogoodStore(own_variable=0, counter=counter)
        nogood = Nogood.of((0, 1), (1, 2))
        view = make_view({1: (2, 0)})
        store.is_violated(nogood, view, 1)
        store.is_violated(nogood, view, 0)
        store.is_violated(nogood, view, 1)
        assert counter.total == 3


class TestPriorityClassification:
    def test_nogood_priority_is_lowest_member(self):
        store = NogoodStore(own_variable=5)
        nogood = Nogood.of((1, 0), (2, 0), (5, 0))
        view = make_view({1: (0, 2), 2: (0, 1)})
        assert store.priority_key_of(nogood, view) == order_key(1, 2)

    def test_is_higher_respects_tie_break(self):
        store = NogoodStore(own_variable=5)
        nogood = Nogood.of((1, 0), (5, 0))
        # Same numeric priority: variable 1 < 5, so the nogood is higher.
        view = make_view({1: (0, 0)})
        assert store.is_higher(nogood, view, own_priority=0)

    def test_is_higher_false_when_member_is_lower(self):
        store = NogoodStore(own_variable=1)
        nogood = Nogood.of((5, 0), (1, 0))
        view = make_view({5: (0, 0)})
        # Variable 5 has the same priority but larger id: lower than x1.
        assert not store.is_higher(nogood, view, own_priority=0)

    def test_unary_own_nogood_is_always_higher(self):
        store = NogoodStore(own_variable=1)
        nogood = Nogood.of((1, 0))
        assert store.is_higher(nogood, AgentView(), own_priority=10**6)


class TestCompositeQueries:
    def setup_method(self):
        self.counter = CheckCounter()
        self.store = NogoodStore(own_variable=0, counter=self.counter)
        # Higher nogood (x9 at priority 5), lower nogood (x1 at priority 0;
        # x1 > x0 in id order so it ranks below x0 at equal priority).
        self.high = Nogood.of((0, 0), (9, 1))
        self.low = Nogood.of((0, 0), (1, 1))
        self.store.add(self.high)
        self.store.add(self.low)
        self.view = make_view({9: (1, 5), 1: (1, 0)})

    def test_violated_higher_returns_only_higher(self):
        violated = self.store.violated_higher(self.view, 0, own_priority=0)
        assert violated == [self.high]

    def test_violated_higher_counts_only_higher_checks(self):
        before = self.counter.total
        self.store.violated_higher(self.view, 0, own_priority=0)
        # Only the higher nogood gets a violation test; the lower one is
        # filtered by priority without costing a check.
        assert self.counter.total - before == 1

    def test_count_violated_lower(self):
        assert self.store.count_violated_lower(self.view, 0, own_priority=0) == 1

    def test_count_violated_all(self):
        assert self.store.count_violated(self.view, 0) == 2
        assert self.store.count_violated(self.view, 1) == 0

    def test_is_consistent_counts_short_circuit_prefix(self):
        store = NogoodStore(own_variable=0)
        for other in (1, 2, 3):
            store.add(Nogood.of((0, 0), (other, 1)))
        view = make_view({2: (1, 0)})  # the second nogood is violated
        assert store.is_consistent(view, 0) is False
        # The scan tests nogoods 1 and 2 and stops: two counted checks.
        assert store.counter.total == 2


@pytest.mark.parametrize("store_class", (NogoodStore, LinearNogoodStore))
def test_batches_equal_singles_and_count_identically(store_class):
    rng = random.Random(11)
    single = store_class(0, CheckCounter())
    batch = store_class(0, CheckCounter())
    for _ in range(25):
        pairs = [(v, rng.randrange(3)) for v in rng.sample(range(5), 2)]
        single.add(Nogood(pairs))
        batch.add(Nogood(pairs))
    view = make_view({variable: (1, variable % 2) for variable in (1, 2, 3)})
    values = [0, 1, 2]
    assert batch.violated_higher_batch(view, values, 1) == [
        single.violated_higher(view, value, 1) for value in values
    ]
    assert batch.count_violated_higher_batch(view, values, 1) == [
        single.count_violated_higher(view, value, 1) for value in values
    ]
    assert batch.count_violated_lower_batch(view, values, 1) == [
        single.count_violated_lower(view, value, 1) for value in values
    ]
    assert batch.violated_batch(view, values) == [
        single.violated(view, value) for value in values
    ]
    assert batch.count_violated_batch(view, values) == [
        single.count_violated(view, value) for value in values
    ]
    assert batch.counter.total == single.counter.total


class TestLinearStore:
    def test_scans_all_nogoods_for_any_value(self):
        store = LinearNogoodStore(own_variable=0)
        a = Nogood.of((0, 0), (1, 0))
        b = Nogood.of((0, 1), (1, 1))
        store.add(a)
        store.add(b)
        assert set(store.for_value(0)) == {a, b}

    def test_costs_more_checks_than_indexed(self):
        view = make_view({1: (0, 1), 2: (0, 1), 3: (0, 1)})
        nogoods = [
            Nogood.of((0, value), (other, 0))
            for value in range(3)
            for other in (1, 2, 3)
        ]
        indexed = NogoodStore(0, CheckCounter())
        linear = LinearNogoodStore(0, CheckCounter())
        for nogood in nogoods:
            indexed.add(nogood)
            linear.add(nogood)
        indexed.count_violated(view, 0)
        linear.count_violated(view, 0)
        assert linear.counter.total > indexed.counter.total


class TestReadOnlyBuckets:
    """Mutation through for_value()'s return value must never corrupt the
    store's index (it used to hand out its live internal bucket)."""

    def setup_method(self):
        self.store = NogoodStore(own_variable=0)
        self.indexed = Nogood.of((0, 0), (1, 0))
        self.store.add(self.indexed)

    def test_bucket_mutators_raise(self):
        bucket = self.store.for_value(0)
        rogue = Nogood.of((0, 0), (2, 2))
        with pytest.raises(TypeError):
            bucket.append(rogue)
        with pytest.raises(TypeError):
            bucket.extend([rogue])
        with pytest.raises(TypeError):
            bucket.insert(0, rogue)
        with pytest.raises(TypeError):
            bucket.pop()
        with pytest.raises(TypeError):
            bucket.remove(self.indexed)
        with pytest.raises(TypeError):
            bucket.clear()
        with pytest.raises(TypeError):
            bucket.sort()
        with pytest.raises(TypeError):
            bucket.reverse()
        with pytest.raises(TypeError):
            bucket[0] = rogue
        with pytest.raises(TypeError):
            del bucket[0]
        with pytest.raises(TypeError):
            bucket += [rogue]

    def test_index_survives_attempted_mutation(self):
        bucket = self.store.for_value(0)
        with pytest.raises(TypeError):
            bucket.clear()
        assert self.store.for_value(0) == [self.indexed]
        assert len(self.store) == 1

    def test_buckets_pickle_and_stay_read_only(self):
        copy = pickle.loads(pickle.dumps(self.store))
        bucket = copy.for_value(0)
        assert type(bucket) is type(self.store.for_value(0))
        assert bucket == [self.indexed]
        with pytest.raises(TypeError):
            bucket.append(self.indexed)

    def test_empty_bucket_is_immutable_too(self):
        empty = self.store.for_value(99)
        with pytest.raises(TypeError):
            empty.append(Nogood.of((0, 99)))
        assert self.store.for_value(99) == []
        # The empty bucket is shared; a successful mutation would have
        # leaked a phantom nogood into every store.
        other = NogoodStore(own_variable=1)
        assert other.for_value(0) == []

    def test_unconditional_merge_is_cached_and_immutable(self):
        unconditional = Nogood.of((1, 1), (2, 1))
        self.store.add(unconditional)
        merged = self.store.for_value(0)
        with pytest.raises(TypeError):
            merged.append(Nogood.of((0, 5)))
        assert self.store.for_value(0) == [self.indexed, unconditional]
        # The merge is cached: repeat scans reuse the same list object.
        assert self.store.for_value(0) is merged

    def test_unconditional_merge_cache_invalidated_on_add(self):
        self.store.add(Nogood.of((1, 1), (2, 1)))
        before = self.store.for_value(0)
        later = Nogood.of((0, 0), (3, 0))
        self.store.add(later)
        after = self.store.for_value(0)
        assert after is not before
        assert list(after) == [self.indexed, later, Nogood.of((1, 1), (2, 1))]
        another_uncond = Nogood.of((4, 1), (5, 1))
        self.store.add(another_uncond)
        assert list(self.store.for_value(0))[-1] == another_uncond

    def test_store_can_still_grow_after_handing_out_buckets(self):
        bucket = self.store.for_value(0)
        later = Nogood.of((0, 0), (3, 0))
        assert self.store.add(later) is True
        assert self.store.for_value(0) == [self.indexed, later]
        assert bucket == [self.indexed, later]  # same live bucket, by design
