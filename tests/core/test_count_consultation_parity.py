"""The count-based consultation methods: parity on both store classes.

``count_violated_higher``/``count_violated_higher_batch`` exist so the
AWC hot path can ask "is any higher nogood violated?" without building a
throwaway list — but they must be *exactly* the list methods minus the
list: same counter bumps, same numbers, on the dict store and the linear
ablation store alike.
These tests drive randomized store states through both the list and the
count form, on fresh twin stores so the shared counters can be compared
bump for bump.
"""

import random

from repro.core.assignment import AgentView
from repro.core.nogood import Nogood
from repro.core.store import LinearNogoodStore, NogoodStore

from ..conftest import with_linear_store

STORE_CLASSES = (NogoodStore, LinearNogoodStore)

OWN = 0
PEERS = (1, 2, 3)
VALUES = (0, 1, 2)


def random_nogoods(rng, count=18):
    nogoods = []
    for _ in range(count):
        pairs = [(OWN, rng.choice(VALUES))]
        for peer in PEERS:
            if rng.random() < 0.7:
                pairs.append((peer, rng.choice(VALUES)))
        nogoods.append(Nogood(pairs))
    if rng.random() < 0.5:
        nogoods.append(Nogood.of((OWN, rng.choice(VALUES))))  # unary
    return nogoods


def random_view(rng):
    view = AgentView()
    for peer in PEERS:
        if rng.random() < 0.8:
            view.update(peer, rng.choice(VALUES), rng.randrange(3))
    return view


def cell_measures(cell):
    """Per trial: (solved, cycles, maxcck, checks, messages, assignment)."""
    return [
        (
            trial.solved,
            trial.cycles,
            trial.maxcck,
            trial.total_checks,
            trial.messages_sent,
            sorted(trial.assignment.items()),
        )
        for trial in cell.trials
    ]


def twin_stores(backend, nogoods):
    """Two identical stores of *backend*."""
    stores = []
    for _ in range(2):
        store = backend(OWN)
        for nogood in nogoods:
            store.add(nogood)
        stores.append(store)
    return stores


class TestCountEqualsList:
    def test_single_value_counts_and_bumps_match(self):
        rng = random.Random(7)
        for backend in STORE_CLASSES:
            for trial in range(20):
                nogoods = random_nogoods(rng)
                a, b = twin_stores(backend, nogoods)
                view_a, view_b = random_view(rng), random_view(rng)
                # Same draws for both twins.
                view_b = view_a
                priority = rng.randrange(3)
                value = rng.choice(VALUES)
                listed = a.violated_higher(view_a, value, priority)
                counted = b.count_violated_higher(view_b, value, priority)
                assert counted == len(listed), (backend.__name__, trial)
                assert a.counter.total == b.counter.total, backend.__name__

    def test_batch_counts_and_bumps_match(self):
        rng = random.Random(11)
        for backend in STORE_CLASSES:
            for trial in range(20):
                nogoods = random_nogoods(rng)
                a, b = twin_stores(backend, nogoods)
                view = random_view(rng)
                priority = rng.randrange(3)
                listed = a.violated_higher_batch(view, VALUES, priority)
                counted = b.count_violated_higher_batch(
                    view, VALUES, priority
                )
                assert counted == [len(entry) for entry in listed]
                assert a.counter.total == b.counter.total, backend.__name__

    def test_batch_equals_singles_in_a_loop(self):
        rng = random.Random(13)
        for backend in STORE_CLASSES:
            nogoods = random_nogoods(rng)
            a, b = twin_stores(backend, nogoods)
            view = random_view(rng)
            batch = a.count_violated_higher_batch(view, VALUES, 1)
            singles = [
                b.count_violated_higher(view, value, 1) for value in VALUES
            ]
            assert batch == singles
            assert a.counter.total == b.counter.total, backend.__name__


class TestScanOrderParity:
    def test_found_order_matches_dict_reference_across_backends(self):
        # Every generated nogood binds the owner, so the linear oracle's
        # full scan finds the violated ones in the dict bucket's order.
        rng = random.Random(19)
        nogoods = random_nogoods(rng)
        view = random_view(rng)
        found = [
            twin_stores(backend, nogoods)[0].violated_higher_batch(
                view, VALUES, 1
            )
            for backend in STORE_CLASSES
        ]
        assert found[0] == found[1]


class TestCellBackendWorkersCross:
    def test_every_backend_is_bit_identical_across_jobs(self):
        """The full cross: store backend x worker count, one cell each.

        The count-based consultation paths run inside real AWC trials
        here; any divergence in counter bumps or candidate selection
        would surface as a differing measure row.
        """
        from repro.algorithms.registry import awc
        from repro.experiments.runner import run_cell
        from repro.problems.coloring import random_coloring_instance

        instances = [
            random_coloring_instance(10, seed=s).to_discsp() for s in (5, 6)
        ]
        specs = {
            "dict": awc("Rslv"),
            "linear": with_linear_store(awc("Rslv")),
        }
        measures = {
            (store, workers): cell_measures(
                run_cell(
                    instances,
                    spec,
                    inits_per_instance=2,
                    master_seed=9,
                    n=10,
                    workers=workers,
                )
            )
            for store, spec in specs.items()
            for workers in (1, 2)
        }
        def trajectory(rows):
            # (solved, cycles, assignment) per trial — the fields the
            # search itself determines, independent of check counting.
            return [(row[0], row[1], row[5]) for row in rows]

        for store in specs:
            # A pool runs the very spec it is given: every measure of a
            # store's row, its check counts included, ignores the workers.
            assert measures[(store, 2)] == measures[(store, 1)], store
        # The ablation store runs the same search but counts the checks
        # the index skips, so across stores only trajectory fields match.
        assert trajectory(measures[("linear", 1)]) == trajectory(
            measures[("dict", 1)]
        )


class TestCrossBackendNumbers:
    def test_all_backends_agree_on_higher_counts(self):
        rng = random.Random(23)
        for trial in range(20):
            nogoods = random_nogoods(rng)
            view = random_view(rng)
            priority = rng.randrange(3)
            results = []
            for backend in STORE_CLASSES:
                store = backend(OWN)
                for nogood in nogoods:
                    store.add(nogood)
                results.append(
                    store.count_violated_higher_batch(view, VALUES, priority)
                )
            assert results[0] == results[1], trial
