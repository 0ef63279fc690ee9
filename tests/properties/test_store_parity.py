"""Dict-versus-linear nogood-store parity under randomized interleavings.

Seeded ``random.Random`` rather than hypothesis, so these run everywhere
CI runs: the indexed store must return the same query results as the
linear oracle, which counts at least as much (it runs every test the
index skips).
"""

import random

import pytest

from repro.core.assignment import AgentView
from repro.core.nogood import Nogood
from repro.core.store import LinearNogoodStore, NogoodStore

STORE_CLASSES = (NogoodStore, LinearNogoodStore)

#: Query opcodes exercised by the interleaving (all five counted methods).
QUERIES = (
    "count_violated",
    "violated",
    "is_consistent",
    "violated_higher",
    "count_violated_lower",
)


def random_nogood(rng, nvars, domain, own=0):
    size = rng.randint(1, min(4, nvars))
    members = rng.sample(range(nvars), size)
    if rng.random() < 0.8 and own not in members:
        members[0] = own  # bias toward conditional nogoods, like real runs
    return Nogood((variable, rng.choice(domain)) for variable in members)


def run_interleaving(seed):
    """One randomized trial against all backends; returns counter totals."""
    rng = random.Random(seed)
    nvars = rng.randint(2, 8)
    domain = list(range(rng.randint(2, 4)))
    stores = [cls(0) for cls in STORE_CLASSES]
    views = [AgentView() for _ in STORE_CLASSES]
    priorities = {}
    for step in range(rng.randint(10, 80)):
        roll = rng.random()
        if roll < 0.35:
            nogood = random_nogood(rng, nvars, domain)
            added = {store.add(nogood) for store in stores}
            assert len(added) == 1, f"seed {seed} step {step}: add diverged"
        elif roll < 0.60:
            variable = rng.randint(1, nvars - 1)
            value = rng.choice(domain)
            if rng.random() < 0.1:
                priorities[variable] = priorities.get(variable, 0) + 1
            for view in views:
                view.update(variable, value, priorities.get(variable, 0))
        elif roll < 0.65:
            variable = rng.randint(1, nvars - 1)
            for view in views:
                view.forget(variable)
        else:
            value = rng.choice(domain)
            priority = rng.randint(0, 3)
            query = QUERIES[rng.randrange(len(QUERIES))]
            results = []
            for store, view in zip(stores, views):
                if query in ("violated_higher", "count_violated_lower"):
                    results.append(getattr(store, query)(view, value, priority))
                else:
                    results.append(getattr(store, query)(view, value))
            dict_result, linear_result = results
            # Linear scans in global insertion order while the indexed
            # stores scan bucket-then-unconditional, so list-valued
            # queries agree as sets, not sequences.
            if isinstance(dict_result, list):
                assert set(linear_result) == set(dict_result), (
                    f"seed {seed} step {step}: {query} diverged: {results}"
                )
            else:
                assert linear_result == dict_result, (
                    f"seed {seed} step {step}: {query} diverged: {results}"
                )
    return [store.counter.total for store in stores]


@pytest.mark.parametrize("seed", range(40))
def test_backends_agree_on_results_and_counting_contract(seed):
    dict_total, linear_total = run_interleaving(seed)
    # The linear reference never counts less: it is the superset scan.
    assert linear_total >= dict_total


def test_batch_methods_agree_across_backends():
    rng = random.Random(99)
    stores = [cls(0) for cls in STORE_CLASSES]
    views = [AgentView() for _ in STORE_CLASSES]
    for _ in range(40):
        nogood = random_nogood(rng, 6, [0, 1, 2])
        for store in stores:
            store.add(nogood)
    for variable in range(1, 6):
        value = rng.choice([0, 1, 2])
        for view in views:
            view.update(variable, value, variable % 3)
    values = [0, 1, 2]
    for method, args in (
        ("violated_batch", (values,)),
        ("count_violated_batch", (values,)),
        ("violated_higher_batch", (values, 1)),
        ("count_violated_lower_batch", (values, 1)),
    ):
        dict_result, linear_result = (
            getattr(store, method)(view, *args)
            for store, view in zip(stores, views)
        )
        if method in ("violated_batch", "violated_higher_batch"):
            for linear_item, dict_item in zip(linear_result, dict_result):
                assert set(linear_item) == set(dict_item), method
        else:
            assert linear_result == dict_result, method
    dict_total, linear_total = (store.counter.total for store in stores)
    assert linear_total >= dict_total
