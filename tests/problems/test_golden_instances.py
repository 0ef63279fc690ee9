"""Golden instances: the default-seed generators are pinned bit-for-bit.

Every generator routes its randomness through ``derive_rng``, so the
instance produced by a given (parameters, seed) pair is part of the repo's
public contract — results tables cite it. These digests fail the moment
anyone perturbs a generator's draw sequence (reordering ``rng`` calls,
"harmless" refactors, a stray global-``random`` call) even if the
instances remain statistically plausible.

If a change is *meant* to alter the instances, update the digests and say
so in the changelog — that is a results-invalidating change.
"""

import hashlib

import pytest

from repro.problems.binary_csp import random_binary_csp
from repro.problems.coloring import random_coloring_instance
from repro.problems.sat.generators import planted_3sat, unique_solution_3sat


def digest(payload) -> str:
    """A short stable digest of a canonical (sorted, typed) payload."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def coloring_payload(instance):
    return (
        instance.graph.num_nodes,
        tuple(sorted(instance.graph.edges)),
        instance.num_colors,
        tuple(sorted(instance.planted.items())),
    )


def sat_payload(instance):
    return (
        instance.formula.num_vars,
        tuple(instance.formula.clauses),
        tuple(sorted(instance.planted.items())),
    )


def binary_csp_payload(instance):
    return (
        instance.num_variables,
        instance.domain_size,
        instance.constrained_pairs,
        tuple(
            tuple(sorted(nogood.pairs)) for nogood in instance.csp.nogoods
        ),
        tuple(sorted(instance.planted.items())),
    )


class TestGoldenDigests:
    def test_coloring_default_seed(self):
        instance = random_coloring_instance(20)
        assert digest(coloring_payload(instance)) == "80487c6ed66e481d"

    def test_planted_3sat_default_seed(self):
        instance = planted_3sat(20)
        assert digest(sat_payload(instance)) == "2173762176d43632"

    def test_unique_solution_3sat_default_seed(self):
        instance = unique_solution_3sat(12)
        assert digest(sat_payload(instance)) == "3eed1474be4f6d70"

    def test_unique_solution_3sat_learn_workload_size(self):
        # n=50 is the size the learn benchmark certifies; its final UNSAT
        # proofs exercise the CDCL kernel far more than n=12 does.
        instance = unique_solution_3sat(50)
        assert digest(sat_payload(instance)) == "f2f2fbe784422557"

    @pytest.mark.parametrize(
        "num_vars, expected",
        [
            # n=4 is the smallest that generates: planted_3sat(3) cannot
            # draw its 8 distinct balanced clauses from the 6 that exist.
            (4, "59e4392cd82110e6"),
            (20, "7078dcdc4ad142b9"),
            (30, "0c8935939ac2aa30"),
            (75, "8fdd7fe16727935d"),
        ],
    )
    def test_unique_solution_3sat_sizes(self, num_vars, expected):
        instance = unique_solution_3sat(num_vars)
        assert digest(sat_payload(instance)) == expected

    def test_unique_solution_3sat_dpll_engine(self):
        instance = unique_solution_3sat(20, engine="dpll")
        assert digest(sat_payload(instance)) == "de0cf38fd4734818"

    def test_random_binary_csp_default_seed(self):
        instance = random_binary_csp(10, 4, 0.3, 0.2)
        assert digest(binary_csp_payload(instance)) == "1e971a259597ca9a"


class TestSeedSeparation:
    def test_different_seeds_give_different_instances(self):
        assert coloring_payload(
            random_coloring_instance(20, seed=0)
        ) != coloring_payload(random_coloring_instance(20, seed=1))
        assert sat_payload(planted_3sat(20, seed=0)) != sat_payload(
            planted_3sat(20, seed=1)
        )

    def test_same_seed_repeats_exactly(self):
        assert binary_csp_payload(
            random_binary_csp(10, 4, 0.3, 0.2, seed=7)
        ) == binary_csp_payload(random_binary_csp(10, 4, 0.3, 0.2, seed=7))
