"""The paper's experiments, table by table.

This module is configuration, not mechanism: each table is a problem family
plus a list of algorithm labels, run through
:func:`~repro.experiments.runner.run_cell` and rendered with
:class:`~repro.experiments.tables.Table`.

Scales
------

The paper runs 100 trials per cell at sizes up to n = 200, which takes
serious wall-clock time in a pure-Python simulator. Three scales are
provided:

* ``quick`` — smoke-test sizes, used by the test suite;
* ``default`` — reduced sizes/trials that finish on a laptop while still
  exhibiting every qualitative effect the paper reports;
* ``paper`` — the paper's exact sizes and trial counts.

Select one via the functions' *scale* argument or the ``REPRO_SCALE``
environment variable (``repro`` CLI and benchmarks honour it).

Instance caching
----------------

Unique-solution 3SAT instances are expensive to certify, so generated
formulas are cached on disk (DIMACS format, under ``REPRO_CACHE_DIR`` or
``.repro_cache/``) keyed by the generation parameters. Delete the directory
to force regeneration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..algorithms.registry import AlgorithmSpec, algorithm_by_name
from ..core.exceptions import ModelError
from ..core.problem import DisCSP
from ..problems.coloring import random_coloring_instance
from ..problems.sat.dimacs import read_dimacs, write_dimacs
from ..problems.sat.generators import planted_3sat, unique_solution_3sat
from ..problems.sat.to_discsp import sat_to_discsp
from ..runtime.random_source import Seed, derive_seed
from .reference import ALL_TABLES, TABLE4
from .runner import CellResult, run_cell
from .tables import Table, TableRow

#: (n, number of instances, initial-value sets per instance)
CellSpec = Tuple[int, int, int]


@dataclass(frozen=True)
class Scale:
    """Problem sizes and trial counts for one run of the experiments."""

    name: str
    coloring: Tuple[CellSpec, ...]
    sat: Tuple[CellSpec, ...]
    onesat: Tuple[CellSpec, ...]
    max_cycles: int

    def cells_for(self, family: str) -> Tuple[CellSpec, ...]:
        if family == "d3c":
            return self.coloring
        if family == "d3s":
            return self.sat
        if family == "d3s1":
            return self.onesat
        raise ModelError(f"unknown problem family {family!r}")


#: The paper's exact experimental setup (Section 4).
PAPER_SCALE = Scale(
    name="paper",
    coloring=((60, 10, 10), (90, 10, 10), (120, 10, 10), (150, 10, 10)),
    sat=((50, 25, 4), (100, 25, 4), (150, 25, 4)),
    onesat=((50, 4, 25), (100, 4, 25), (200, 4, 25)),
    max_cycles=10_000,
)

#: Laptop-friendly sizes that preserve all qualitative effects. The larger
#: n of each family is one the paper also reports (coloring 60, 3SAT 50),
#: or the closest size that keeps unique-solution generation cheap
#: (3ONESAT 40), so measured rows line up against paper rows.
DEFAULT_SCALE = Scale(
    name="default",
    coloring=((30, 4, 4), (60, 5, 2)),
    sat=((25, 4, 4), (50, 5, 2)),
    onesat=((20, 4, 4), (40, 5, 2)),
    max_cycles=10_000,
)

#: Smoke-test sizes for the test suite and CI.
QUICK_SCALE = Scale(
    name="quick",
    coloring=((15, 2, 2),),
    sat=((12, 2, 2),),
    onesat=((10, 2, 2),),
    max_cycles=3_000,
)

#: The paper's problem sizes with reduced trial counts (6 per cell instead
#: of 100): the full size axis at a fraction of the wall-clock. The
#: unique-solution family stops at n=100 — certifying uniqueness at n=200
#: takes the CDCL engine tens of minutes per instance; use the paper scale
#: (and patience, or the original AIM files dropped into the cache) for
#: that last column.
PAPERLITE_SCALE = Scale(
    name="paperlite",
    coloring=((60, 3, 2), (90, 3, 2), (120, 3, 2), (150, 3, 2)),
    sat=((50, 3, 2), (100, 3, 2), (150, 3, 2)),
    onesat=((50, 2, 3), (100, 2, 3)),
    max_cycles=10_000,
)

_SCALES = {
    scale.name: scale
    for scale in (PAPER_SCALE, PAPERLITE_SCALE, DEFAULT_SCALE, QUICK_SCALE)
}


def scale_by_name(name: str) -> Scale:
    """Look up a scale ("quick", "default", "paper")."""
    try:
        return _SCALES[name]
    except KeyError:
        raise ModelError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        ) from None


def scale_from_environment(default: str = "default") -> Scale:
    """The scale selected by ``REPRO_SCALE``, or *default*."""
    return scale_by_name(os.environ.get("REPRO_SCALE", default))


def cache_directory() -> Path:
    """Where expensive generated instances are cached (``REPRO_CACHE_DIR``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


#: Bumped whenever generator semantics change, so stale cached instances are
#: never silently reused (the tag is part of every cache filename).
#: v2: balanced (complementary) planting; v3: CDCL elimination engine.
GENERATOR_VERSION = 3


# -- instance construction ------------------------------------------------------


@lru_cache(maxsize=None)
def coloring_instances(
    n: int, count: int, seed: Seed = 0
) -> Tuple[DisCSP, ...]:
    """*count* distributed 3-coloring instances at size *n* (m = 2.7 n)."""
    return tuple(
        random_coloring_instance(
            n, seed=derive_seed(seed, "d3c-instance", n, index)
        ).to_discsp()
        for index in range(count)
    )


@lru_cache(maxsize=None)
def sat_instances(n: int, count: int, seed: Seed = 0) -> Tuple[DisCSP, ...]:
    """*count* distributed 3SAT instances at size *n* (3SAT-GEN, m = 4.3 n)."""
    return tuple(
        sat_to_discsp(
            planted_3sat(
                n, seed=derive_seed(seed, "d3s-instance", n, index)
            ).formula
        )
        for index in range(count)
    )


@lru_cache(maxsize=None)
def onesat_instances(n: int, count: int, seed: Seed = 0) -> Tuple[DisCSP, ...]:
    """*count* unique-solution 3SAT instances at size *n* (3ONESAT-GEN).

    Generated instances are cached on disk: certification (proving no second
    model exists) is the expensive step and need not be repeated across
    processes.
    """
    problems = []
    cache = cache_directory()
    for index in range(count):
        instance_seed = derive_seed(seed, "d3s1-instance", n, index)
        cache_file = (
            cache / f"onesat-v{GENERATOR_VERSION}-n{n}-s{instance_seed}.cnf"
        )
        if cache_file.exists():
            formula = read_dimacs(cache_file)
        else:
            formula = unique_solution_3sat(n, seed=instance_seed).formula
            cache.mkdir(parents=True, exist_ok=True)
            write_dimacs(
                formula,
                cache_file,
                comment=(
                    f"3ONESAT-GEN-style unique-solution instance, n={n}, "
                    f"seed={instance_seed}"
                ),
            )
        problems.append(sat_to_discsp(formula))
    return tuple(problems)


def instances_for(
    family: str, n: int, count: int, seed: Seed = 0
) -> Tuple[DisCSP, ...]:
    """Instances of one of the paper's families: d3c, d3s, d3s1."""
    if family == "d3c":
        return coloring_instances(n, count, seed)
    if family == "d3s":
        return sat_instances(n, count, seed)
    if family == "d3s1":
        return onesat_instances(n, count, seed)
    raise ModelError(f"unknown problem family {family!r}")


# -- table definitions --------------------------------------------------------------

#: family and algorithm labels of each table, in the paper's row order.
TABLE_SPECS: Dict[int, Tuple[str, Tuple[str, ...]]] = {
    1: ("d3c", ("AWC+Rslv", "AWC+Mcs", "AWC+No")),
    2: ("d3s", ("AWC+Rslv", "AWC+Mcs", "AWC+No")),
    3: ("d3s1", ("AWC+Rslv", "AWC+Mcs", "AWC+No")),
    5: ("d3c", ("AWC+Rslv", "AWC+3rdRslv", "AWC+4thRslv")),
    6: ("d3s", ("AWC+Rslv", "AWC+4thRslv", "AWC+5thRslv")),
    7: ("d3s1", ("AWC+Rslv", "AWC+4thRslv", "AWC+5thRslv")),
    8: ("d3c", ("AWC+3rdRslv", "DB")),
    9: ("d3s", ("AWC+5thRslv", "DB")),
    10: ("d3s1", ("AWC+4thRslv", "DB")),
}

FAMILY_TITLES = {
    "d3c": "distributed 3-coloring",
    "d3s": "distributed 3SAT (3SAT-GEN)",
    "d3s1": "distributed 3SAT (3ONESAT-GEN)",
}


def run_table_cell(
    family: str,
    n: int,
    num_instances: int,
    inits: int,
    algorithm: AlgorithmSpec,
    seed: Seed,
    max_cycles: int,
) -> CellResult:
    """One (family, n, algorithm) cell at the given trial counts.

    The trials run in a process pool when ``REPRO_JOBS`` asks for more
    than one worker; results are identical either way.
    """
    instances = instances_for(family, n, num_instances, seed)
    return run_cell(
        instances,
        algorithm,
        inits_per_instance=inits,
        master_seed=derive_seed(seed, family, n, algorithm.name),
        n=n,
        max_cycles=max_cycles,
    )


def run_table(
    number: int,
    scale: Optional[Scale] = None,
    seed: Seed = 0,
) -> Table:
    """Reproduce one of Tables 1–3 / 5–10."""
    if number == 4:
        raise ModelError("Table 4 has its own runner: run_table4()")
    if number not in TABLE_SPECS:
        raise ModelError(f"no such table: {number}")
    if scale is None:
        scale = scale_from_environment()
    family, labels = TABLE_SPECS[number]
    table = Table(
        title=(
            f"Table {number} ({FAMILY_TITLES[family]}, scale={scale.name})"
        )
    )
    for n, num_instances, inits in scale.cells_for(family):
        for label in labels:
            cell = run_table_cell(
                family,
                n,
                num_instances,
                inits,
                algorithm_by_name(label),
                seed,
                scale.max_cycles,
            )
            table.add(TableRow.from_cell(cell))
    return table


def run_table4(
    scale: Optional[Scale] = None,
    seed: Seed = 0,
) -> List[Table]:
    """Reproduce Table 4: redundant nogood generations, rec vs norec.

    Returns one table per problem family (the paper folds all three into
    one table; splitting keeps the per-family n columns unambiguous).
    """
    if scale is None:
        scale = scale_from_environment()
    tables = []
    for family in ("d3c", "d3s", "d3s1"):
        table = Table(
            title=(
                f"Table 4 [{family}] redundant nogood generations "
                f"({FAMILY_TITLES[family]}, scale={scale.name})"
            )
        )
        for n, num_instances, inits in scale.cells_for(family):
            for label in ("AWC+Rslv/rec", "AWC+Rslv/norec"):
                cell = run_table_cell(
                    family,
                    n,
                    num_instances,
                    inits,
                    algorithm_by_name(label),
                    seed,
                    scale.max_cycles,
                )
                table.add(
                    TableRow.from_cell(
                        cell,
                        redundant=cell.mean_redundant_generations,
                        generated=cell.mean_generated,
                    )
                )
        tables.append(table)
    return tables


def reference_for_table(number: int):
    """The paper's values for *number* (None for Table 4's special layout)."""
    return ALL_TABLES.get(number)


def table4_reference() -> Dict[Tuple[str, int, str], float]:
    """The paper's Table 4 values."""
    return dict(TABLE4)
