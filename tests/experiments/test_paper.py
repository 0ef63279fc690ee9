"""The paper experiment definitions, run at smoke scale."""

import pytest

from repro.core.exceptions import ModelError
from repro.experiments.paper import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    QUICK_SCALE,
    TABLE_SPECS,
    coloring_instances,
    instances_for,
    onesat_instances,
    run_table,
    run_table4,
    sat_instances,
    scale_by_name,
    scale_from_environment,
)
from repro.experiments.reference import ALL_TABLES
from repro.solvers.backtracking import solve_csp


class TestScales:
    def test_paper_scale_matches_the_paper(self):
        assert PAPER_SCALE.coloring == (
            (60, 10, 10), (90, 10, 10), (120, 10, 10), (150, 10, 10),
        )
        assert PAPER_SCALE.sat == ((50, 25, 4), (100, 25, 4), (150, 25, 4))
        assert PAPER_SCALE.onesat == ((50, 4, 25), (100, 4, 25), (200, 4, 25))
        assert PAPER_SCALE.max_cycles == 10_000
        # Each cell is 100 trials, as in the paper.
        for family in ("d3c", "d3s", "d3s1"):
            for _n, instances, inits in PAPER_SCALE.cells_for(family):
                assert instances * inits == 100

    def test_lookup(self):
        assert scale_by_name("quick") is QUICK_SCALE
        assert scale_by_name("default") is DEFAULT_SCALE
        with pytest.raises(ModelError):
            scale_by_name("gigantic")

    def test_environment_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert scale_from_environment() is QUICK_SCALE
        monkeypatch.delenv("REPRO_SCALE")
        assert scale_from_environment() is DEFAULT_SCALE

    def test_unknown_family_rejected(self):
        with pytest.raises(ModelError):
            QUICK_SCALE.cells_for("d4c")


class TestInstanceBuilders:
    def test_coloring_instances_are_solvable(self):
        for problem in coloring_instances(12, 2, seed=0):
            assert solve_csp(problem.csp) is not None

    def test_sat_instances_are_solvable(self):
        for problem in sat_instances(12, 2, seed=0):
            assert solve_csp(problem.csp) is not None

    def test_onesat_instances_have_unique_solutions(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        onesat_instances.cache_clear()
        problems = onesat_instances(10, 2, seed=0)
        for problem in problems:
            # Count CSP solutions: must be exactly one.
            from repro.solvers.backtracking import count_csp_solutions

            assert count_csp_solutions(problem.csp, limit=3) == 1

    def test_onesat_disk_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        onesat_instances.cache_clear()
        first = onesat_instances(10, 1, seed=3)
        assert list(tmp_path.glob("onesat-*.cnf"))
        onesat_instances.cache_clear()
        second = onesat_instances(10, 1, seed=3)
        assert first[0].csp.nogoods == second[0].csp.nogoods

    def test_instances_deterministic(self):
        assert coloring_instances(12, 2, seed=0) is coloring_instances(
            12, 2, seed=0
        )  # lru cache

    def test_family_dispatch(self):
        assert instances_for("d3c", 12, 1, 0)
        with pytest.raises(ModelError):
            instances_for("unknown", 12, 1, 0)


class TestRunTable:
    def test_quick_table1_has_all_cells(self):
        table = run_table(1, scale=QUICK_SCALE, seed=0)
        labels = {(row.n, row.label) for row in table.rows}
        n = QUICK_SCALE.coloring[0][0]
        assert labels == {
            (n, "AWC+Rslv"), (n, "AWC+Mcs"), (n, "AWC+No"),
        }

    def test_every_table_spec_runs_at_quick_scale(self):
        for number in TABLE_SPECS:
            table = run_table(number, scale=QUICK_SCALE, seed=0)
            assert table.rows

    def test_table4_returns_three_families(self):
        tables = run_table4(scale=QUICK_SCALE, seed=0)
        assert len(tables) == 3
        for table in tables:
            labels = {row.label for row in table.rows}
            assert labels == {"AWC+Rslv/rec", "AWC+Rslv/norec"}
            for row in table.rows:
                assert dict(row.extras).keys() == {"generated", "redundant"}

    def test_table4_via_run_table_is_rejected(self):
        with pytest.raises(ModelError):
            run_table(4, scale=QUICK_SCALE)

    def test_unknown_table_rejected(self):
        with pytest.raises(ModelError):
            run_table(11, scale=QUICK_SCALE)

    def test_reference_covers_every_paper_cell(self):
        # Every (n, label) the paper reports must be present in our
        # transcription, for every table spec at paper scale.
        for number, (family, labels) in TABLE_SPECS.items():
            reference = ALL_TABLES[number]
            for n, _i, _j in PAPER_SCALE.cells_for(family):
                for label in labels:
                    assert (n, label) in reference, (number, n, label)
