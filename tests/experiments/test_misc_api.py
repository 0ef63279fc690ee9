"""Small experiment-harness APIs not covered elsewhere."""

from repro.experiments.paper import (
    FAMILY_TITLES,
    reference_for_table,
    table4_reference,
)
from repro.experiments.reference import ALL_TABLES, TABLE4
from repro.experiments.tables import Table
from repro.experiments.asynchrony import delay_response


class TestReferenceAccessors:
    def test_reference_for_each_table(self):
        for number in ALL_TABLES:
            assert reference_for_table(number) is ALL_TABLES[number]

    def test_reference_for_table4_is_none(self):
        # Table 4 has its own layout and accessor.
        assert reference_for_table(4) is None

    def test_table4_reference_is_a_copy(self):
        copy = table4_reference()
        assert copy == TABLE4
        copy.clear()
        assert TABLE4  # the module data is untouched


class TestFamilyTitles:
    def test_all_families_titled(self):
        assert set(FAMILY_TITLES) == {"d3c", "d3s", "d3s1"}
        for title in FAMILY_TITLES.values():
            assert title


class TestDelayResponse:
    def test_empty_table(self):
        assert delay_response(Table(title="empty"), "AWC+Rslv") == []

    def test_labels_without_at_separator_are_skipped(self):
        table = Table(title="t")
        from repro.experiments.tables import TableRow

        table.add(TableRow(10, "AWC+Rslv", 1.0, 2.0, 100.0))
        assert delay_response(table, "AWC+Rslv") == []
