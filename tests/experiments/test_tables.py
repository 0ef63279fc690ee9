"""Table rendering."""

from repro.experiments.runner import CellResult
from repro.experiments.tables import Table, TableRow
from repro.runtime.simulator import RunResult


def fake_trial(cycles=10, maxcck=100, solved=True):
    return RunResult(
        solved=solved,
        unsolvable=False,
        capped=not solved,
        quiescent=False,
        cycles=cycles,
        maxcck=maxcck,
        total_checks=maxcck * 2,
        messages_sent=5,
        generated_nogoods=3,
        redundant_generations=1,
    )


class TestTableRow:
    def test_from_cell(self):
        cell = CellResult(label="AWC+Rslv", n=60)
        cell.trials.extend([fake_trial(10, 100), fake_trial(20, 300)])
        row = TableRow.from_cell(cell)
        assert row.cycle == 15.0
        assert row.maxcck == 200.0
        assert row.percent == 100.0

    def test_extras(self):
        cell = CellResult(label="AWC+Rslv/rec", n=60)
        cell.trials.append(fake_trial())
        row = TableRow.from_cell(cell, redundant=1.0)
        assert dict(row.extras) == {"redundant": 1.0}


class TestTableFormatting:
    def make_table(self):
        table = Table(title="Table T (test)")
        table.add(TableRow(60, "AWC+Rslv", 83.2, 58084.4, 100.0))
        table.add(TableRow(60, "AWC+No", 458.2, 52601.6, 100.0))
        return table

    def test_contains_rows_and_title(self):
        text = self.make_table().format_text()
        assert "Table T (test)" in text
        assert "AWC+Rslv" in text
        assert "83.2" in text
        assert "58084.4" in text

    def test_reference_columns(self):
        reference = {(60, "AWC+Rslv"): (83.2, 58084.4, 100.0)}
        text = self.make_table().format_text(reference)
        assert "paper cycle" in text
        # The reference value appears on the matching row only.
        lines = [line for line in text.splitlines() if "AWC+No" in line]
        assert lines and lines[0].rstrip().endswith("100")

    def test_nan_reference_rendered_as_dash(self):
        nan = float("nan")
        reference = {(60, "AWC+No"): (nan, nan, 0.0)}
        text = self.make_table().format_text(reference)
        no_line = [line for line in text.splitlines() if "AWC+No" in line][0]
        assert "-" in no_line

    def test_row_for_lookup(self):
        table = self.make_table()
        assert table.row_for(60, "AWC+Rslv").cycle == 83.2
        assert table.row_for(99, "AWC+Rslv") is None

    def test_columns_stay_aligned(self):
        lines = self.make_table().format_text().splitlines()
        header, rule = lines[1], lines[2]
        assert len(header) == len(rule)

    def test_str(self):
        assert "Table T" in str(self.make_table())
