"""MeasurementTable's JSON and CSV writers, and curve-fit errors."""

import csv
import io
import json
import math

import pytest

from repro.analysis import MeasurementTable, fit_power_of_log


class TestMeasurementTableWriters:
    def make_table(self):
        table = MeasurementTable("Scaling", ["n", "rounds", "status"])
        table.add_row(100, 12.5, "ok")
        table.add_row(1000, 15.0, "ok")
        return table

    def test_to_json_holds_title_columns_and_rows(self):
        assert json.loads(self.make_table().to_json()) == {
            "title": "Scaling",
            "columns": ["n", "rounds", "status"],
            "rows": [[100, 12.5, "ok"], [1000, 15.0, "ok"]],
        }

    def test_to_csv_holds_header_and_rows(self):
        assert list(csv.reader(io.StringIO(self.make_table().to_csv()))) == [
            ["n", "rounds", "status"],
            ["100", "12.5", "ok"],
            ["1000", "15.0", "ok"],
        ]


class TestFitErrorReporting:
    def test_error_names_dropped_points(self):
        with pytest.raises(ValueError) as excinfo:
            fit_power_of_log([1, 10], [5.0, -2.0])
        message = str(excinfo.value)
        assert "need at least two usable data points" in message
        assert "(n=1, value=5.0)" in message
        assert "(n=10, value=-2.0)" in message
        assert "kept 0 of 2" in message

    def test_error_with_single_usable_point(self):
        with pytest.raises(ValueError, match=r"kept 1 of 2.*\(n=2, value=3\.0\)"):
            fit_power_of_log([2, 16], [3.0, 4.0])

    def test_error_without_dropped_points(self):
        with pytest.raises(ValueError, match="received only 1 point"):
            fit_power_of_log([16], [4.0])

    def test_fit_still_recovers_exponent(self):
        ns = [2**e for e in range(4, 40, 4)]
        values = [3.0 * math.log2(n) ** 0.75 for n in ns]
        beta, c = fit_power_of_log(ns, values)
        assert beta == pytest.approx(0.75, abs=1e-6)
        assert c == pytest.approx(3.0, rel=1e-6)
