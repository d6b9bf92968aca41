"""Report and CLI tests: tables, shape fits and the end-to-end commands."""

import csv
import io
import json

import pytest

from repro.experiments import ResultStore, SweepRunner, build_report, get_suite
from repro.experiments.cli import main
from repro.experiments.report import render_json_tables
from repro.experiments.spec import ANALYTIC_GENERATOR


@pytest.fixture(scope="module")
def smoke_store(tmp_path_factory):
    """One smoke-size paper-claims sweep shared by the read-only tests."""
    directory = tmp_path_factory.mktemp("paper-claims-smoke")
    store = ResultStore(directory)
    report = SweepRunner(get_suite("paper-claims"), store, jobs=2, smoke=True).run()
    assert report.ok
    return store


@pytest.fixture(scope="module")
def charged_store(tmp_path_factory):
    """One smoke-size charged sweep shared by the measured-vs-charged tests."""
    directory = tmp_path_factory.mktemp("charged-smoke")
    store = ResultStore(directory)
    report = SweepRunner(get_suite("charged"), store, jobs=2, smoke=True).run()
    assert report.ok
    return store


@pytest.fixture(scope="module")
def analytic_only_store(tmp_path_factory):
    """A store holding only analytic cells — no measured scenario at all."""
    directory = tmp_path_factory.mktemp("analytic-only")
    store = ResultStore(directory)
    suite = get_suite("paper-claims")
    analytic = [c for c in suite.cells() if c.generator == ANALYTIC_GENERATOR]
    assert analytic
    from repro.experiments import run_cell

    for cell in analytic:
        store.append(run_cell("analytic-only", cell))
    return store


class TestReportBundle:
    def test_scaling_table_covers_measured_sizes(self, smoke_store):
        bundle = build_report(smoke_store.records())
        sizes_in_table = {row[0] for row in bundle.scaling.rows}
        measured_sizes = {
            record["n"]
            for record in smoke_store.records()
            if record["generator"] != ANALYTIC_GENERATOR
        }
        assert sizes_in_table == measured_sizes
        # Analytic scenarios are fits, not scaling-table columns.
        assert all("predicted" not in column for column in bundle.scaling.columns)

    def test_theorem3_beta_below_one(self, smoke_store):
        bundle = build_report(smoke_store.records())
        assert bundle.theorem3_beta is not None
        assert 0 < bundle.theorem3_beta < 1
        assert bundle.betas["barrier-shape/predicted"] < 1
        assert bundle.all_verified

    def test_render_mentions_theorem3_verdict(self, smoke_store):
        text = build_report(smoke_store.records()).render()
        assert "Theorem 3 shape" in text
        assert "< 1" in text
        assert "all stored cells verified: yes" in text

    def test_empty_records_raise(self):
        with pytest.raises(ValueError, match="no stored results"):
            build_report([])

    def test_nonsemantic_fields_leave_report_bytes_unchanged(self, smoke_store):
        """Two runs of the same cells differ in their timings and engine
        round split; neither the JSON tables nor the text may differ."""
        records = list(smoke_store.records())
        rerun = [
            dict(
                record,
                wall_clock_s=3 * record["wall_clock_s"] + 1.0,
                timings={"run": 9.5, "verify": 4.25},
                engine_rounds={"interpreted/none/none": record["rounds"]},
            )
            for record in records
        ]
        first, second = build_report(records), build_report(rerun)
        assert render_json_tables(first) == render_json_tables(second)
        assert first.render() == second.render()

    def test_rerun_record_supersedes_stale_unverified_one(self):
        """A cell that failed verification and was re-run on resume has two
        records with the same fingerprint; only the later one may count."""

        def record(verified, rounds, n=100):
            return {
                "fingerprint": "f" * 16, "suite": "s", "scenario": "sc",
                "generator": "random-tree", "algorithm": "baseline-mis",
                "n": n, "seed": 1, "rounds": rounds, "messages": 10,
                "wall_clock_s": 0.1, "verified": verified, "k": None, "extras": {},
            }

        other = dict(record(True, 20.0, n=200), fingerprint="a" * 16, seed=2)
        bundle = build_report([record(False, 11.0), record(True, 12.0), other])
        assert bundle.all_verified
        point = next(
            p for s in bundle.summaries for p in s.points if p.n == 100
        )
        assert point.cells == 1 and point.rounds == 12.0

    def test_scaling_table_has_measured_and_charged_columns(self, charged_store):
        bundle = build_report(charged_store.records())
        columns = bundle.scaling.columns
        assert "mis/charged-tree" in columns
        assert "mis/charged-tree [charged]" in columns
        # Every charged scenario contributes exactly one charged twin column.
        charged_columns = [c for c in columns if c.endswith(" [charged]")]
        assert charged_columns == [
            c + " [charged]" for c in columns if c + " [charged]" in columns
        ]
        # Charged cells land in both columns of their row.
        measured_index = columns.index("mis/charged-tree")
        charged_index = columns.index("mis/charged-tree [charged]")
        populated = [
            row for row in bundle.scaling.rows if row[measured_index] != "-"
        ]
        assert populated
        for row in populated:
            assert row[charged_index] != "-"
            assert row[charged_index] > 0

    def test_fits_run_on_either_series(self, charged_store):
        bundle = build_report(charged_store.records())
        assert "mis/charged-tree" in bundle.betas
        assert "mis/charged-tree [charged]" in bundle.betas
        fit_labels = [row[0] for row in bundle.fits.rows]
        assert "mis/charged-tree" in fit_labels
        assert "mis/charged-tree [charged]" in fit_labels

    def test_uncharged_store_has_no_charged_columns(self, smoke_store):
        bundle = build_report(smoke_store.records())
        assert not any(
            column.endswith(" [charged]") for column in bundle.scaling.columns
        )

    def test_pre_charging_records_aggregate_cleanly(self):
        """Records written before the charged_rounds field existed have no
        such key at all; they must aggregate as uncharged cells."""

        def record(n, seed):
            return {
                "fingerprint": f"{n:08x}{seed:08x}", "suite": "s", "scenario": "old",
                "generator": "random-tree", "algorithm": "baseline-mis",
                "n": n, "seed": seed, "rounds": 7.0, "messages": 10,
                "wall_clock_s": 0.1, "verified": True, "k": None, "extras": {},
            }

        bundle = build_report([record(100, 1), record(200, 1)])
        summary = bundle.summaries[0]
        assert not summary.has_charged
        assert all(point.charged_rounds is None for point in summary.points)
        assert "old [charged]" not in bundle.betas

    def test_unfittable_scenario_skipped_not_fatal(self):
        records = [
            {
                "fingerprint": f"{seed:016x}", "suite": "s", "scenario": "tiny-n",
                "generator": "random-tree", "algorithm": "baseline-mis",
                "n": n, "seed": seed, "rounds": 5.0, "messages": 1,
                "wall_clock_s": 0.1, "verified": True, "k": None, "extras": {},
            }
            for seed, n in enumerate([1, 2])  # both filtered out by n > 2
        ]
        bundle = build_report(records)
        assert "tiny-n" not in bundle.betas
        assert bundle.theorem3_beta is None


class TestAnalyticOnlyAndEmptyStores:
    """report/merge on stores with no measured cells must not crash and
    must keep their CSV/JSON exports well-formed."""

    def test_build_report_on_analytic_only_store(self, analytic_only_store):
        bundle = build_report(analytic_only_store.records())
        assert not bundle.has_measured
        assert bundle.scaling.rows == []
        assert bundle.scaling.columns == ["n"]
        assert bundle.theorem3_beta is not None  # the fits still run
        rendered = bundle.render()
        assert "nothing to report" in rendered
        assert "analytic cells only" in rendered

    def test_cli_report_analytic_only_exports_well_formed(
        self, analytic_only_store, tmp_path, capsys
    ):
        json_path = tmp_path / "analytic.json"
        csv_path = tmp_path / "analytic.csv"
        assert main([
            "report", "--out", str(analytic_only_store.directory),
            "--json", str(json_path), "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "nothing to report" in out
        tables = json.loads(json_path.read_text())
        assert tables and all({"title", "columns", "rows"} <= set(t) for t in tables)
        # The scaling CSV degrades to a header-only file, still parseable.
        lines = csv_path.read_text().splitlines()
        assert lines == ["n"]
        assert list(csv.reader(io.StringIO(csv_path.read_text()))) == [["n"]]

    def test_cli_report_empty_store_says_so_and_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "never-written")]) == 2
        assert "no stored results" in capsys.readouterr().err

    def test_merge_of_analytic_only_stores_reports_cleanly(
        self, analytic_only_store, tmp_path, capsys
    ):
        merged = tmp_path / "merged" / "results.jsonl"
        assert main([
            "merge", "--out", str(merged), str(analytic_only_store.path),
        ]) == 0
        assert "0 conflicts" in capsys.readouterr().out
        assert main(["report", "--out", str(merged.parent)]) == 0
        assert "nothing to report" in capsys.readouterr().out

    def test_merge_of_empty_stores_writes_nothing_and_exits_2(
        self, tmp_path, capsys
    ):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "m" / "results.jsonl"
        assert main(["merge", "--out", str(out), str(empty)]) == 2
        assert "nothing written" in capsys.readouterr().err
        assert not out.exists()


class TestCli:
    def test_run_report_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main([
            "run", "paper-claims", "--smoke", "--jobs", "1", "--quiet", "--out", out
        ]) == 0
        first = capsys.readouterr().out
        assert "0 already stored" in first

        assert main([
            "run", "paper-claims", "--smoke", "--jobs", "1", "--quiet", "--out", out
        ]) == 0
        second = capsys.readouterr().out
        assert "0 executed" in second

        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        assert main([
            "report", "--out", out, "--json", str(json_path), "--csv", str(csv_path)
        ]) == 0
        rendered = capsys.readouterr().out
        assert "Theorem 3 shape" in rendered

        tables = json.loads(json_path.read_text())
        assert tables and all({"title", "columns", "rows"} <= set(t) for t in tables)
        header, *rows = csv.reader(io.StringIO(csv_path.read_text()))
        assert header[0] == "n"
        assert rows

    def test_list_names_every_suite(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-claims", "scaling", "stress"):
            assert name in out

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["run", "no-such-suite"]) == 2
        assert "no-such-suite" in capsys.readouterr().err

    def test_report_without_results_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "empty")]) == 2
        assert "no stored results" in capsys.readouterr().err

    def test_report_unknown_suite_exits_2_with_names(self, smoke_store, capsys):
        assert main([
            "report", "--out", str(smoke_store.directory), "--suite", "paper-clams"
        ]) == 2
        err = capsys.readouterr().err
        assert "paper-clams" in err and "paper-claims" in err

    def test_report_suite_filter_matches_deduped_cells(self, tmp_path, capsys):
        """Cells shared across suites carry the first runner's suite label;
        --suite must still include them via the suite's fingerprints."""
        out = tmp_path / "results"
        store = ResultStore(out)
        report = SweepRunner(get_suite("paper-claims"), store, jobs=1, smoke=True).run()
        assert report.ok
        # Relabel every record as run by another suite: the dedup scenario
        # where 'paper-claims' skipped cells another sweep completed first.
        records = store.records()
        for record in records:
            record["suite"] = "some-other-suite"
        store.path.write_text(
            "\n".join(json.dumps(record, sort_keys=True) for record in records) + "\n"
        )
        # No record is labelled paper-claims, so exit 0 (instead of 2,
        # "no stored results") proves the filter matched by fingerprint.
        assert main(["report", "--out", str(out), "--suite", "paper-claims"]) == 0
        assert "Theorem 3 shape" in capsys.readouterr().out
