"""End-to-end tests for the charged-cost sweep layer and the new suites.

Covers the acceptance criteria of the charged layer: ``run charged`` cells
carry both the measured and the analytic account through the store, the
report emits measured-vs-charged columns and fits on either series, the
sharded path (``run --shard`` → ``merge`` → ``report``) reproduces the
unsharded sweep for the new suites, and the persistent worker pool runs
charged and list-variant cells identically to the plain runner.
"""

import json

import pytest

from repro.experiments import (
    CellResult,
    ResultStore,
    SweepRunner,
    build_report,
    get_suite,
    merge_result_files,
)
from repro.experiments.cli import main
from repro.service import ShardSpec, WorkerPool


def _canonical(records):
    """Store records, keyed and sorted by fingerprint, timing dropped."""
    by_fingerprint = {}
    for record in records:
        payload = {
            k: v for k, v in record.items()
            if k not in ("wall_clock_s", "timings")
        }
        by_fingerprint[record["fingerprint"]] = payload
    return sorted(by_fingerprint.values(), key=lambda r: r["fingerprint"])


class TestChargedStoreRoundtrip:
    def test_charged_rounds_survive_the_jsonl_store(self, tmp_path):
        store = ResultStore(tmp_path)
        report = SweepRunner(
            get_suite("charged"), store, jobs=1, smoke=True,
            sizes=(40,), seeds=(1,),
        ).run()
        assert report.ok
        results = store.results()
        charged = [r for r in results if r.charged_rounds is not None]
        assert charged, "the charged suite must produce charged cells"
        for result in charged:
            assert result.charged_rounds > 0
            record = json.loads(json.dumps(result.to_record()))
            assert CellResult.from_record(record).charged_rounds == (
                result.charged_rounds
            )
        # The analytic shape cells run without a cost model.
        analytic = [r for r in results if r.generator == "analytic"]
        assert analytic
        assert all(r.charged_rounds is None for r in analytic)

    def test_resume_skips_completed_charged_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        first = SweepRunner(
            get_suite("charged"), store, jobs=1, smoke=True,
            sizes=(40,), seeds=(1,),
        ).run()
        assert first.ok and first.executed > 0
        second = SweepRunner(
            get_suite("charged"), store, jobs=1, smoke=True,
            sizes=(40,), seeds=(1,),
        ).run()
        assert second.executed == 0
        assert second.skipped == first.total_cells


@pytest.mark.parametrize("suite_name", ["charged", "orientation-lists"])
class TestShardMergeReportEquivalence:
    def test_sharded_run_reproduces_unsharded_store(self, suite_name, tmp_path):
        suite = get_suite(suite_name)
        kwargs = dict(jobs=1, smoke=True)

        whole = ResultStore(tmp_path / "whole")
        assert SweepRunner(suite, whole, **kwargs).run().ok

        shard_paths = []
        for index in range(2):
            store = ResultStore(tmp_path / f"shard{index}")
            assert SweepRunner(
                suite, store, shard=ShardSpec(index, 2), **kwargs
            ).run().ok
            shard_paths.append(store.path)

        merged = tmp_path / "merged" / "results.jsonl"
        report = merge_result_files(shard_paths, merged)
        assert report.ok
        assert _canonical(ResultStore.from_path(merged).records()) == _canonical(
            whole.records()
        )

    def test_report_identical_across_paths(self, suite_name, tmp_path, capsys):
        for index in range(2):
            assert main([
                "run", suite_name, "--smoke", "--jobs", "1", "--quiet",
                "--shard", f"{index}/2", "--out", str(tmp_path / f"s{index}"),
            ]) == 0
        assert main([
            "run", suite_name, "--smoke", "--jobs", "1", "--quiet",
            "--out", str(tmp_path / "whole"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "merge", "--out", str(tmp_path / "merged" / "results.jsonl"),
            str(tmp_path / "s0" / "results.jsonl"),
            str(tmp_path / "s1" / "results.jsonl"),
        ]) == 0
        capsys.readouterr()
        # Wall-clock means are nondeterministic, so compare the scaling
        # table, fits and betas — everything the report derives from the
        # semantic record fields — rather than the rendered text.
        merged = build_report(
            ResultStore(tmp_path / "merged").records()
        )
        whole = build_report(ResultStore(tmp_path / "whole").records())
        assert merged.scaling.to_json() == whole.scaling.to_json()
        assert merged.fits.to_json() == whole.fits.to_json()
        assert merged.betas == whole.betas
        if suite_name == "charged":
            assert any(
                column.endswith(" [charged]") for column in merged.scaling.columns
            )


class TestWorkerPoolRunsNewSuites:
    """The warm pool executes charged and list-variant cells through the
    same run_cell path as the plain runner — same records, same charges."""

    @pytest.mark.parametrize("suite_name", ["charged", "orientation-lists"])
    def test_pool_matches_runner_records(self, suite_name, tmp_path):
        suite = get_suite(suite_name)
        runner_store = ResultStore(tmp_path / "runner")
        assert SweepRunner(suite, runner_store, jobs=1, smoke=True).run().ok

        pool_store = ResultStore(tmp_path / "pool")
        with WorkerPool(workers=2) as pool:
            report = SweepRunner(suite, pool_store, smoke=True, pool=pool).run()
        assert report.ok
        assert _canonical(pool_store.records()) == _canonical(
            runner_store.records()
        )
        if suite_name == "charged":
            assert any(
                record.get("charged_rounds") for record in pool_store.records()
            )


class TestChargedReportAcceptance:
    def test_run_charged_smoke_then_report_emits_both_columns(
        self, tmp_path, capsys
    ):
        """The acceptance criterion, verbatim: run charged --smoke … report
        emits scaling tables with both rounds and charged_rounds columns."""
        out = str(tmp_path / "results")
        assert main([
            "run", "charged", "--smoke", "--jobs", "1", "--quiet", "--out", out
        ]) == 0
        assert main([
            "run", "orientation-lists", "--smoke", "--jobs", "1", "--quiet",
            "--out", out,
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--out", out]) == 0
        rendered = capsys.readouterr().out
        assert "edge-coloring/charged-tree" in rendered
        assert "edge-coloring/charged-tree [charged]" in rendered
        assert "sinkless-orientation/grid" in rendered
        assert "charged (mean)" in rendered  # per-scenario detail column
        assert "Theorem 3 shape" in rendered

    def test_progress_line_shows_the_charge(self, tmp_path, capsys):
        assert main([
            "run", "charged", "--smoke", "--jobs", "1",
            "--sizes", "40", "--seeds", "1", "--out", str(tmp_path / "r"),
        ]) == 0
        out = capsys.readouterr().out
        assert "charged=" in out
