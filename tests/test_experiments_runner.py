"""Runner tests: execution, determinism, resume, parallel equivalence."""

import json

import pytest

from repro.experiments import (
    AlgorithmFamily,
    ResultStore,
    ScenarioSpec,
    Suite,
    SweepRunner,
    get_suite,
    register_algorithm,
)
from repro.experiments.spec import ALGORITHMS, ANALYTIC_GENERATOR

TINY = Suite(
    name="tiny",
    description="test suite: two measured scenarios and one analytic",
    scenarios=(
        ScenarioSpec(
            name="edge/tree", generator="random-tree",
            algorithm="arb-edge-coloring", sizes=(24, 48), seeds=(1, 2),
        ),
        ScenarioSpec(
            name="mis/tree", generator="random-tree",
            algorithm="tree-mis", sizes=(24,), seeds=(1,),
        ),
        ScenarioSpec(
            name="shape", generator=ANALYTIC_GENERATOR,
            algorithm="predicted-edge-coloring-log12",
            sizes=(2**64, 2**128), seeds=(0,),
        ),
    ),
)


def records_without_wall_clock(store: ResultStore) -> list[dict]:
    records = store.records()
    for record in records:
        record.pop("wall_clock_s")
        record.pop("timings", None)
    return records


class TestExecution:
    def test_runs_all_cells_verified(self, tmp_path):
        store = ResultStore(tmp_path)
        report = SweepRunner(TINY, store, jobs=1).run()
        assert report.ok
        assert report.executed == len(TINY.cells()) == 7
        assert report.skipped == 0 and not report.failures
        results = store.results()
        assert all(result.verified for result in results)

    def test_measured_cells_carry_messages_analytic_none(self, tmp_path):
        store = ResultStore(tmp_path)
        SweepRunner(TINY, store, jobs=1).run()
        for result in store.results():
            if result.generator == ANALYTIC_GENERATOR:
                assert result.messages is None
            else:
                assert result.messages > 0

    def test_progress_callback_sees_every_cell(self, tmp_path):
        seen = []
        store = ResultStore(tmp_path)
        SweepRunner(TINY, store, jobs=1).run(progress=seen.append)
        assert len(seen) == 7


class TestDeterminism:
    def test_same_seeds_identical_jsonl_modulo_wall_clock(self, tmp_path):
        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        SweepRunner(TINY, store_a, jobs=1).run()
        SweepRunner(TINY, store_b, jobs=1).run()
        assert records_without_wall_clock(store_a) == records_without_wall_clock(store_b)

    def test_parallel_matches_serial_as_sets(self, tmp_path):
        store_serial = ResultStore(tmp_path / "serial")
        store_parallel = ResultStore(tmp_path / "parallel")
        SweepRunner(TINY, store_serial, jobs=1).run()
        report = SweepRunner(TINY, store_parallel, jobs=2).run()
        assert report.ok

        def keyed(store):
            return {
                record["fingerprint"]: record
                for record in records_without_wall_clock(store)
            }

        assert keyed(store_serial) == keyed(store_parallel)


class TestResume:
    def test_second_run_skips_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        SweepRunner(TINY, store, jobs=1).run()
        report = SweepRunner(TINY, store, jobs=1).run()
        assert report.executed == 0
        assert report.skipped == report.total_cells == 7
        assert len(store) == 7

    def test_resume_after_simulated_crash(self, tmp_path):
        store = ResultStore(tmp_path)
        SweepRunner(TINY, store, jobs=1).run()
        lines = store.path.read_text().splitlines()
        # Keep 3 complete records and a truncated 4th: a crash mid-append.
        store.path.write_text("\n".join(lines[:3]) + "\n" + lines[3][: len(lines[3]) // 2])
        crashed = ResultStore(tmp_path)
        assert len(crashed.records()) == 3
        report = SweepRunner(TINY, crashed, jobs=1).run()
        assert report.skipped == 3
        assert report.executed == 4
        assert crashed.completed_fingerprints() == {
            cell.fingerprint for cell in TINY.cells()
        }

    def test_corrupt_middle_line_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        SweepRunner(TINY, store, jobs=1).run()
        lines = store.path.read_text().splitlines()
        lines[1] = lines[1][:10]
        store.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            ResultStore(tmp_path).records()

    def test_unverified_records_are_rerun(self, tmp_path):
        store = ResultStore(tmp_path)
        SweepRunner(TINY, store, jobs=1).run()
        records = store.records()
        records[0]["verified"] = False
        store.path.write_text(
            "\n".join(json.dumps(record, sort_keys=True) for record in records) + "\n"
        )
        report = SweepRunner(TINY, ResultStore(tmp_path), jobs=1).run()
        assert report.executed == 1


class TestFailures:
    def test_raising_cells_reported_not_stored(self, tmp_path):
        if "_test-boom" not in ALGORITHMS:
            def boom(graph, generator, n):
                raise RuntimeError("boom")

            register_algorithm(AlgorithmFamily(
                name="_test-boom", description="always raises", kind="baseline",
                run=boom,
            ))
        suite = Suite(
            name="boom", description="", scenarios=(
                ScenarioSpec(
                    name="boom", generator="random-tree", algorithm="_test-boom",
                    sizes=(10,),
                ),
                ScenarioSpec(
                    name="ok", generator="random-tree", algorithm="baseline-mis",
                    sizes=(10,),
                ),
            ),
        )
        store = ResultStore(tmp_path)
        report = SweepRunner(suite, store, jobs=1).run()
        assert not report.ok
        assert len(report.failures) == 1
        assert "boom" in report.failures[0].error
        assert report.executed == 1  # the healthy cell still ran and stored
        assert len(store) == 1


class TestEngineProvenance:
    ENGINE_SUITE = Suite(
        name="engine-tiny",
        description="test suite: a kernel-capable baseline and a transform",
        scenarios=(
            ScenarioSpec(
                name="linial/tree", generator="random-tree",
                algorithm="baseline-linial", sizes=(40,), seeds=(1,),
            ),
            ScenarioSpec(
                name="mis/tree", generator="random-tree",
                algorithm="tree-mis", sizes=(24,), seeds=(1,),
            ),
        ),
    )

    def test_auto_mode_records_backend_per_family(self, tmp_path):
        from repro.local import numpy_available

        store = ResultStore(tmp_path)
        report = SweepRunner(self.ENGINE_SUITE, store, jobs=1).run()
        assert report.ok
        by_scenario = {result.scenario: result for result in store.results()}
        linial = by_scenario["linial/tree"]
        if numpy_available():
            assert linial.engine == "vectorized[numpy]"
            assert linial.engine_rounds
            assert any(
                key.startswith("vectorized/linial/") for key in linial.engine_rounds
            )
        else:
            assert linial.engine == "interpreted"
        assert by_scenario["mis/tree"].engine is not None

    #: Record fields that may differ between the two engines: execution
    #: provenance and wall-clock telemetry.  Every other field, ``suite``
    #: and ``scenario`` included, must match.
    PROVENANCE_FIELDS = ("engine", "engine_rounds", "wall_clock_s", "timings")

    @staticmethod
    def suite_records(root) -> dict[tuple[str, str], dict]:
        """The smoke records of ``paper-claims`` and ``charged``, keyed by
        suite and fingerprint (the two suites share some cells)."""
        records = {}
        for name in ("paper-claims", "charged"):
            store = ResultStore(root / name)
            assert SweepRunner(get_suite(name), store, smoke=True).run().ok
            records.update(
                ((name, record["fingerprint"]), record) for record in store.records()
            )
        return records

    def test_semantic_payload_identical_across_engines(self, tmp_path, monkeypatch):
        """The numpy-free switch runs whole suites interpreted; their
        records equal the array engine's in every field but provenance."""
        from repro.local import numpy_available, vectorized

        with_numpy = (
            self.suite_records(tmp_path / "numpy") if numpy_available() else None
        )
        monkeypatch.setattr(vectorized, "np", None)
        interpreted = self.suite_records(tmp_path / "no-numpy")
        measured = [r for r in interpreted.values() if r["engine"] is not None]
        assert measured
        assert all(r["engine"] == "interpreted" for r in measured)
        assert all(r["verified"] for r in interpreted.values())
        if with_numpy is None:
            return
        assert any(
            r["engine"] in ("vectorized[numpy]", "mixed") for r in with_numpy.values()
        )

        def semantic(records):
            return {
                cell: {
                    key: value
                    for key, value in record.items()
                    if key not in self.PROVENANCE_FIELDS
                }
                for cell, record in records.items()
            }

        assert semantic(with_numpy) == semantic(interpreted)


class TestPhaseTimings:
    """run_cell records a generate/run/verify/simulate breakdown as
    nonsemantic telemetry on CellResult.timings."""

    def measured_cell(self):
        from repro.experiments import run_cell

        cell = next(c for c in TINY.cells() if c.generator != ANALYTIC_GENERATOR)
        return run_cell(TINY.name, cell)

    def test_measured_cell_records_all_phases(self):
        result = self.measured_cell()
        timings = result.timings
        assert timings is not None
        assert {"generate", "run", "network", "verify", "simulate"} <= set(timings)
        assert all(seconds >= 0 for seconds in timings.values())
        # network, verify and simulate are nested inside run's wall clock
        assert timings["simulate"] <= timings["run"] + 1e-6
        assert timings["network"] <= timings["run"]

    def test_analytic_cell_skips_generate_and_simulate(self):
        from repro.experiments import run_cell

        cell = next(c for c in TINY.cells() if c.generator == ANALYTIC_GENERATOR)
        timings = run_cell(TINY.name, cell).timings
        assert timings is not None and "run" in timings
        assert "generate" not in timings
        assert "simulate" not in timings

    def test_timings_round_trip_and_stay_nonsemantic(self):
        from repro.experiments import CellResult
        from repro.experiments.store import NONSEMANTIC_FIELDS

        assert "timings" in NONSEMANTIC_FIELDS
        result = self.measured_cell()
        record = result.to_record()
        assert set(record["timings"]) == set(result.timings)
        restored = CellResult.from_record(record)
        assert restored.timings == record["timings"]
        # a pre-observability record (no timings key) still loads
        legacy = dict(record)
        del legacy["timings"]
        assert CellResult.from_record(legacy).timings is None
