"""Worker-pool tests: one cell per task, warm reuse across sweeps,
equivalence with the serial runner, concurrency, failures, worker death
and resume."""

import multiprocessing
import os

import pytest

from repro.experiments import (
    AlgorithmFamily,
    ResultStore,
    ScenarioSpec,
    Suite,
    SweepRunner,
    register_algorithm,
    runner,
)
from repro.experiments.spec import ALGORITHMS, ANALYTIC_GENERATOR
from repro.service import ShardSpec, WorkerPool

SUITE = Suite(
    name="pool-test",
    description="small mixed suite",
    scenarios=(
        ScenarioSpec(
            name="forest/tree", generator="random-tree",
            algorithm="baseline-forest-3coloring", sizes=(16, 24), seeds=(1, 2, 3),
        ),
        ScenarioSpec(
            name="mis/tree", generator="random-tree",
            algorithm="baseline-mis", sizes=(16,), seeds=(1, 2),
        ),
        ScenarioSpec(
            name="shape", generator=ANALYTIC_GENERATOR,
            algorithm="predicted-edge-coloring-log12",
            sizes=(2**64, 2**128), seeds=(0,),
        ),
    ),
)


#: Fork-inherited state of the test families below.  A test sets it
#: before the pool's workers fork, so every worker sees the same objects.
_SHARED: dict = {}

#: How long a meeting cell waits for its partner: a serialised run fails
#: after this instead of hanging.
MEET_TIMEOUT_S = 10.0


def _register_once(name: str, run) -> None:
    if name not in ALGORITHMS:
        register_algorithm(AlgorithmFamily(
            name=name, description="test family", kind="baseline", run=run,
        ))


def _die_on_first_attempt(graph, generator, n):
    """A MIS cell, except that the family's first attempt kills its
    worker process (never the test process itself)."""
    if multiprocessing.parent_process() is not None:
        try:
            os.close(os.open(_SHARED["marker"], os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return ALGORITHMS["baseline-mis"].run(graph, generator, n)


def _meet_at_barrier(graph, generator, n):
    _SHARED["barrier"].wait(timeout=MEET_TIMEOUT_S)
    return {"rounds": 0, "verified": True}


def dying_suite(tmp_path, monkeypatch) -> Suite:
    """Twelve cells; the first one attempted kills its worker.  Call
    before the pool forks."""
    monkeypatch.setitem(_SHARED, "marker", str(tmp_path / "died"))
    _register_once("_test-die-once", _die_on_first_attempt)
    return Suite(
        name="_test-die-once", description="test suite: one worker dies",
        scenarios=(
            ScenarioSpec(
                name="die/tree", generator="random-tree",
                algorithm="_test-die-once", sizes=(16,), seeds=(1, 2, 3),
            ),
            ScenarioSpec(
                name="mis/tree", generator="random-tree",
                algorithm="baseline-mis", sizes=(16, 24, 32), seeds=(1, 2, 3),
            ),
        ),
    )


def meeting_suite(monkeypatch) -> Suite:
    """Two cells that each wait at a barrier for the other: they complete
    only if two workers run them at once.  Call before the pool forks."""
    monkeypatch.setitem(_SHARED, "barrier", multiprocessing.Barrier(2))
    _register_once("_test-meet", _meet_at_barrier)
    return Suite(
        name="_test-meet", description="test suite: two cells meet",
        scenarios=(
            ScenarioSpec(
                name="meet", generator="random-tree", algorithm="_test-meet",
                sizes=(10,), seeds=(1, 2),
            ),
        ),
    )


def normalized(store: ResultStore) -> dict[str, dict]:
    out = {}
    for record in store.records():
        record = dict(record)
        record["wall_clock_s"] = 0.0
        record["timings"] = None
        out[record["fingerprint"]] = record
    return out


class TestPoolValidation:
    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)


class TestPoolExecution:
    def test_matches_serial_runner_modulo_wall_clock(self, tmp_path):
        serial = ResultStore(tmp_path / "serial")
        SweepRunner(SUITE, serial, jobs=1).run()
        pooled = ResultStore(tmp_path / "pool")
        with WorkerPool(workers=2) as pool:
            report = SweepRunner(SUITE, pooled, pool=pool).run()
        assert report.ok
        assert report.executed == len(SUITE.cells())
        assert normalized(pooled) == normalized(serial)

    def test_warm_reuse_across_sweeps_same_processes(self, tmp_path):
        with WorkerPool(workers=2) as pool:
            SweepRunner(SUITE, ResultStore(tmp_path / "a"), pool=pool).run()
            pids_after_first = [p.pid for p in pool._processes]
            SweepRunner(SUITE, ResultStore(tmp_path / "b"), pool=pool).run()
            pids_after_second = [p.pid for p in pool._processes]
        assert pids_after_first == pids_after_second
        assert pool.sweeps_served == 2
        assert pool.cells_executed == 2 * len(SUITE.cells())

    def test_resume_skips_completed(self, tmp_path):
        store = ResultStore(tmp_path)
        with WorkerPool(workers=2) as pool:
            first = SweepRunner(SUITE, store, pool=pool).run()
            second = SweepRunner(SUITE, store, pool=pool).run()
        assert first.executed == len(SUITE.cells())
        assert second.executed == 0
        assert second.skipped == second.total_cells == len(SUITE.cells())

    def test_sharded_pool_run(self, tmp_path):
        with WorkerPool(workers=2) as pool:
            reports = [
                SweepRunner(
                    SUITE,
                    ResultStore(tmp_path / f"s{index}"),
                    shard=ShardSpec(index, 2),
                    pool=pool,
                ).run()
                for index in range(2)
            ]
        assert all(report.ok for report in reports)
        fps0 = set(normalized(ResultStore(tmp_path / "s0")))
        fps1 = set(normalized(ResultStore(tmp_path / "s1")))
        assert not (fps0 & fps1)
        assert fps0 | fps1 == {c.fingerprint for c in SUITE.cells()}

    def test_progress_callback_streams_every_cell(self, tmp_path):
        events = []
        with WorkerPool(workers=2) as pool:
            SweepRunner(SUITE, ResultStore(tmp_path), pool=pool).run(
                progress=lambda result: events.append("cell"),
                on_plan=lambda total, skipped: events.append((total, skipped)),
            )
        total = len(SUITE.cells())
        assert events == [(total, 0)] + ["cell"] * total

    def test_a_warm_pool_runs_even_a_single_cell(self, tmp_path):
        """The daemon never runs a cell in its own process: a pool passed
        in serves every cell, including the lone pending one that a
        ``jobs`` runner would run in process."""
        one_cell = Suite(
            name="pool-one", description="one cell", scenarios=(
                ScenarioSpec(
                    name="mis/tree", generator="random-tree",
                    algorithm="baseline-mis", sizes=(16,), seeds=(1,),
                ),
            ),
        )
        with WorkerPool(workers=2) as pool:
            report = SweepRunner(one_cell, ResultStore(tmp_path), pool=pool).run()
            assert report.ok and report.executed == 1
            assert pool.cells_executed == 1

    def test_two_workers_run_two_cells_at_once(self, monkeypatch):
        suite = meeting_suite(monkeypatch)
        with WorkerPool(workers=2) as pool:
            outcomes = list(pool.submit_sweep(suite.name, suite.cells()))
        assert [outcome.error for outcome in outcomes] == [None, None]

    def test_workers_call_run_cell_through_the_module(self, tmp_path, monkeypatch):
        """A wrapper installed on ``runner.run_cell`` before the fork (a
        tracer, say) serves the forked workers' cells."""
        original = runner.run_cell

        def tagged(suite_name, cell, engine=None):
            result = original(suite_name, cell, engine=engine)
            result.extras["worker_pid"] = os.getpid()
            return result

        monkeypatch.setattr(runner, "run_cell", tagged)
        store = ResultStore(tmp_path)
        assert SweepRunner(SUITE, store, jobs=2).run().ok
        pids = {result.extras["worker_pid"] for result in store.results()}
        assert pids and os.getpid() not in pids

    def test_submit_sweep_streams_outcomes(self, tmp_path):
        cells = SUITE.cells()
        with WorkerPool(workers=2) as pool:
            outcomes = list(pool.submit_sweep(SUITE.name, cells))
        assert len(outcomes) == len(cells)
        assert all(outcome.ok for outcome in outcomes)
        assert {o.cell.fingerprint for o in outcomes} == {
            c.fingerprint for c in cells
        }


class TestPoolFailures:
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
        failed = []
        with WorkerPool(workers=2) as pool:
            report = SweepRunner(suite, store, pool=pool).run(
                on_failure=lambda cell, error: failed.append(cell.scenario)
            )
        assert not report.ok
        assert failed == ["boom"]
        assert len(report.failures) == 1
        assert "boom" in report.failures[0].error
        assert report.executed == 1
        assert len(store) == 1

    def test_workers_killed_while_idle_are_rebuilt_before_next_sweep(self, tmp_path):
        """Workers killed between sweeps are detected at the next start():
        the pool rebuilds its processes and queues (a worker dead on a
        queue may hold its lock) and the sweep runs cleanly."""
        pool = WorkerPool(workers=2)
        try:
            assert SweepRunner(
                SUITE, ResultStore(tmp_path / "first"), pool=pool
            ).run().ok
            old_pids = [p.pid for p in pool._processes]
            for process in list(pool._processes):
                process.terminate()
                process.join(timeout=5)
            report = SweepRunner(
                SUITE, ResultStore(tmp_path / "after"), pool=pool
            ).run()
            assert report.ok and report.executed == len(SUITE.cells())
            assert len(pool._processes) == 2
            assert all(p.is_alive() for p in pool._processes)
            assert [p.pid for p in pool._processes] != old_pids
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent_and_blocks_reuse(self):
        pool = WorkerPool(workers=1)
        pool.start()
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.start()


class TestWorkerDeath:
    def test_worker_death_ends_in_a_report_not_a_crash(self, tmp_path, monkeypatch):
        suite = dying_suite(tmp_path, monkeypatch)
        store = ResultStore(tmp_path / "store")
        pending = len(suite.cells())
        report = SweepRunner(suite, store, jobs=2).run()
        assert report.failures
        assert report.executed + len(report.failures) == pending
        assert all(result.verified for result in store.results())
        assert multiprocessing.active_children() == []
        second = SweepRunner(suite, store, jobs=2).run()
        assert second.ok
        assert report.executed + second.executed == len(store) == pending
