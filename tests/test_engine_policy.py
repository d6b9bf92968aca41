"""Engine policy, provenance and the per-cell context.

The vectorized engine is a preference, not a dependency — a
numpy-free interpreter must degrade every cell to the interpreted
engine with identical semantic results, and only a
``CellContext("vectorized")`` may raise :class:`EngineUnavailable`.
Setting ``repro.local.vectorized.np`` to ``None`` is the single
switch, and on Linux the fork start method carries the patch into pool
and server worker processes, so the whole service stack can be
exercised against a simulated numpy-free interpreter.

One :class:`CellContext` carries a cell's engine mode in and its
message, engine and phase accounts out.  Sweep cells always run
``auto``.  Only the innermost context observes, two cells in two
threads keep two records, and an unknown engine name is refused.
"""

import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.baselines.linial import LinialColoring, linial_coloring
from repro.baselines.mis import maximal_independent_set
from repro.decomposition import rake_and_compress
from repro.experiments import (
    AlgorithmFamily,
    ResultStore,
    ScenarioSpec,
    Suite,
    SweepRunner,
    get_suite,
    register_algorithm,
)
from repro.experiments.runner import run_cell
from repro.experiments.spec import ALGORITHMS, GENERATORS
from repro.generators import random_tree
from repro.local import (
    ENGINE_MODES,
    CellContext,
    EngineUnavailable,
    Network,
    numpy_available,
    run_synchronous,
    run_vectorized,
    select_engine,
    span,
)
from repro.local import vectorized
from repro.local.context import record_run, resolve_engine_mode

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="requires the numpy array backend"
)

DEGRADE_SUITE = Suite(
    name="degrade-tiny",
    description="test suite: kernel-capable baseline families",
    scenarios=(
        ScenarioSpec(
            name="linial/tree", generator="random-tree",
            algorithm="baseline-linial", sizes=(24,), seeds=(1,),
        ),
        ScenarioSpec(
            name="mis/tree", generator="random-tree",
            algorithm="baseline-mis", sizes=(24,), seeds=(1,),
        ),
    ),
)

#: One transform per decomposition peel: Theorem 12 runs rake-and-compress,
#: Theorem 15 runs the arboricity Decomposition process.
TRANSFORM_SUITE = Suite(
    name="transform-tiny",
    description="test suite: one transform cell per decomposition peel",
    scenarios=(
        ScenarioSpec(
            name="mis/tree-transform", generator="random-tree",
            algorithm="tree-mis", sizes=(40,), seeds=(1,),
        ),
        ScenarioSpec(
            name="edge-coloring/tree-transform", generator="random-tree",
            algorithm="arb-edge-coloring", sizes=(40,), seeds=(1,),
        ),
    ),
)


@pytest.fixture()
def no_numpy(monkeypatch):
    """Simulate a numpy-free interpreter for this test (and its forks)."""
    monkeypatch.setattr(vectorized, "np", None)


class TestNumpyAbsentDegradation:
    def test_availability_reads_the_numpy_module_attribute(self, no_numpy):
        assert not numpy_available()

    def test_select_engine_auto_degrades_to_interpreted(self, no_numpy):
        algorithm = LinialColoring()
        assert select_engine(algorithm) is run_synchronous
        with CellContext("auto"):
            assert select_engine(algorithm) is run_synchronous

    def test_explicit_vectorized_still_raises(self, no_numpy):
        algorithm = LinialColoring()
        with CellContext("vectorized"):
            with pytest.raises(EngineUnavailable, match="requires numpy"):
                select_engine(algorithm)
        with pytest.raises(EngineUnavailable, match="requires numpy"):
            run_vectorized(Network(random_tree(8, seed=1)), algorithm)

    def test_baseline_entry_points_still_run(self, no_numpy):
        tree = random_tree(40, seed=2)
        colours, _, _ = linial_coloring(tree)
        assert len(colours) == 40
        mis = maximal_independent_set(tree)
        assert mis.independent_set
        decomposition = rake_and_compress(tree, k=3)
        assert decomposition.layers

    def test_run_cell_degrades_kernel_capable_baseline(self, no_numpy):
        cell = next(
            c for c in DEGRADE_SUITE.cells() if c.algorithm == "baseline-mis"
        )
        result = run_cell(DEGRADE_SUITE.name, cell)
        assert result.verified
        assert result.engine == "interpreted"
        assert result.engine_rounds
        assert all(
            key.startswith("interpreted/") and key.endswith("/-")
            for key in result.engine_rounds
        )

    def test_sweep_runner_degrades_whole_suite(self, no_numpy, tmp_path):
        store = ResultStore(tmp_path)
        report = SweepRunner(DEGRADE_SUITE, store, jobs=1).run()
        assert report.ok
        results = store.results()
        assert len(results) == len(DEGRADE_SUITE.cells())
        assert all(result.engine == "interpreted" for result in results)

    def test_worker_pool_degrades_forked_workers(self, no_numpy):
        from repro.experiments.runner import WorkerPool

        with WorkerPool(workers=2) as pool:
            outcomes = list(
                pool.submit_sweep(DEGRADE_SUITE.name, DEGRADE_SUITE.cells())
            )
        assert all(outcome.ok for outcome in outcomes)
        assert all(outcome.result.engine == "interpreted" for outcome in outcomes)

    @pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
    )
    def test_fleet_ingest_degrades_and_ticks_interpreted_counters(
        self, no_numpy, tmp_path
    ):
        """A fleet worker's forked pool runs every cell interpreted, and
        the server's ingest counts those rounds under engine=interpreted
        with no array backend."""
        from repro.obs import parse_exposition
        from repro.obs.metrics import samples_named
        from repro.service import FleetWorker, ResultCollector, ServiceClient

        with ResultCollector(
            out=tmp_path / "store", listen=tmp_path / "svc.sock"
        ) as server:
            report = FleetWorker(
                get_suite("paper-claims"), ResultStore(tmp_path / "worker"),
                str(server.endpoint), jobs=2, smoke=True,
            ).run()
            assert report.ok and report.executed == report.total_cells
            engines = {
                record.get("engine")
                for record in ResultStore(tmp_path / "store").records()
            }
            assert engines <= {"interpreted", None}
            samples = samples_named(
                parse_exposition(ServiceClient(server.endpoint).metrics()),
                "engine_rounds_total",
            )
        assert samples
        assert all(
            sample.label("engine") == "interpreted"
            and sample.label("backend") == "-"
            for sample in samples
        )


class TestEngineRoundsProvenance:
    @requires_numpy
    def test_run_cell_records_backend_and_kernel_rounds(self):
        cell = next(
            c for c in DEGRADE_SUITE.cells() if c.algorithm == "baseline-linial"
        )
        result = run_cell(DEGRADE_SUITE.name, cell)
        assert result.engine == "vectorized[numpy]"
        assert result.engine_rounds
        assert any(
            key.startswith("vectorized/linial/numpy")
            for key in result.engine_rounds
        )

    @requires_numpy
    def test_engine_rounds_survive_the_store_round_trip(self, tmp_path):
        cell = DEGRADE_SUITE.cells()[0]
        result = run_cell(DEGRADE_SUITE.name, cell)
        store = ResultStore(tmp_path)
        store.append(result)
        loaded = ResultStore(tmp_path).results()
        assert [r.engine_rounds for r in loaded] == [result.engine_rounds]


def _run_transform_cell(cell):
    result = run_cell(TRANSFORM_SUITE.name, cell)
    assert result.verified
    assert result.engine_rounds
    assert not any("-peel/" in key for key in result.engine_rounds)
    return result


class TestPeelsStayOutOfProvenance:
    """The decomposition peels are not simulator runs: a transform cell's
    ``engine`` is decided by its simulator runs alone, and its
    ``engine_rounds`` carry no peel keys."""

    @requires_numpy
    @pytest.mark.parametrize(
        "cell", TRANSFORM_SUITE.cells(), ids=lambda cell: cell.algorithm
    )
    def test_auto_cell_is_vectorized(self, cell):
        assert _run_transform_cell(cell).engine == "vectorized[numpy]"

    @pytest.mark.parametrize(
        "cell", TRANSFORM_SUITE.cells(), ids=lambda cell: cell.algorithm
    )
    def test_numpy_free_cell_is_interpreted(self, no_numpy, cell):
        assert _run_transform_cell(cell).engine == "interpreted"


class TestCellContext:
    def test_spans_accumulate_on_the_context(self):
        with CellContext() as context:
            with span("verify"):
                pass
            with span("verify"):
                pass
            run = run_synchronous(Network(random_tree(20, seed=1)), LinialColoring())
        # ``gc`` joins whenever a collection ran (tests/test_gc_account.py).
        assert set(context.timings) - {"gc"} == {"verify", "network", "simulate"}
        assert (context.runs, context.messages) == (1, run.messages_sent)

    def test_no_context_is_a_noop(self):
        run = run_synchronous(Network(random_tree(8, seed=1)), LinialColoring())
        assert record_run(run, "interpreted", "linial", time.perf_counter()) is run
        with span("orphan"):
            pass
        assert resolve_engine_mode() == "auto"

    def test_nested_contexts_innermost_wins(self):
        tree = random_tree(20, seed=1)
        with CellContext("interpreted") as outer:
            with CellContext("vectorized") as inner:
                assert resolve_engine_mode() == "vectorized"
                with span("p"):
                    run = run_synchronous(Network(tree), LinialColoring())
            assert resolve_engine_mode() == "interpreted"
        assert resolve_engine_mode() == "auto"
        assert (inner.runs, inner.messages) == (1, run.messages_sent)
        assert inner.engine_rounds == {"interpreted/linial-coloring/-": run.rounds}
        assert set(inner.timings) == {"p", "network", "simulate"}
        assert (outer.runs, outer.messages, outer.engine_rounds, outer.timings) == (
            0, 0, {}, {},
        )

    def test_thread_isolation(self):
        seen = {}

        def worker():
            with CellContext() as context:
                with span("theirs"):
                    pass
                seen.update(context.timings)

        with CellContext() as context:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert set(seen) == {"theirs"}
        assert context.timings == {}


#: The barrier of the family below; ``None`` runs its cell alone.
_MEETING: dict = {"barrier": None}


def _mis_between_barriers(graph, generator, n):
    """A MIS cell that meets its partner thread before and after the run,
    so both cells' contexts are open while both engines run."""
    barrier = _MEETING["barrier"]
    if barrier is not None:
        barrier.wait()
    run = maximal_independent_set(graph)
    if barrier is not None:
        barrier.wait()
    return {"rounds": run.rounds, "verified": True}


if "_test-mis-between-barriers" not in ALGORITHMS:
    register_algorithm(AlgorithmFamily(
        name="_test-mis-between-barriers", description="test family",
        kind="baseline", run=_mis_between_barriers,
    ))

THREAD_SUITE = Suite(
    name="threads-tiny",
    description="test suite: one cell run in two threads at once",
    scenarios=(
        ScenarioSpec(
            name="mis/tree", generator="random-tree",
            algorithm="_test-mis-between-barriers", sizes=(60,), seeds=(1,),
        ),
    ),
)


def _run_in_context(cell, mode):
    """The cell's family run under its own ``CellContext(mode)``."""
    generator = GENERATORS[cell.generator]
    graph = generator.build(cell.n, cell.seed)
    with CellContext(mode) as context:
        ALGORITHMS[cell.algorithm].run(graph, generator, cell.n)
    return context


@pytest.mark.parametrize(
    "engines",
    [
        ("interpreted", "interpreted"),
        pytest.param(("interpreted", "vectorized"), marks=requires_numpy),
    ],
    ids="+".join,
)
def test_two_threads_keep_two_records(monkeypatch, engines):
    cell = THREAD_SUITE.cells()[0]
    alone = {engine: _run_in_context(cell, engine) for engine in set(engines)}
    monkeypatch.setitem(_MEETING, "barrier", threading.Barrier(2, timeout=10))
    results, errors = {}, []

    def run(slot, engine):
        try:
            results[slot] = _run_in_context(cell, engine)
        except Exception as error:  # noqa: BLE001 - asserted below
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(slot, engine))
        for slot, engine in enumerate(engines)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for slot, engine in enumerate(engines):
        context, expected = results[slot], alone[engine]
        assert context.messages == expected.messages
        assert context.engine == expected.engine
        assert context.engine_rounds == expected.engine_rounds
        # A collection is attributed to the context only when it runs alone
        # in the process (tests/test_gc_account.py), so ``gc`` may differ.
        assert set(context.timings) - {"gc"} == set(expected.timings) - {"gc"}


class TestUnknownEngineNames:
    """A misspelt engine mode is refused naming the valid modes, never
    silently run under the ``auto`` engine."""

    MESSAGE = re.escape(str(ENGINE_MODES))

    def test_cell_context_rejects(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            CellContext("vectorised")


def test_paper_layers_do_not_import_obs():
    """The paper's layers report through :mod:`repro.local.context`;
    observability stays an infrastructure concern."""
    code = (
        "import sys, repro.core, repro.baselines, repro.decomposition; "
        "print(sorted(m for m in sys.modules "
        "if m == 'repro.obs' or m.startswith('repro.obs.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert completed.stdout.strip() == "[]"
