"""Engine policy and provenance: what happens when numpy is gone.

The vectorized engine is a preference, not a dependency — a
numpy-free interpreter must degrade every family-pinned or auto cell
to the interpreted engine with identical semantic results, and only an
*explicit* ``engine="vectorized"`` request may raise
:class:`EngineUnavailable`.  Setting ``repro.local.vectorized.np`` to
``None`` is the single switch, and on Linux the fork start method
carries the patch into pool and daemon worker processes, so the whole
service stack can be exercised against a simulated numpy-free
interpreter.
"""

import socket

import pytest

from repro.baselines.linial import LinialColoring, linial_coloring
from repro.baselines.mis import maximal_independent_set
from repro.decomposition import rake_and_compress
from repro.experiments import ResultStore, ScenarioSpec, Suite, SweepRunner
from repro.experiments.runner import run_cell
from repro.generators import random_tree
from repro.local import (
    EngineUnavailable,
    Network,
    numpy_available,
    run_synchronous,
    run_vectorized,
    select_engine,
)
from repro.local import vectorized

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="requires the numpy array backend"
)

DEGRADE_SUITE = Suite(
    name="degrade-tiny",
    description="test suite: families that pin the vectorized engine",
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
        assert select_engine(algorithm, engine="auto") is run_synchronous

    def test_explicit_vectorized_still_raises(self, no_numpy):
        algorithm = LinialColoring()
        with pytest.raises(EngineUnavailable, match="requires numpy"):
            select_engine(algorithm, engine="vectorized")
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

    def test_run_cell_degrades_family_pinned_vectorized(self, no_numpy):
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

    def test_worker_pool_degrades_forked_workers(self, no_numpy, tmp_path):
        from repro.service import WorkerPool

        store = ResultStore(tmp_path)
        with WorkerPool(workers=2, batch_size=2) as pool:
            report = pool.run_suite(DEGRADE_SUITE, store)
        assert report.ok
        assert all(result.engine == "interpreted" for result in store.results())

    @pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
    )
    def test_daemon_submit_degrades_and_ticks_interpreted_counters(
        self, no_numpy, tmp_path
    ):
        from repro.obs import parse_exposition
        from repro.obs.metrics import samples_named
        from repro.service import ServiceClient, SweepDaemon

        daemon = SweepDaemon(
            socket_path=tmp_path / "svc.sock", workers=2, batch_size=4
        )
        daemon.start()
        try:
            client = ServiceClient(daemon.socket_path)
            job = client.submit(
                "paper-claims", smoke=True, out=str(tmp_path / "store")
            )
            status = client.wait(job, timeout=120)
            assert status["state"] == "done"
            assert not status["failures"]
            engines = {
                record.get("engine") for record in client.results(job)
            }
            assert engines <= {"interpreted", None}
            samples = samples_named(
                parse_exposition(client.metrics()), "engine_rounds_total"
            )
            assert samples
            assert all(
                sample.label("engine") == "interpreted"
                and sample.label("backend") == "-"
                for sample in samples
            )
        finally:
            daemon.close()


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


def _run_transform_cell(cell, engine=None):
    result = run_cell(TRANSFORM_SUITE.name, cell, engine=engine)
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
    def test_interpreted_override_cell_is_interpreted(self, cell):
        result = _run_transform_cell(cell, engine="interpreted")
        assert result.engine == "interpreted"

    @pytest.mark.parametrize(
        "cell", TRANSFORM_SUITE.cells(), ids=lambda cell: cell.algorithm
    )
    def test_numpy_free_cell_is_interpreted(self, no_numpy, cell):
        assert _run_transform_cell(cell).engine == "interpreted"
