"""The ``gc`` line of a cell's time account.

One :data:`gc.callbacks` hook adds the seconds of every cyclic collection
to ``timings["gc"]`` of the one active :class:`CellContext`.  A collection
is attributed only while exactly one context is active in the process:
under nested contexts, or contexts in two threads, it goes to none.  The
line is nonsemantic: it changes no fingerprint, no dedup verdict and no
``report`` byte.  No test here sleeps: the threads meet on events.
"""

import gc
import threading

import pytest

from repro.experiments import build_report, get_suite, run_cell
from repro.experiments.report import render_json_tables
from repro.experiments.store import resolve_duplicate, semantic_payload
from repro.local import CellContext


@pytest.fixture()
def explicit_collections_only():
    """Switch automatic collections off, so only ``gc.collect()`` runs one."""
    gc.disable()
    yield
    gc.enable()


def test_a_collection_in_the_one_context_is_reported():
    with CellContext() as context:
        gc.collect()
    assert context.timings["gc"] > 0


def test_no_collection_means_no_gc_phase_on_the_context(explicit_collections_only):
    with CellContext() as context:
        pass
    assert "gc" not in context.timings


def test_nested_contexts_attribute_nothing(explicit_collections_only):
    with CellContext() as outer:
        with CellContext() as inner:
            gc.collect()
    assert "gc" not in outer.timings
    assert "gc" not in inner.timings


def test_the_outer_context_is_attributed_again_once_the_inner_one_left():
    with CellContext() as outer:
        with CellContext() as inner:
            pass
        gc.collect()
    assert outer.timings["gc"] > 0
    assert "gc" not in inner.timings


def test_contexts_in_two_threads_attribute_nothing(explicit_collections_only):
    entered, collected = threading.Event(), threading.Event()
    seen = {}

    def worker():
        with CellContext() as theirs:
            entered.set()
            collected.wait(timeout=30)
        seen.update(theirs.timings)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert entered.wait(timeout=30)
        with CellContext() as ours:
            gc.collect()
    finally:
        collected.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert "gc" not in ours.timings
    assert "gc" not in seen


def test_threads_entering_and_leaving_contexts_lose_no_update(monkeypatch):
    """More threads than cores enter and leave contexts while collections
    run; the hook never raises and the process-wide list of active
    contexts ends empty."""
    import sys

    from repro.local import context as context_module

    raised = []
    monkeypatch.setattr(sys, "unraisablehook", raised.append)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def churn():
            for _ in range(300):
                with CellContext():
                    [[] for _ in range(50)]
                gc.collect(0)

        threads = [threading.Thread(target=churn) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert raised == []
    assert context_module._ACTIVE == []


def _cells():
    suite = get_suite("paper-claims")
    return suite, suite.cells(smoke=True)[:4]


def test_every_run_cell_record_carries_gc(explicit_collections_only):
    suite, cells = _cells()
    for cell in cells:
        assert run_cell(suite.name, cell).timings["gc"] == 0.0
    gc.enable()
    for cell in cells:
        assert run_cell(suite.name, cell).timings["gc"] >= 0.0


def test_gc_changes_no_fingerprint_dedup_verdict_or_report_byte():
    suite, cells = _cells()
    records = [run_cell(suite.name, cell).to_record() for cell in cells]
    assert all("gc" in record["timings"] for record in records)
    without = [
        dict(record, timings={
            phase: seconds for phase, seconds in record["timings"].items()
            if phase != "gc"
        })
        for record in records
    ]
    for record, other in zip(records, without):
        assert semantic_payload(record) == semantic_payload(other)
        assert not resolve_duplicate(other, record).conflict
    assert [r["fingerprint"] for r in records] == [c.fingerprint for c in cells]
    first, second = build_report(records), build_report(without)
    assert render_json_tables(first) == render_json_tables(second)
    assert first.render() == second.render()


def test_the_collector_observes_gc_as_a_cell_phase(tmp_path):
    from repro.obs import parse_exposition
    from repro.obs.metrics import samples_named
    from repro.service import ResultCollector

    suite, cells = _cells()
    collector = ResultCollector(out=tmp_path / "central")
    collector.ingest(run_cell(suite.name, cells[0]).to_record())
    samples = parse_exposition(collector.registry.render())
    phases = {
        sample.label("phase")
        for sample in samples_named(samples, "cell_phase_seconds_count")
    }
    assert "gc" in phases
