"""One warm worker pool across sweeps vs. a fresh pool per sweep.

Both paths run one cell per task on a `WorkerPool`; they differ only in
how long the workers live.  `SweepRunner(jobs=2).run()` (the CLI's
`run --jobs 2`) creates a pool, forks its workers and joins them before
returning, so every sweep pays process startup.  The daemon passes one
warm pool to every sweep (`SweepRunner(..., pool=pool)`), so on a stream
of many small sweeps that startup is paid once.

This benchmark replays the same stream of small sweeps through both paths
and asserts the warm pool's speedup stays above a conservative floor
(:data:`SPEEDUP_FLOOR`), recording both wall clocks in
``benchmarks/results/bench_pool.json`` so the trajectory is visible per
PR.  ``BENCH_SMOKE=1`` shrinks the stream for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_pool.py
    BENCH_SMOKE=1 PYTHONPATH=src python benchmarks/bench_pool.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _harness import record_json, scenario_entry  # noqa: E402

from repro.experiments import ResultStore, ScenarioSpec, Suite, SweepRunner
from repro.service import WorkerPool

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: The warm pool must beat the pool-per-sweep path by at least this factor
#: on the many-small-cell stream.  Measured speedups are far higher (the
#: fresh path pays worker-count process startups per sweep); the floor
#: only guards against a regression that loses the amortisation.
SPEEDUP_FLOOR = 1.1

WORKERS = 2
SWEEPS = 3 if SMOKE else 6
SEEDS = tuple(range(1, 6 if SMOKE else 11))
SIZES = (12, 16, 20, 24)

#: Each path is measured this many times and the best run is kept, so a
#: single scheduling hiccup on a noisy CI runner cannot sink the ratio.
REPEATS = 3


def small_cell_suite(tag: int) -> Suite:
    """One sweep's worth of tiny cells (distinct per-sweep seeds via tag)."""
    return Suite(
        name=f"bench-pool-{tag}",
        description="many small cells: forest 3-colouring on tiny random trees",
        scenarios=(
            ScenarioSpec(
                name="forest-3coloring/tiny-trees",
                generator="random-tree",
                algorithm="baseline-forest-3coloring",
                sizes=SIZES,
                seeds=tuple(seed + 100 * tag for seed in SEEDS),
            ),
        ),
    )


def run_fresh_pool_stream(base_dir: str) -> float:
    """The `run --jobs` path: each sweep forks and joins its own pool."""
    start = time.perf_counter()
    for sweep in range(SWEEPS):
        store = ResultStore(os.path.join(base_dir, f"fresh-{sweep}"))
        report = SweepRunner(small_cell_suite(sweep), store, jobs=WORKERS).run()
        assert report.ok, f"fresh-pool sweep {sweep} failed: {report.failures}"
    return time.perf_counter() - start


def run_warm_pool_stream(base_dir: str) -> float:
    """The daemon path: one warm pool serving every sweep."""
    start = time.perf_counter()
    with WorkerPool(workers=WORKERS) as pool:
        for sweep in range(SWEEPS):
            store = ResultStore(os.path.join(base_dir, f"warm-{sweep}"))
            report = SweepRunner(small_cell_suite(sweep), store, pool=pool).run()
            assert report.ok, f"warm-pool sweep {sweep} failed: {report.failures}"
    return time.perf_counter() - start


def best_of(stream, base_dir: str) -> float:
    """The fastest of :data:`REPEATS` runs (fresh store dirs each time,
    so resume-skipping can never shortcut a repeat)."""
    return min(
        stream(os.path.join(base_dir, f"repeat-{repeat}"))
        for repeat in range(REPEATS)
    )


def main() -> None:
    import tempfile

    cells_per_sweep = len(SIZES) * len(SEEDS)
    print(
        f"bench_pool: {SWEEPS} sweeps x {cells_per_sweep} cells, "
        f"{WORKERS} workers (smoke={SMOKE})"
    )
    with tempfile.TemporaryDirectory(prefix="bench_pool") as base_dir:
        fresh_s = best_of(run_fresh_pool_stream, os.path.join(base_dir, "fresh"))
        pool_s = best_of(run_warm_pool_stream, os.path.join(base_dir, "warm"))

    speedup = fresh_s / pool_s if pool_s > 0 else float("inf")
    print(f"  pool per sweep:     {fresh_s:.3f}s")
    print(f"  persistent pool:    {pool_s:.3f}s")
    print(f"  speedup:            {speedup:.2f}x (floor: {SPEEDUP_FLOOR}x)")

    record_json(
        "bench_pool",
        [
            scenario_entry(
                "pool-per-sweep", cells_per_sweep * SWEEPS, fresh_s,
                sweeps=SWEEPS, workers=WORKERS,
            ),
            scenario_entry(
                "persistent-pool", cells_per_sweep * SWEEPS, pool_s,
                sweeps=SWEEPS, workers=WORKERS, speedup=round(speedup, 3),
            ),
        ],
        meta={"smoke": SMOKE, "speedup_floor": SPEEDUP_FLOOR},
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"persistent pool speedup {speedup:.2f}x fell below the "
        f"{SPEEDUP_FLOOR}x floor over the pool-per-sweep path"
    )


if __name__ == "__main__":
    main()
