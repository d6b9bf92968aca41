"""One fresh interpreter per run: set up once, then fork one process per pass.

Started by ``run.py`` from the repository root with ``PYTHONPATH=src``
and a fixed ``PYTHONHASHSEED``::

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR setup
    python3 perfbench/child.py WORKLOAD SEED OUT_DIR passes|trace BUDGET_S

``setup`` only sets up.  ``passes`` sets up, then forks one process per
pass while another pass fits in BUDGET_S seconds from the start; at least
one pass runs.  Every pass starts from the same set-up state, so no pass
sees what an earlier pass left in memory, and no pass pays for set-up.
``trace`` then forks one more pass under the layer tracer and writes its
span file to OUT_DIR.  Set-up and every step of a pass are timed twice:
as measured (``raw_*``) and scaled to the reference machine speed by
:mod:`calibrate`.  The last line of standard output is one JSON object.
"""

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate


def _cpu_s() -> float:
    """User + sys CPU of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def measure(workload, seed: int, out_dir: Path) -> dict:
    """Time one pass step by step; peak RSS is read after workers are reaped."""
    scaler = calibrate.Scaler()
    totals = dict.fromkeys(("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s"), 0.0)

    @contextlib.contextmanager
    def timed(jobs: int = 1):
        scaler.prime(jobs)
        cpu = _cpu_s()
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            cpu = _cpu_s() - cpu
            factor = scaler.scale(wall, jobs)
            totals["raw_wall_s"] += wall
            totals["raw_cpu_s"] += cpu
            totals["wall_s"] += wall * factor
            totals["cpu_s"] += cpu * factor

    outcome = workload.run_pass(seed, out_dir / f"store-{os.getpid()}", timed)
    return {
        **totals,
        "peak_rss_mb": max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024,
        "records": outcome.records,
        "failures": outcome.failures,
        "attempted": outcome.attempted,
        "jobs": outcome.jobs,
    }


def traced(workload, seed: int, out_dir: Path) -> dict:
    """One pass under the layer tracer, with its per-layer metrics."""
    import tracer as tracing

    worker_dir = out_dir / f"workers-{os.getpid()}"
    worker_dir.mkdir(parents=True)
    tracer = tracing.Tracer(worker_dir)
    tracer.install()
    result = measure(workload, seed, out_dir)
    spans = tracer.collect()
    shutil.rmtree(worker_dir)
    span_file = out_dir / f"spans-{workload.name}-{seed}.jsonl"
    tracing.write_spans(spans, span_file)
    result["layers"] = tracing.layer_metrics(spans, result["jobs"], result["raw_wall_s"])
    result["span_file"] = str(span_file)
    return result


def forked(run) -> dict:
    """``run()`` in a forked process; its JSON result comes back on a pipe."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "w") as pipe:
                json.dump(run(), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"pass process ended with wait status {status}")
    return json.loads(text)


def main(argv: list[str]) -> int:
    workload_name, seed, out_dir, mode = argv[1], int(argv[2]), Path(argv[3]), argv[4]
    budget = float(argv[5]) if mode != "setup" else 0.0
    began = time.perf_counter()
    scaler = calibrate.Scaler()
    scaler.prime()
    start = time.perf_counter()
    import workloads

    imported = time.perf_counter()
    workload = workloads.WORKLOADS[workload_name]
    workloads.warm_up(workload)
    ready = time.perf_counter()
    factor = scaler.scale(ready - start)
    result = {
        "setup": {
            "import_s": (imported - start) * factor,
            "warmup_s": (ready - imported) * factor,
            "raw_s": ready - start,
        },
        "passes": [],
        "traced": None,
    }
    took: list[float] = []
    while mode != "setup" and (
        not took or time.perf_counter() - began + statistics.median(took) <= budget
    ):
        pass_start = time.perf_counter()
        result["passes"].append(forked(lambda: measure(workload, seed, out_dir)))
        took.append(time.perf_counter() - pass_start)
    if mode == "trace":
        result["traced"] = forked(lambda: traced(workload, seed, out_dir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
