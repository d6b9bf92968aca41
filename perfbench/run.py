"""Cell-level benchmark: run one workload, check its cells, print metrics.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run sets up in :data:`SETUP_SAMPLES` fresh interpreters
(``child.py``) with a fixed ``PYTHONHASHSEED``; the last one forks one
process per pass while another pass fits in ``--seconds``.  Times are in
seconds at the reference machine speed (``calibrate.py``); standard error
also lists them as measured.  With ``--trace 1`` one more pass runs under
the layer tracer and the per-layer metrics are printed instead of the
end-to-end ones; no end-to-end number comes from a traced pass.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units come
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
#: Set-up is timed in this many fresh interpreters per run.
SETUP_SAMPLES = 3
#: Every child must end this many seconds after the run started.
DEADLINE_S = 170.0
HASH_SEED = "0"
OUT_DIR = ".perfbench-out"


class ChildError(RuntimeError):
    pass


def spawn(command: list[str], env: dict, timeout: float) -> dict:
    """Run one child in its own process group; kill the group on timeout."""
    with subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as child:
        try:
            stdout, stderr = child.communicate(timeout=timeout)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    if child.returncode != 0:
        raise ChildError(f"{' '.join(command[1:4])} exited {child.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def check(passes: list[dict], reference: dict | None) -> tuple[int, int]:
    """(attempted, failed) over every pass.

    A cell fails when it raised, is unverified, differs from the first
    pass, or, on the default seed, differs from the committed record.
    """
    first = passes[0]["records"]
    attempted = failed = 0
    for outcome in passes:
        records = outcome["records"]
        ok = sum(
            1 for fingerprint, record in records.items()
            if record["verified"] and record == first.get(fingerprint)
            and (reference is None or record == reference.get(fingerprint))
        )
        # Reference cells the pass neither recorded nor counted as failed.
        missing = 0 if reference is None else len(
            set(reference) - set(records) - set(outcome["failures"])
        )
        attempted += outcome["attempted"] + missing
        failed += outcome["attempted"] + missing - ok
    return attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    reference = (
        expected["workloads"][args.workload] if args.seed == expected["seed"] else None
    )
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=HASH_SEED)
    start = time.perf_counter()

    def child(mode: str, *budget: str) -> dict:
        return spawn(
            [sys.executable, str(BENCH_DIR / "child.py"), args.workload,
             str(args.seed), str(out_dir), mode, *budget],
            env, timeout=DEADLINE_S - (time.perf_counter() - start),
        )

    setups = [child("setup")["setup"] for _ in range(SETUP_SAMPLES - 1)]
    result = child("trace" if args.trace else "passes",
                   str(args.seconds - (time.perf_counter() - start)))
    setups.append(result["setup"])
    passes, traced = result["passes"], result["traced"]

    attempted, failed = check(passes + ([traced] if traced else []), reference)

    def median(key: str, rows: list[dict]) -> float:
        return statistics.median(row[key] for row in rows)

    if traced is None:
        values = {
            "wall_s": median("wall_s", passes),
            "cpu_s": median("cpu_s", passes),
            "setup_s": statistics.median(s["import_s"] + s["warmup_s"] for s in setups),
            "peak_rss_mb": median("peak_rss_mb", passes),
            "cells_ok_frac": (attempted - failed) / attempted,
        }
    else:
        values = dict(traced["layers"])
        values["setup.import_s"] = median("import_s", setups)
        values["setup.warmup_s"] = median("warmup_s", setups)
        values["trace.overhead_frac"] = traced["wall_s"] / median("wall_s", passes) - 1
        print(f"span file: {traced['span_file']}", file=sys.stderr)
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in metrics_spec
    }
    print(f"{args.workload} seed={args.seed}: {len(passes)} pass(es), "
          f"{len(setups)} set-up(s); pass wall_s "
          + " ".join(f"{outcome['wall_s']:.3f}" for outcome in passes)
          + "; as measured: wall_s "
          + " ".join(f"{outcome['raw_wall_s']:.3f}" for outcome in passes)
          + f", median cpu_s {median('raw_cpu_s', passes):.3f}"
          + f", median setup_s {median('raw_s', setups):.3f}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ChildError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
