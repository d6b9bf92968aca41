"""The benchmark's own checks.  Run from the repository root.

    python3 perfbench/selfcheck.py

runs two traced runs of every workload on the default seed and fails
unless their exact counts (``*.calls``, ``*.node_ratio``, ``*.rounds``,
``*.nodes``, ``*.messages``, ``core.gather.components``) are identical.
It also prints how many ``Network`` builds each cell of the last traced
run made.

    python3 perfbench/selfcheck.py --write-expected

rewrites ``expected.json``: the semantic record of every cell of every
workload at the default seed, from one untraced pass each.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

#: The seed whose cell records ``expected.json`` holds.
DEFAULT_SEED = 1
EXACT_SUFFIXES = (".calls", ".node_ratio", ".rounds", ".nodes", ".messages",
                  ".components")


def traced_counts(workload: str) -> tuple[dict, str]:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} cells failed")
    span_file = completed.stderr.split("span file: ")[1].split("\n")[0]
    counts = {
        name: metric["value"] for name, metric in result["metrics"].items()
        if name.endswith(EXACT_SUFFIXES)
    }
    return counts, span_file


def network_builds(span_file: str) -> Counter:
    spans = [json.loads(line) for line in open(span_file, encoding="utf-8")]
    algorithm = {
        span["cell"]: span["counts"]["algorithm"] for span in spans
        if span["layer"] == "experiments.cell"
    }
    return Counter(
        algorithm[span["cell"]] for span in spans if span["layer"] == "local.network"
    )


def write_expected(root: Path, names: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=run.HASH_SEED)
    out_dir = root / run.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    expected = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in names:
        result = run.spawn(
            [sys.executable, str(BENCH_DIR / "child.py"), name,
             str(DEFAULT_SEED), str(out_dir), "passes", "0"],
            env, timeout=run.DEADLINE_S,
        )["passes"][0]
        if result["failures"]:
            raise SystemExit(f"{name}: cells failed: {result['failures']}")
        expected["workloads"][name] = result["records"]
        print(f"{name}: {len(result['records'])} records", file=sys.stderr)
    (BENCH_DIR / "expected.json").write_text(
        json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()
    names = [
        workload["name"]
        for workload in json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    ]
    if args.write_expected:
        write_expected(root, names)
        return 0
    status = 0
    for workload in names:
        first, _ = traced_counts(workload)
        second, span_file = traced_counts(workload)
        differing = sorted(name for name in first if first[name] != second.get(name))
        verdict = "identical" if not differing else f"DIFFER: {differing}"
        print(f"{workload}: {len(first)} exact counts {verdict}")
        for name in sorted(first):
            print(f"  {name} = {first[name]}")
        builds = network_builds(span_file)
        print("  Network builds by algorithm: " + ", ".join(
            f"{algorithm} {count}" for algorithm, count in sorted(builds.items())
        ))
        status |= bool(differing)
    return status


if __name__ == "__main__":
    sys.exit(main())
