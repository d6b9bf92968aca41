#!/usr/bin/env python
"""CI SLO burn check over a saved metrics scrape or scrape history.

Usage::

    python scripts/slo_burn_check.py <scrape.prom> [--store results.jsonl]
    python scripts/slo_burn_check.py --history hist.jsonl \
        [--window 5m] [--slow-window 1h] [--store results.jsonl]

The first form evaluates every objective in
:data:`repro.obs.slo.DEFAULT_SLOS` against one Prometheus-text
exposition (the degenerate single-sample window: cumulative-total
semantics).  The second form reads a scrape-history JSONL file (from
``metrics --history --out`` or a service's ``--history-spill``) and
evaluates dual-window burn rates: an objective is burning only when it
fails over both the fast window (``--window``, default 5m) and the slow
window (``--slow-window``, default 1h), the standard guard against
paging on transient blips.

With ``--store``, additionally asserts ingest completeness: the sweep
server's ``collector_records_ingested_total`` counter must equal its
store's record count — the scrape and the durable store agree
on how many records exist, so nothing was silently lost between the
wire and the disk.

Exit codes::

    0  every objective within budget
    1  at least one objective burning
    2  unreadable input or bad usage
    3  no data: every objective lacked its underlying series
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Runnable straight from a checkout: scripts/ sits next to src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.metrics import parse_exposition, samples_named, sum_samples
from repro.obs.slo import (
    DEFAULT_FAST_WINDOW_S,
    DEFAULT_SLOW_WINDOW_S,
    DEFAULT_SLOS,
    evaluate_slos,
    evaluate_slos_windowed,
)
from repro.obs.timeseries import load_history_jsonl, parse_duration

EXIT_OK = 0
EXIT_BURNING = 1
EXIT_UNREADABLE = 2
EXIT_NO_DATA = 3


def _duration(text: str) -> float:
    try:
        return parse_duration(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _format_window(seconds: float) -> str:
    if seconds % 3600 == 0 and seconds >= 3600:
        return f"{int(seconds // 3600)}h"
    if seconds % 60 == 0 and seconds >= 60:
        return f"{int(seconds // 60)}m"
    return f"{seconds:g}s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scrape", nargs="?", default=None,
        help="a saved Prometheus-text exposition file (single-scrape mode)",
    )
    parser.add_argument(
        "--history", default=None, metavar="JSONL",
        help="a scrape-history JSONL file (from `metrics --history --out` "
        "or a --history-spill); switches to dual-window burn-rate mode",
    )
    parser.add_argument(
        "--window", type=_duration, default=None, metavar="DURATION",
        help="fast burn window for --history mode, e.g. 5m "
        f"(default: {_format_window(DEFAULT_FAST_WINDOW_S)})",
    )
    parser.add_argument(
        "--slow-window", type=_duration, default=None, metavar="DURATION",
        help="slow corroboration window for --history mode, e.g. 1h "
        f"(default: {_format_window(DEFAULT_SLOW_WINDOW_S)}, "
        "clamped to at least the fast window)",
    )
    parser.add_argument(
        "--store", default=None, metavar="JSONL",
        help="assert collector_records_ingested_total equals this result "
        "store's record count",
    )
    args = parser.parse_args(argv)

    if (args.scrape is None) == (args.history is None):
        print(
            "exactly one input required: a scrape file, or --history JSONL",
            file=sys.stderr,
        )
        return EXIT_UNREADABLE
    if args.scrape is not None and (
        args.window is not None or args.slow_window is not None
    ):
        print("--window/--slow-window require --history", file=sys.stderr)
        return EXIT_UNREADABLE

    failed = False
    saw_data = False

    if args.history is not None:
        try:
            points = load_history_jsonl(args.history)
        except (OSError, ValueError) as error:
            print(f"cannot read history: {error}", file=sys.stderr)
            return EXIT_UNREADABLE
        if not points:
            print(f"{args.history}: empty history — no data", file=sys.stderr)
            return EXIT_NO_DATA
        fast = args.window if args.window is not None else DEFAULT_FAST_WINDOW_S
        slow = (
            args.slow_window
            if args.slow_window is not None
            else max(DEFAULT_SLOW_WINDOW_S, fast)
        )
        try:
            burn_results = evaluate_slos_windowed(
                points, fast_window_s=fast, slow_window_s=max(slow, fast)
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return EXIT_UNREADABLE
        print(
            f"dual-window burn over {len(points)} point(s): "
            f"fast={_format_window(fast)} slow={_format_window(max(slow, fast))}"
        )
        for result in burn_results:
            print(
                f"  {result.status:>14}  {result.name}: "
                f"fast: {result.fast.detail} | slow: {result.slow.detail}"
            )
            failed = failed or result.burning
            saw_data = saw_data or not result.no_data
        samples = points[-1].samples
    else:
        try:
            text = Path(args.scrape).read_text(encoding="utf-8")
            samples = parse_exposition(text)
        except (OSError, ValueError) as error:
            print(f"cannot read scrape: {error}", file=sys.stderr)
            return EXIT_UNREADABLE
        for result in evaluate_slos(samples, DEFAULT_SLOS):
            print(f"  {result.status:>8}  {result.name}: {result.detail}")
            failed = failed or not result.ok
            saw_data = saw_data or not result.no_data

    if args.store is not None:
        if not samples_named(samples, "collector_records_ingested_total"):
            print(
                "  BURNING  ingest-completeness: the scrape has no "
                "collector_records_ingested_total samples — was it taken "
                "from a sweep server?"
            )
            failed = True
        else:
            ingested = sum_samples(samples, "collector_records_ingested_total")
            try:
                store_lines = sum(
                    1
                    for line in Path(args.store).read_text(encoding="utf-8").splitlines()
                    if line.strip()
                )
            except OSError as error:
                print(f"cannot read store: {error}", file=sys.stderr)
                return EXIT_UNREADABLE
            ok = ingested == store_lines
            print(
                f"  {'ok' if ok else 'BURNING':>8}  ingest-completeness: "
                f"counter={int(ingested)} store_records={store_lines}"
            )
            failed = failed or not ok
            saw_data = True

    if failed:
        print("SLO burn check FAILED", file=sys.stderr)
        return EXIT_BURNING
    if not saw_data:
        print(
            "SLO burn check: no data — no objective had its underlying "
            "series",
            file=sys.stderr,
        )
        return EXIT_NO_DATA
    print("SLO burn check passed")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
