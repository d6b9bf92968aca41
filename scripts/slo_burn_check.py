#!/usr/bin/env python
"""CI SLO burn check over one saved metrics scrape.

Usage::

    python scripts/slo_burn_check.py <scrape.prom> [--store results.jsonl]

Evaluates every objective in :data:`repro.obs.slo.DEFAULT_SLOS` against
one Prometheus-text exposition (``metrics --connect ... --out``).  The
server's counters are cumulative since it started, so each objective
reads lifetime totals; to compare two moments, diff two scrapes with
``dashboard --diff``.

With ``--store``, additionally asserts ingest completeness: the store
must hold exactly the records the sweep server's startup replay read
(``collector_store_records_at_start``) plus those it appended since
(``collector_records_ingested_total``) — the scrape and the durable
store agree on how many records exist, so nothing was silently lost
between the wire and the disk, across server restarts too.

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
from repro.obs.slo import evaluate_slos

EXIT_OK = 0
EXIT_BURNING = 1
EXIT_UNREADABLE = 2
EXIT_NO_DATA = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scrape", help="a saved Prometheus-text exposition file",
    )
    parser.add_argument(
        "--store", default=None, metavar="JSONL",
        help="assert the server's records at startup plus "
        "collector_records_ingested_total equal this result store's "
        "record count",
    )
    args = parser.parse_args(argv)

    try:
        text = Path(args.scrape).read_text(encoding="utf-8")
        samples = parse_exposition(text)
    except (OSError, ValueError) as error:
        print(f"cannot read scrape: {error}", file=sys.stderr)
        return EXIT_UNREADABLE

    failed = False
    saw_data = False
    for result in evaluate_slos(samples):
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
            at_start = sum_samples(samples, "collector_store_records_at_start")
            # Lines as the server's startup replay counts them, cell
            # records or not: a truncated final line (a crash mid-append)
            # is not one.  The store's package imports the whole simulator
            # (~0.5 s), so only a --store check pays for it.
            from repro.experiments.store import ResultStore

            store = ResultStore.from_path(args.store)
            try:
                if not store.path.is_file():
                    raise FileNotFoundError(f"no store file at {store.path}")
                store_records = len(store.lines())
            except (OSError, ValueError) as error:
                print(f"cannot read store: {error}", file=sys.stderr)
                return EXIT_UNREADABLE
            ok = at_start + ingested == store_records
            print(
                f"  {'ok' if ok else 'BURNING':>8}  ingest-completeness: "
                f"counter={int(ingested)} store_records={store_records} "
                f"at_start={int(at_start)}"
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
