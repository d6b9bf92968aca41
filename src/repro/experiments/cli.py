"""Command-line interface: ``python -m repro.experiments
<run|list|report|merge|serve|metrics|dashboard>``.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run paper-claims --jobs 4
    python -m repro.experiments run paper-claims --jobs 4      # skips all cells
    python -m repro.experiments run scaling --sizes 100,300 --seeds 1
    python -m repro.experiments report
    python -m repro.experiments report --json report.json --csv report.csv

Static sharding, merged afterwards::

    # machine A                                  # machine B
    python -m repro.experiments run scaling \\
        --shard 0/2 --out shards/a               ... --shard 1/2 --out shards/b
    # then anywhere:
    python -m repro.experiments merge --out experiments/results/results.jsonl \\
        shards/a/results.jsonl shards/b/results.jsonl
    python -m repro.experiments report

The sweep server (TCP token-authenticated via ``REPRO_SERVICE_TOKEN``)
collects; ``run --fleet`` workers compute::

    # one deduplicated store and the lease table:
    python -m repro.experiments serve --listen 0.0.0.0:7919 --out central &
    # fleet workers on any machine lease cells from it:
    python -m repro.experiments run paper-claims --smoke --fleet host:7919
    python -m repro.experiments run scaling --fleet host:7919
    # fetch the rendered report straight off the server:
    python -m repro.experiments report --connect host:7919 --json report.json

``run`` appends to ``<out>/results.jsonl`` (default ``experiments/results``)
and is resumable: completed-and-verified cells are skipped by fingerprint,
so a crashed or interrupted sweep continues where it stopped.  ``report``
rebuilds the scaling tables and log-power fits from the store alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable

from repro.experiments.report import _format_n, build_report, render_json_tables
from repro.experiments.runner import SweepRunner, default_jobs
from repro.experiments.spec import ALGORITHMS, GENERATORS, SUITES, get_suite
from repro.experiments.store import (
    DEFAULT_OUT,
    CellResult,
    CorruptStoreError,
    ResultStore,
    merge_result_files,
)
from repro.experiments.shard import ShardSpec
from repro.obs import parse_exposition
from repro.service.client import ServiceClient, ServiceError
from repro.service.collector import DEFAULT_SOCKET, ResultCollector
from repro.service.leases import DEFAULT_HEARTBEAT_INTERVAL_S, FleetWorker
from repro.service.protocol import AUTH_TOKEN_ENV

__all__ = ["main", "build_parser"]


def _shard_spec(text: str) -> ShardSpec:
    try:
        return ShardSpec.parse(text)
    except ValueError as error:
        # Always carry the i/k format hint: ShardSpec's own range errors
        # ("shard index must be in [0, k)") do not repeat the syntax.
        raise argparse.ArgumentTypeError(
            f"{error} (expected i/k with 0 <= i < k, e.g. --shard 0/2)"
        ) from None


# argparse names the converter in its fallback "invalid ... value" error;
# the function's private name would leak into user-facing output.
_shard_spec.__name__ = "shard spec"


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("expected a positive integer, got 0")
    return value


def _int_list(parse: Callable[[str], int]) -> Callable[[str], tuple[int, ...]]:
    """A converter for a comma- or space-separated list of integers, each
    checked by ``parse``."""

    def parse_list(text: str) -> tuple[int, ...]:
        values = tuple(parse(part) for part in text.replace(",", " ").split())
        if not values:
            raise argparse.ArgumentTypeError("expected at least one integer")
        return values

    return parse_list


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative number, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = _nonnegative_float(text)
    if value == 0:
        raise argparse.ArgumentTypeError("expected a positive number, got 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="declarative experiment sweeps over the fast LOCAL engine",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "built-in suites:\n"
            "  paper-claims       the Theorem 3/12/15 transforms plus analytic "
            "shape cells\n"
            "  scaling            transforms and every direct baseline on "
            "growing random trees\n"
            "  stress             denser families: forest unions, planar, "
            "bounded degree\n"
            "  workloads          structured families: grids, caterpillars, "
            "spiders\n"
            "  lower-bound        the paper's regular-balanced-tree lower-bound "
            "instances\n"
            "  charged            transforms under OracleCostModel charging: "
            "report tables gain\n"
            "                     measured-vs-charged columns "
            "(rounds / charged_rounds) and the\n"
            "                     (log2 n)^beta fits run on either series\n"
            "  orientation-lists  sinkless orientation and the node/edge-list "
            "variants (Pi*/Pix)\n"
            "\n"
            "`run <suite>` appends one JSONL record per cell; `report` rebuilds "
            "the scaling\ntables (with a `<scenario> [charged]` column per "
            "charged scenario) and shape fits\nfrom the store alone.\n"
            "\n"
            "sweep server:\n"
            "  `serve` is the one server role, and it computes nothing: a "
            "deduplicated\n  store (`--out`; verified records outrank "
            "unverified ones, as in `merge`)\n  and the lease table, on one "
            "endpoint: `--listen host:port` is\n  token-authenticated TCP "
            f"(token from --token or {AUTH_TOKEN_ENV}),\n  any other "
            "`--listen` a Unix socket path, which needs no token (default\n  "
            f"{DEFAULT_SOCKET}).  `run <suite> --fleet` workers compute its"
            "\n  cells.  `report --connect ENDPOINT` serves the report over "
            "the whole\n  store, byte-identical to `report --json` on it."
            "\n\n"
            "elastic sweep fleet:\n"
            "  `run <suite> --fleet host:port` replaces the static shard "
            "split with a lease\n  loop: each worker registers the suite's "
            "cells with the server once and\n  leases one each time its "
            "pool pulls one, pushing every result back (a\n  stored record "
            "completes the cell's lease).  Workers on overlapping suites\n"
            "  share their common cells: each runs once.  A background "
            "heartbeat renews\n  a worker's leases; a "
            "worker that dies stops heartbeating, its leases expire\n  after "
            "the TTL (2x `serve --heartbeat-interval`) and the cells are\n  "
            "reassigned to the survivors — kill a worker mid-sweep and the "
            "suite still\n  finishes with no lost cells.  Workers added "
            "mid-run (or restarted after a\n  server restart, which answers "
            "unknown ids with `known: false`) simply\n  register and start "
            "leasing.  The server's metrics count workers alive and\n  lost "
            "(`fleet_workers`) and lease events by fate "
            "(`fleet_leases_total`),\n  with a lease-age histogram and a "
            "`lease-stuck` SLO (oldest active lease\n  vs 3x TTL).\n\n"
            "observability:\n"
            "  The server's `metrics` verb exports Prometheus text: per-verb "
            "request counts\n  and latency, auth failures, malformed lines, "
            "ingest fates, lease fates\n  and, for every "
            "stored record, `cell_phase_seconds`\n  "
            "(generate/run/network/verify/simulate, also in the record's "
            "nonsemantic\n  `timings`) and `engine_rounds_total`.\n  "
            "`metrics --connect host:port [--out f.prom]`\n  scrapes it; "
            "`scripts/slo_burn_check.py <scrape> [--store results.jsonl]`\n"
            "  evaluates the six SLOs over that one scrape (p99 verb "
            "latency, zero\n  dropped/malformed/unauthenticated, conflict "
            "rate, lease age) and, with\n  --store, checks "
            "that the store holds exactly the records\n  the server found "
            "at startup plus those it ingested.  `dashboard\n  --out DIR "
            "[--metrics f.prom] --html page.html` renders the report bundle\n"
            "  plus a saved scrape to one static HTML page (stat tiles, "
            "scaling/fit tables,\n  SLO verdicts) — CI uploads it as the "
            "`dashboard` artifact.  Counters are\n  cumulative since the "
            "server started: to see what changed over a stretch of\n  time, "
            "save a scrape before and after it and run `dashboard --diff\n"
            "  old.prom new.prom`.  It and `dashboard --diff-bench "
            "BENCH_engine.json\n  fresh.json [--max-regression 2.0]` render "
            "regression-highlighted diff pages\n  and exit 1 on regression "
            "— CI gates each PR's bench run against the\n  committed "
            "BENCH_engine.json trajectory and uploads the page as the\n"
            "  `bench-diff` artifact."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a suite's pending cells")
    run.add_argument("suite", help=f"suite name (one of: {', '.join(sorted(SUITES))})")
    run.add_argument(
        "--sizes", type=_int_list(_positive_int), default=None,
        help="override the size sweep of measured scenarios, e.g. --sizes 100,300",
    )
    run.add_argument(
        "--seeds", type=_int_list(_nonnegative_int), default=None,
        help="override the seed list of measured scenarios, e.g. --seeds 1,2,3",
    )
    run.add_argument(
        "--smoke", action="store_true",
        help="CI-size sweep: smoke sizes, first seed only (analytic cells unchanged)",
    )
    run.add_argument(
        "--shard", type=_shard_spec, default=None, metavar="I/K",
        help="run only shard i of k (deterministic disjoint fingerprint "
        "partition), e.g. --shard 0/2",
    )
    run.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes (default: min(cpu count, 8))",
    )
    run.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"result-store directory (default: {DEFAULT_OUT})",
    )
    run.add_argument(
        "--fleet", default=None, metavar="ENDPOINT",
        help="elastic fleet mode: lease cells under heartbeat-renewed leases "
        "from a sweep server (host:port or Unix socket path), one each time "
        "the pool pulls one, instead of computing a static shard, and push "
        "every result back; incompatible with --shard",
    )
    run.add_argument(
        "--token", default=None,
        help=f"shared auth token for a TCP --fleet (default: ${AUTH_TOKEN_ENV})",
    )
    run.add_argument("--quiet", action="store_true", help="no per-cell progress lines")

    sub.add_parser("list", help="list suites, generators and algorithms")

    merge = sub.add_parser(
        "merge", help="union sharded JSONL result files into one store"
    )
    merge.add_argument(
        "inputs", nargs="+",
        help="JSONL result files to merge (e.g. shards/*/results.jsonl)",
    )
    merge.add_argument(
        "--out", default=f"{DEFAULT_OUT}/results.jsonl",
        help="merged JSONL output path; an existing file is treated as a "
        f"first input (default: {DEFAULT_OUT}/results.jsonl)",
    )

    serve = sub.add_parser(
        "serve", help="run the sweep server: one deduplicated store and the "
        "lease table that `run --fleet` workers compute for",
    )
    serve.add_argument(
        "--listen", default=DEFAULT_SOCKET, metavar="ENDPOINT",
        help="the one endpoint to serve on: host:port is token-authenticated "
        "TCP for cross-machine clients (e.g. 0.0.0.0:7919), anything else a "
        f"Unix socket path (default: {DEFAULT_SOCKET})",
    )
    serve.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"deduplicated result-store directory (default: {DEFAULT_OUT})",
    )
    serve.add_argument(
        "--token", default=None,
        help=f"shared auth token for a TCP --listen (default: ${AUTH_TOKEN_ENV})",
    )
    serve.add_argument(
        "--heartbeat-interval", type=_positive_float,
        default=DEFAULT_HEARTBEAT_INTERVAL_S, metavar="SECONDS",
        help="fleet cadence handed to `run --fleet` workers at registration; "
        "a lease survives two intervals without a heartbeat "
        f"(default: {DEFAULT_HEARTBEAT_INTERVAL_S:g})",
    )

    report = sub.add_parser(
        "report", help="rebuild scaling tables and shape fits from stored results"
    )
    report.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"result-store directory to read (default: {DEFAULT_OUT})",
    )
    report.add_argument(
        "--suite", default=None,
        help="only report records of this suite (default: all records)",
    )
    report.add_argument(
        "--connect", default=None, metavar="ENDPOINT",
        help="fetch the rendered bundle over a sweep server's whole store "
        "(host:port or Unix socket path) instead of reading a local store",
    )
    report.add_argument(
        "--token", default=None,
        help=f"shared auth token for a TCP --connect (default: ${AUTH_TOKEN_ENV})",
    )
    report.add_argument("--json", default=None, help="also write the tables as JSON")
    report.add_argument("--csv", default=None, help="also write the scaling table as CSV")

    metrics = sub.add_parser(
        "metrics", help="scrape a sweep server's Prometheus-text metrics"
    )
    metrics.add_argument(
        "--connect", required=True, metavar="ENDPOINT",
        help="service endpoint to scrape (host:port or Unix socket path)",
    )
    metrics.add_argument(
        "--token", default=None,
        help=f"shared auth token for a TCP --connect (default: ${AUTH_TOKEN_ENV})",
    )
    metrics.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the exposition to FILE instead of stdout",
    )

    dashboard = sub.add_parser(
        "dashboard", help="render the report bundle and/or a metrics scrape "
        "to a static HTML page",
    )
    dashboard.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"result-store directory to report on (default: {DEFAULT_OUT}); "
        "pass --no-report to skip the store entirely",
    )
    dashboard.add_argument(
        "--no-report", action="store_true",
        help="render metrics only, without reading any result store",
    )
    dashboard.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="a saved Prometheus-text scrape to include (from `metrics --out`)",
    )
    dashboard.add_argument(
        "--html", default="dashboard.html", metavar="PATH",
        help="output HTML path (default: dashboard.html)",
    )
    dashboard.add_argument(
        "--title", default=None,
        help="page title (default: per-mode)",
    )
    dashboard.add_argument(
        "--diff", nargs=2, default=None, metavar=("A.prom", "B.prom"),
        help="render a metrics diff page between two saved scrapes instead "
        "of a dashboard; exits 1 when a regression is highlighted",
    )
    dashboard.add_argument(
        "--diff-bench", nargs=2, default=None, metavar=("OLD.json", "NEW.json"),
        help="render a bench trajectory diff page between two bench JSON "
        "payloads; exits 1 when a gated entry regresses past --max-regression",
    )
    dashboard.add_argument(
        "--max-regression", type=_nonnegative_float, default=2.0,
        metavar="FACTOR",
        help="--diff-bench: wall-clock ratio above which an entry is a "
        "regression (default: 2.0)",
    )
    return parser


def _make_client(endpoint: str, token: str | None) -> "ServiceClient | int":
    """A ServiceClient, or exit code 2 after reporting a bad endpoint."""
    try:
        return ServiceClient(endpoint, token=token)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        suite = get_suite(args.suite)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.fleet is not None and args.shard is not None:
        print(
            "--fleet replaces static sharding: drop --shard (the fleet "
            "server hands out every cell)",
            file=sys.stderr,
        )
        return 2
    store = ResultStore(args.out)
    jobs = args.jobs if args.jobs is not None else default_jobs()

    def progress(result: CellResult) -> None:
        status = "ok" if result.verified else "VERIFY-FAILED"
        rounds = (
            f"{result.rounds:.1f}" if isinstance(result.rounds, float) else result.rounds
        )
        charged = (
            f" charged={result.charged_rounds:g}"
            if result.charged_rounds is not None
            else ""
        )
        print(
            f"  [{result.fingerprint}] {result.scenario} n={result.n} "
            f"seed={result.seed} rounds={rounds}{charged} "
            f"wall={result.wall_clock_s:.3f}s {status}"
        )

    if args.fleet is not None:
        worker = FleetWorker(
            suite, store, args.fleet, token=args.token, jobs=jobs,
            smoke=args.smoke, sizes=args.sizes, seeds=args.seeds,
            progress=None if args.quiet else progress,
        )
        print(f"suite {suite.name!r} [fleet {args.fleet}]: {suite.description}")
        try:
            report = worker.run()
        except (ServiceError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
        print(
            f"cells: {report.total_cells} total, {report.skipped} ran "
            f"elsewhere or were already stored, {report.executed} executed, "
            f"{len(report.failures)} failed, {report.unverified} unverified  "
            f"({report.wall_clock_s:.1f}s, jobs={jobs})"
        )
        print(f"store: {store.path}")
        print(
            f"pushed {worker.pushed} record(s) to fleet {args.fleet} "
            f"as {worker.worker_id}"
        )
        for failure in report.failures:
            print(
                f"FAILED cell {failure.cell.scenario} n={failure.cell.n} "
                f"seed={failure.cell.seed}: {failure.error} "
                f"(released back to the fleet)",
                file=sys.stderr,
            )
        return 0 if report.ok else 1

    shard_note = f" [shard {args.shard}]" if args.shard is not None else ""
    print(f"suite {suite.name!r}{shard_note}: {suite.description}")
    report = SweepRunner(
        suite, store, jobs=jobs, smoke=args.smoke, sizes=args.sizes,
        seeds=args.seeds, shard=args.shard,
    ).run(progress=None if args.quiet else progress)
    print(
        f"cells: {report.total_cells} total, {report.skipped} already stored, "
        f"{report.executed} executed, {len(report.failures)} failed, "
        f"{report.unverified} unverified  "
        f"({report.wall_clock_s:.1f}s, jobs={jobs})"
    )
    print(f"store: {store.path}")
    for failure in report.failures:
        print(
            f"FAILED cell {failure.cell.scenario} n={failure.cell.n} "
            f"seed={failure.cell.seed}: {failure.error}",
            file=sys.stderr,
        )
    return 0 if report.ok else 1


def _cmd_list() -> int:
    print("suites:")
    for name in sorted(SUITES):
        suite = SUITES[name]
        print(f"  {name}: {suite.description}")
        for scenario in suite.scenarios:
            sizes = ", ".join(_format_n(n) for n in scenario.sizes)
            print(
                f"    {scenario.name}  [{scenario.generator} × {scenario.algorithm}]"
                f"  sizes: {sizes}  seeds: {len(scenario.seeds)}"
            )
    print("\ngenerator families:")
    for name in sorted(GENERATORS):
        print(f"  {name}: {GENERATORS[name].description}")
    print("\nalgorithm families:")
    for name in sorted(ALGORITHMS):
        family = ALGORITHMS[name]
        print(f"  {name} ({family.kind}): {family.description}")
    return 0


def _cmd_report_remote(args: argparse.Namespace) -> int:
    """``report --connect``: fetch the server-side bundle over the wire."""
    if args.suite is not None:
        # The report verb has no suite filter; silently returning the
        # full bundle would misreport what the user asked for.
        print("--suite cannot be combined with --connect", file=sys.stderr)
        return 2
    client = _make_client(args.connect, args.token)
    if isinstance(client, int):
        return client
    try:
        payload = client.report()
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(payload["render"])
    if args.json:
        Path(args.json).write_text(payload["json"], encoding="utf-8")
        print(f"wrote {args.json}")
    if args.csv:
        Path(args.csv).write_text(payload["csv"], encoding="utf-8")
        print(f"wrote {args.csv}")
    return 0 if payload["all_verified"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    if args.connect is not None:
        return _cmd_report_remote(args)
    store = ResultStore(args.out)
    records = store.records()
    if args.suite is not None:
        try:
            suite = get_suite(args.suite)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        # Cells are deduplicated across suites by fingerprint, so a record
        # may carry the name of whichever suite ran it first; match the
        # requested suite's cell fingerprints (full and smoke sweeps) too,
        # not just the label.
        fingerprints = {cell.fingerprint for cell in suite.cells()}
        fingerprints.update(cell.fingerprint for cell in suite.cells(smoke=True))
        records = [
            record for record in records
            if record["suite"] == args.suite or record["fingerprint"] in fingerprints
        ]
    if not records:
        print(f"no stored results under {store.path}", file=sys.stderr)
        return 2
    bundle = build_report(records)
    print(bundle.render())
    if args.json:
        Path(args.json).write_text(render_json_tables(bundle), encoding="utf-8")
        print(f"wrote {args.json}")
    if args.csv:
        Path(args.csv).write_text(bundle.scaling.to_csv(), encoding="utf-8")
        print(f"wrote {args.csv}")
    return 0 if bundle.all_verified else 1


def _cmd_merge(args: argparse.Namespace) -> int:
    report = merge_result_files(args.inputs, args.out)
    for path in report.missing:
        print(f"missing input (skipped): {path}", file=sys.stderr)
    if report.records_read == 0:
        print(
            "no input file contributed any records; nothing written",
            file=sys.stderr,
        )
        return 2
    print(
        f"merged {report.records_read} records from "
        f"{len(report.inputs) - len(report.missing)} file(s) into {report.output}: "
        f"{report.merged} cells, {report.duplicates} duplicates, "
        f"{len(report.conflicts)} conflicts"
    )
    for conflict in report.conflicts:
        print(f"CONFLICT {conflict.describe()}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        server = ResultCollector(
            out=args.out, listen=args.listen, token=args.token,
            heartbeat_interval_s=args.heartbeat_interval,
        )
        server.start()
    except (ValueError, RuntimeError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 2
    auth = " (token-authenticated)" if server.endpoint.is_tcp else ""
    print(f"sweep server: {server.endpoint}{auth}")
    print(f"store: {server.store.path}")
    print(
        f"fleet: heartbeat every {server.leases.heartbeat_interval_s:g}s, "
        f"lease TTL {server.leases.lease_ttl_s:g}s"
    )
    print(
        "verbs: status / push / report / metrics / register / heartbeat / "
        "lease / shutdown  (ctrl-c also stops)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    print(
        f"sweep server stopped: {server.accepted} accepted, "
        f"{server.dropped} dropped, {server.conflicts} conflicts"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    client = _make_client(args.connect, args.token)
    if isinstance(client, int):
        return client
    try:
        text = client.metrics()
    except ServiceError as error:
        print(
            f"metrics scrape from {args.connect} failed: {error}",
            file=sys.stderr,
        )
        return 2
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ValueError(str(error)) from None
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from None


def _read_scrape(path: str) -> str:
    """A saved scrape's text; ``ValueError`` when it is unreadable or does
    not parse as Prometheus text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise ValueError(str(error)) from None
    try:
        parse_exposition(text)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    return text


def _write_html(args: argparse.Namespace, html: str) -> None:
    out_path = Path(args.html)
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(html, encoding="utf-8")
    print(f"wrote {out_path}")


def _cmd_dashboard_diff(args: argparse.Namespace) -> int:
    """``dashboard --diff`` / ``--diff-bench``: regression-highlighted pages."""
    from repro.obs.dashboard import (
        diff_bench_payloads,
        render_bench_diff,
        render_metrics_diff,
    )

    title_kwargs = {} if args.title is None else {"title": args.title}
    if args.diff is not None:
        path_a, path_b = args.diff
        try:
            text_a, text_b = _read_scrape(path_a), _read_scrape(path_b)
        except ValueError as error:
            # Bad input is exit 2, never 1: that means "regressions found".
            print(str(error), file=sys.stderr)
            return 2
        html, regressions = render_metrics_diff(
            text_a, text_b, label_a=path_a, label_b=path_b, **title_kwargs
        )
        _write_html(args, html)
        for regression in regressions:
            print(f"REGRESSION: {regression}")
        if not regressions:
            print("no regressions between the two scrapes")
        return 1 if regressions else 0
    path_old, path_new = args.diff_bench
    try:
        diff = diff_bench_payloads(
            _read_json(path_old), _read_json(path_new),
            max_regression=args.max_regression,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    html = render_bench_diff(
        diff, label_old=path_old, label_new=path_new, **title_kwargs
    )
    _write_html(args, html)
    for row in diff.regressions:
        print(
            f"REGRESSION {row.scenario} [{row.engine}] n={row.n}: "
            f"{row.old_wall_s:.3f}s -> {row.new_wall_s:.3f}s "
            f"({row.ratio:.2f}x > {args.max_regression:g}x)"
        )
    if not diff.regressions:
        print(
            f"no gated regression beyond {args.max_regression:g}x across "
            f"{len(diff.rows)} compared entries"
        )
    return 1 if diff.regressions else 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    # Imported here, not at module top: the dashboard is presentation
    # and nothing else in the CLI should pay for it.
    if args.diff is not None and args.diff_bench is not None:
        print("--diff and --diff-bench are mutually exclusive", file=sys.stderr)
        return 2
    if args.diff is not None or args.diff_bench is not None:
        return _cmd_dashboard_diff(args)

    from repro.obs.dashboard import render_dashboard

    metrics_text = None
    if args.metrics is not None:
        try:
            metrics_text = _read_scrape(args.metrics)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
    bundle = None
    if not args.no_report:
        records = ResultStore(args.out).records()
        if records:
            bundle = build_report(records)
        elif metrics_text is None:
            print(
                f"no stored results under {ResultStore(args.out).path} and no "
                "metrics source — nothing to render "
                "(pass --metrics or run a suite first)",
                file=sys.stderr,
            )
            return 2
    title_kwargs = {} if args.title is None else {"title": args.title}
    html = render_dashboard(
        bundle=bundle, metrics_text=metrics_text, **title_kwargs
    )
    _write_html(args, html)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "run": _cmd_run, "list": lambda _: _cmd_list(), "merge": _cmd_merge,
        "serve": _cmd_serve, "metrics": _cmd_metrics,
        "dashboard": _cmd_dashboard, "report": _cmd_report,
    }
    try:
        return commands[args.command](args)
    except CorruptStoreError as error:
        # Exit 1 means failed or conflicting cells; an unreadable store
        # is bad input, like any other.
        print(str(error), file=sys.stderr)
        return 2
