"""Command-line interface: ``python -m repro.experiments
<run|list|report|merge|serve|submit|collect|metrics|dashboard>``.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run paper-claims --jobs 4
    python -m repro.experiments run paper-claims --jobs 4      # skips all cells
    python -m repro.experiments run scaling --sizes 100,300 --seeds 1
    python -m repro.experiments report
    python -m repro.experiments report --json report.json --csv report.csv

Distributed sharding and the sweep service::

    # machine A                                  # machine B
    python -m repro.experiments run scaling \\
        --shard 0/2 --out shards/a               ... --shard 1/2 --out shards/b
    # then anywhere:
    python -m repro.experiments merge --out experiments/results/results.jsonl \\
        shards/a/results.jsonl shards/b/results.jsonl
    python -m repro.experiments report

    # long-lived worker pool serving many clients:
    python -m repro.experiments serve --workers 4 &
    python -m repro.experiments submit paper-claims --smoke --wait

Cross-machine streaming (TCP, token-authenticated via
``REPRO_SERVICE_TOKEN``)::

    # collector machine:
    python -m repro.experiments collect --listen 0.0.0.0:7919 --out central
    # shard workers, each streaming every completed cell live:
    python -m repro.experiments run scaling --shard 0/2 --collector host:7919
    python -m repro.experiments run scaling --shard 1/2 --collector host:7919
    # fetch the rendered report straight off the collector:
    python -m repro.experiments report --connect host:7919 --json report.json

``run`` appends to ``<out>/results.jsonl`` (default ``experiments/results``)
and is resumable: completed-and-verified cells are skipped by fingerprint,
so a crashed or interrupted sweep continues where it stopped.  ``report``
rebuilds the scaling tables and log-power fits from the store alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.report import _format_n, build_report, render_json_tables
from repro.experiments.runner import SweepRunner, default_jobs
from repro.experiments.spec import ALGORITHMS, GENERATORS, SUITES, get_suite
from repro.experiments.store import (
    DEFAULT_OUT,
    CellResult,
    ResultStore,
    merge_result_files,
)
from repro.experiments.shard import ShardSpec
from repro.obs.metrics import parse_exposition_types
from repro.obs.timeseries import (
    DEFAULT_SCRAPE_INTERVAL_S,
    ScrapePoint,
    load_history_jsonl,
    parse_duration,
    points_from_payload,
    points_in_window,
    windowed_quantile,
)
from repro.service.client import CollectorSink, ServiceClient, ServiceError
from repro.service.collector import ResultCollector
from repro.service.daemon import DEFAULT_SOCKET, SweepDaemon
from repro.service.leases import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    DEFAULT_LEASE_BATCH,
    FleetWorker,
)
from repro.service.protocol import AUTH_TOKEN_ENV

__all__ = ["main", "build_parser"]


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _duration(text: str) -> float:
    try:
        return parse_duration(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


_duration.__name__ = "duration"


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
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
            "engine selection (`run`/`submit --engine`):\n"
            "  auto         (default) the kernel-capable baselines (Linial, "
            "Cole–Vishkin\n               forest 3-colouring, colour-class "
            "MIS, Δ+1 colour reduction) run\n               on the NumPy "
            "array engine, everything else on the interpreted\n"
            "               active-set engine\n"
            "  interpreted  force the interpreted engine everywhere\n"
            "  vectorized   require the array engine for kernel-capable "
            "families (fails if\n               numpy is unavailable)\n"
            "  A family-declared engine pin degrades to the interpreted "
            "engine on a\n  numpy-free interpreter.  The decomposition peels "
            "are plain Python under\n  every mode.  Results are "
            "bit-identical across engines; each stored cell\n  records what "
            "served it in its `engine` field (e.g. `vectorized[numpy]`) "
            "plus\n  per-kernel simulator round counts in `engine_rounds`, "
            "surfaced by `report`.\n"
            "\n"
            "cross-machine transport:\n"
            "  `serve --listen host:port` adds a token-authenticated TCP "
            "listener next to the\n  Unix socket, and `collect --listen "
            "host:port` runs a result collector: shard\n  workers started with "
            "`run <suite> --shard i/k --collector host:port` stream each\n"
            "  completed cell record live into the collector's deduplicated "
            "store (verified\n  records outrank unverified ones, same policy "
            "as `merge`).  TCP requires a\n  shared token from --token or the "
            f"{AUTH_TOKEN_ENV} environment variable; Unix\n  sockets need "
            "none.  `report --connect host:port [--job job-N]` fetches the\n"
            "  server-side `report` verb: the rendered bundle for a collector "
            "store or a\n  finished daemon job, byte-identical to a local "
            "`report --json` on that store.\n"
            "\n"
            "elastic sweep fleet:\n"
            "  `run <suite> --fleet host:port` replaces the static shard "
            "split with a lease\n  loop: each worker registers with the "
            "collector, offers the suite's fingerprint\n  universe and pulls "
            "batches of leased cells (`--lease-batch`), streaming every\n  "
            "result back over the same `push` path (a push completes the "
            "cell's lease).\n  A background heartbeat renews a worker's "
            "leases; a worker that dies stops\n  heartbeating, its leases "
            "expire after the TTL (`collect --lease-ttl`, default\n  2x "
            "`--heartbeat-interval`) and the cells are reassigned to the "
            "survivors — kill\n  a worker mid-sweep and the suite still "
            "finishes with no lost cells.  Workers\n  added mid-run (or "
            "restarted after a collector restart, which answers unknown\n  "
            "ids with `known: false`) simply register and start pulling.  "
            "`fleet_status`\n  reports workers alive/lost, active leases and "
            "lease fates; the collector's\n  metrics gain `fleet_workers`, "
            "`fleet_leases_total{fate}` and a lease-age\n  histogram, plus a "
            "`lease-stuck` SLO (oldest active lease vs 3x TTL).\n"
            "\n"
            "observability:\n"
            "  Both services export an in-process metrics registry over a "
            "`metrics` verb as\n  Prometheus text: per-verb request counts and "
            "latency histograms, auth failures,\n  malformed lines, queue "
            "depth, jobs by state, cells/sec, ingest fates and\n  per-cell "
            "phase timings (generate/run/verify/simulate — also stored "
            "per record\n  in a nonsemantic `timings` field).  `metrics "
            "--connect host:port [--out f.prom]`\n  scrapes either service; "
            "`scripts/slo_burn_check.py <scrape>` evaluates the SLOs\n  "
            "(p99 verb latency, zero dropped/malformed/unauthenticated, "
            "conflict rate).\n  `dashboard --out DIR [--metrics f.prom | "
            "--connect host:port] --html page.html`\n  renders the report "
            "bundle plus a scrape to one static HTML page (stat tiles,\n  "
            "scaling/fit tables, SLO verdicts) — CI uploads it as the "
            "`dashboard` artifact.\n"
            "\n"
            "time-series telemetry:\n"
            "  Each service retains a ring buffer of metric scrapes "
            "(snapshotted every\n  `--scrape-interval` seconds; 0 disables; "
            "`--history-spill FILE` mirrors each\n  snapshot to JSONL) and "
            "serves it over a `metrics_history` verb on both\n  transports.  "
            "`metrics --connect host:port --history [--window 5m] "
            "[--out h.jsonl]`\n  prints windowed counter rates, gauge deltas "
            "and histogram quantiles, or saves\n  the raw points as JSONL.  "
            "`scripts/slo_burn_check.py --history h.jsonl\n  [--window 5m]` "
            "evaluates dual-window (fast/slow) SLO burn rates — exit 1 means\n"
            "  burning, 3 means no data.  `dashboard --history h.jsonl` adds "
            "sparkline trend\n  rows and the dual-window burn table "
            "(`--connect` fetches the live history\n  automatically).  "
            "`dashboard --diff old.prom new.prom` and `dashboard\n  "
            "--diff-bench BENCH_engine.json fresh.json [--max-regression 2.0]` "
            "render\n  regression-highlighted diff pages and exit 1 on "
            "regression — CI gates each PR's\n  bench run against the "
            "committed BENCH_engine.json trajectory and uploads the\n  page "
            "as the `bench-diff` artifact."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Sweep-shaping options shared verbatim by `run` and `submit`.
    sweep_options = argparse.ArgumentParser(add_help=False)
    sweep_options.add_argument(
        "--sizes", type=_int_list, default=None,
        help="override the size sweep of measured scenarios, e.g. --sizes 100,300",
    )
    sweep_options.add_argument(
        "--seeds", type=_int_list, default=None,
        help="override the seed list of measured scenarios, e.g. --seeds 1,2,3",
    )
    sweep_options.add_argument(
        "--smoke", action="store_true",
        help="CI-size sweep: smoke sizes, first seed only (analytic cells unchanged)",
    )
    sweep_options.add_argument(
        "--shard", type=_shard_spec, default=None, metavar="I/K",
        help="run only shard i of k (deterministic disjoint fingerprint "
        "partition), e.g. --shard 0/2",
    )
    sweep_options.add_argument(
        "--engine", choices=("auto", "interpreted", "vectorized"), default="auto",
        help="simulation engine for measured cells (default: auto — the "
        "vectorized array engine wherever a kernel exists, interpreted "
        "otherwise)",
    )

    run = sub.add_parser(
        "run", help="run a suite's pending cells", parents=[sweep_options]
    )
    run.add_argument("suite", help=f"suite name (one of: {', '.join(sorted(SUITES))})")
    run.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes (default: min(cpu count, 8))",
    )
    run.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"result-store directory (default: {DEFAULT_OUT})",
    )
    run.add_argument(
        "--collector", default=None, metavar="ENDPOINT",
        help="also stream each completed cell record to a result collector "
        "(host:port or a Unix socket path); the local store is still written",
    )
    run.add_argument(
        "--fleet", default=None, metavar="ENDPOINT",
        help="elastic fleet mode: pull heartbeat-renewed lease batches from "
        "a collector (host:port or Unix socket path) instead of computing a "
        "static shard, and stream every result back; incompatible with "
        "--shard and --collector",
    )
    run.add_argument(
        "--lease-batch", type=_positive_int, default=DEFAULT_LEASE_BATCH,
        metavar="N",
        help="with --fleet: cells requested per lease grant "
        f"(default: {DEFAULT_LEASE_BATCH})",
    )
    run.add_argument(
        "--worker-name", default=None, metavar="NAME",
        help="with --fleet: the name this worker registers under "
        "(default: hostname-pid)",
    )
    run.add_argument(
        "--token", default=None,
        help=f"shared auth token for a TCP --collector (default: ${AUTH_TOKEN_ENV})",
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
        "serve", help="run the sweep daemon: submitted sweeps run one at a "
        "time on one warm worker pool behind a local socket",
    )
    serve.add_argument(
        "--socket", default=DEFAULT_SOCKET,
        help=f"Unix socket path to listen on (default: {DEFAULT_SOCKET})",
    )
    serve.add_argument(
        "--workers", type=_positive_int, default=None,
        help="warm worker processes (default: min(cpu count, 8))",
    )
    serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="also listen on TCP (token-authenticated) for cross-machine "
        "clients, e.g. --listen 0.0.0.0:7919",
    )
    serve.add_argument(
        "--token", default=None,
        help=f"shared auth token for the TCP listener (default: ${AUTH_TOKEN_ENV})",
    )
    serve.add_argument(
        "--scrape-interval", type=_nonnegative_float,
        default=DEFAULT_SCRAPE_INTERVAL_S, metavar="SECONDS",
        help="seconds between metrics-history snapshots served by the "
        "metrics_history verb (0 disables the background scraper; "
        f"default: {DEFAULT_SCRAPE_INTERVAL_S:g})",
    )
    serve.add_argument(
        "--history-spill", default=None, metavar="FILE",
        help="append each history snapshot to FILE as JSONL (readable by "
        "`dashboard --history` and `scripts/slo_burn_check.py --history`)",
    )

    collect = sub.add_parser(
        "collect", help="run a result collector: stream sharded sweep results "
        "into one deduplicated store",
    )
    collect.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="TCP address to collect on (token-authenticated), "
        "e.g. --listen 0.0.0.0:7919",
    )
    collect.add_argument(
        "--socket", default=None,
        help="Unix socket path to collect on (no token needed)",
    )
    collect.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"deduplicated result-store directory (default: {DEFAULT_OUT})",
    )
    collect.add_argument(
        "--token", default=None,
        help=f"shared auth token for the TCP listener (default: ${AUTH_TOKEN_ENV})",
    )
    collect.add_argument(
        "--scrape-interval", type=_nonnegative_float,
        default=DEFAULT_SCRAPE_INTERVAL_S, metavar="SECONDS",
        help="seconds between metrics-history snapshots served by the "
        "metrics_history verb (0 disables the background scraper; "
        f"default: {DEFAULT_SCRAPE_INTERVAL_S:g})",
    )
    collect.add_argument(
        "--history-spill", default=None, metavar="FILE",
        help="append each history snapshot to FILE as JSONL (readable by "
        "`dashboard --history` and `scripts/slo_burn_check.py --history`)",
    )
    collect.add_argument(
        "--heartbeat-interval", type=_positive_float,
        default=DEFAULT_HEARTBEAT_INTERVAL_S, metavar="SECONDS",
        help="fleet cadence handed to `run --fleet` workers at registration "
        f"(default: {DEFAULT_HEARTBEAT_INTERVAL_S:g})",
    )
    collect.add_argument(
        "--lease-ttl", type=_positive_float, default=None, metavar="SECONDS",
        help="seconds a lease survives without a heartbeat before its cells "
        "are reassigned (default: 2x the heartbeat interval)",
    )

    submit = sub.add_parser(
        "submit", help="submit a sweep job to a running daemon",
        parents=[sweep_options],
    )
    submit.add_argument("suite", help="suite name to run")
    submit.add_argument(
        "--socket", default=DEFAULT_SOCKET,
        help="daemon endpoint: Unix socket path or host:port "
        f"(default: {DEFAULT_SOCKET})",
    )
    submit.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"result-store directory on the daemon side (default: {DEFAULT_OUT})",
    )
    submit.add_argument(
        "--collector", default=None, metavar="ENDPOINT",
        help="have the daemon stream the job's records to this result "
        "collector as well",
    )
    submit.add_argument(
        "--token", default=None,
        help=f"shared auth token for a TCP daemon (default: ${AUTH_TOKEN_ENV})",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its summary",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait timeout in seconds (default: 600)",
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
        help="fetch the rendered bundle from a collector or daemon "
        "(host:port or Unix socket path) instead of reading a local store",
    )
    report.add_argument(
        "--job", default=None,
        help="with --connect against a daemon: the finished job to report on",
    )
    report.add_argument(
        "--token", default=None,
        help=f"shared auth token for a TCP --connect (default: ${AUTH_TOKEN_ENV})",
    )
    report.add_argument("--json", default=None, help="also write the tables as JSON")
    report.add_argument("--csv", default=None, help="also write the scaling table as CSV")

    metrics = sub.add_parser(
        "metrics", help="scrape a daemon or collector's Prometheus-text metrics"
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
        help="write the exposition (or, with --history, the history points "
        "as JSONL) to FILE instead of stdout",
    )
    metrics.add_argument(
        "--history", action="store_true",
        help="fetch the retained scrape history (metrics_history verb) "
        "instead of one exposition: prints windowed counter rates, gauge "
        "deltas and histogram quantiles, or writes the raw points as JSONL "
        "with --out",
    )
    metrics.add_argument(
        "--window", type=_duration, default=None, metavar="DURATION",
        help="with --history: only points from the trailing window, "
        "e.g. 5m, 90s, 1h (default: everything retained)",
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
        "--connect", default=None, metavar="ENDPOINT",
        help="scrape a live daemon/collector for the metrics section instead "
        "of --metrics",
    )
    dashboard.add_argument(
        "--token", default=None,
        help=f"shared auth token for a TCP --connect (default: ${AUTH_TOKEN_ENV})",
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
        "--history", default=None, metavar="FILE",
        help="a scrape-history JSONL file (from `metrics --history --out` or "
        "a `--history-spill`) to render as sparkline trends plus the "
        "dual-window SLO burn table",
    )
    dashboard.add_argument(
        "--window", type=_duration, default=None, metavar="DURATION",
        help="with --history/--connect: restrict the history to the "
        "trailing window, e.g. 5m",
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
    dashboard.add_argument(
        "--min-wall", type=_nonnegative_float, default=0.05, metavar="SECONDS",
        help="--diff-bench: entries with either wall clock below this noise "
        "floor are reported but never gate (default: 0.05)",
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
    if args.fleet is not None and (
        args.shard is not None or args.collector is not None
    ):
        print(
            "--fleet replaces static sharding and streaming: drop --shard "
            "and --collector (the fleet endpoint receives every result)",
            file=sys.stderr,
        )
        return 2
    store = ResultStore(args.out)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    sink = None
    if args.collector is not None:
        client = _make_client(args.collector, args.token)
        if isinstance(client, int):
            return client
        sink = CollectorSink(client)
    runner = SweepRunner(
        suite, store, jobs=jobs, smoke=args.smoke, sizes=args.sizes,
        seeds=args.seeds, shard=args.shard, sinks=(sink,) if sink else (),
        engine=args.engine,
    )

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
            engine=args.engine, lease_batch=args.lease_batch,
            name=args.worker_name,
            progress=None if args.quiet else progress,
        )
        print(
            f"suite {suite.name!r} [fleet {args.fleet} as {worker.name}]: "
            f"{suite.description}"
        )
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
        print(f"pushed {worker.pushed} record(s) to fleet {args.fleet}")
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
    try:
        report = runner.run(progress=None if args.quiet else progress)
    finally:
        if sink is not None:
            sink.close()
    print(
        f"cells: {report.total_cells} total, {report.skipped} already stored, "
        f"{report.executed} executed, {len(report.failures)} failed, "
        f"{report.unverified} unverified  "
        f"({report.wall_clock_s:.1f}s, jobs={jobs})"
    )
    print(f"store: {store.path}")
    if sink is not None:
        print(f"streamed {sink.pushed} record(s) to collector {args.collector}")
    if report.sink_error is not None:
        print(
            f"COLLECTOR STREAM FAILED after {sink.pushed} record(s): "
            f"{report.sink_error} — the local store is complete; merge it "
            f"into the collector store to recover",
            file=sys.stderr,
        )
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
        payload = client.report(job=args.job)
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
    if args.job is not None:
        print("--job only makes sense with --connect", file=sys.stderr)
        return 2
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
        daemon = SweepDaemon(
            socket_path=args.socket, workers=args.workers,
            listen=args.listen, token=args.token,
            scrape_interval_s=args.scrape_interval,
            history_spill=args.history_spill,
        )
        daemon.start()
    except (ValueError, RuntimeError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"sweep daemon: socket={args.socket} workers={daemon.pool.workers}")
    if daemon.tcp_address is not None:
        host, port = daemon.tcp_address
        print(f"TCP listener: {host}:{port} (token-authenticated)")
    print(
        "verbs: submit / status / results / report / metrics / "
        "metrics_history / shutdown  (ctrl-c also stops)"
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.close()
    print("sweep daemon stopped")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    try:
        collector = ResultCollector(
            out=args.out, listen=args.listen, socket_path=args.socket,
            token=args.token, scrape_interval_s=args.scrape_interval,
            history_spill=args.history_spill,
            heartbeat_interval_s=args.heartbeat_interval,
            lease_ttl_s=args.lease_ttl,
        )
        collector.start()
    except (ValueError, RuntimeError, OSError) as error:
        print(str(error), file=sys.stderr)
        return 2
    endpoints = []
    if collector.tcp_address is not None:
        host, port = collector.tcp_address
        endpoints.append(f"{host}:{port} (TCP, token-authenticated)")
    if args.socket is not None:
        endpoints.append(str(args.socket))
    print(f"result collector: {' and '.join(endpoints)}")
    print(f"store: {collector.store.path}")
    print(
        "verbs: push / status / report / metrics / metrics_history / "
        "register / heartbeat / lease / fleet_status / shutdown  "
        "(ctrl-c also stops)"
    )
    print(
        f"fleet: heartbeat every {collector.leases.heartbeat_interval_s:g}s, "
        f"lease TTL {collector.leases.lease_ttl_s:g}s"
    )
    try:
        collector.serve_forever()
    except KeyboardInterrupt:
        collector.close()
    print(
        f"collector stopped: {collector.accepted} accepted, "
        f"{collector.dropped} dropped, {collector.conflicts} conflicts"
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _make_client(args.socket, args.token)
    if isinstance(client, int):
        return client
    try:
        job_id = client.submit(
            args.suite,
            smoke=args.smoke,
            sizes=args.sizes,
            seeds=args.seeds,
            shard=str(args.shard) if args.shard is not None else None,
            out=args.out,
            collector=args.collector,
            engine=args.engine,
        )
        print(f"submitted {args.suite!r} as {job_id}")
        if not args.wait:
            return 0
        status = client.wait(job_id, timeout=args.timeout)
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(
        f"{job_id} {status['state']}: {status['total_cells']} cells, "
        f"{status['skipped']} already stored, {status['executed']} executed, "
        f"{len(status['failures'])} failed, {status['unverified']} unverified"
    )
    if status["error"]:
        print(f"job error: {status['error']}", file=sys.stderr)
    if status.get("sink_error"):
        print(
            f"collector stream failed: {status['sink_error']}", file=sys.stderr
        )
    for failure in status["failures"]:
        print(
            f"FAILED cell {failure['scenario']} n={failure['n']} "
            f"seed={failure['seed']}: {failure['error']}",
            file=sys.stderr,
        )
    ok = (
        status["state"] == "done"
        and not status["failures"]
        and status["unverified"] == 0
        and not status.get("sink_error")
    )
    return 0 if ok else 1


def _history_summary(
    points: list[ScrapePoint], payload: dict
) -> list[str]:
    """Human-readable windowed queries over fetched history points."""
    lines = []
    retained = payload.get("retained", len(points))
    interval = payload.get("interval_s")
    note = " (truncated to the response cap)" if payload.get("truncated") else ""
    header = f"history: {len(points)} of {retained} retained point(s)"
    if interval:
        header += f", scrape interval {interval:g}s"
    lines.append(header + note)
    if len(points) < 2:
        lines.append(
            "fewer than two points — no windowed queries yet; latest scrape:"
        )
        if points:
            lines.append(points[-1].text.rstrip("\n"))
        return lines
    first, last = points[0], points[-1]
    span = last.unix_s - first.unix_s
    lines.append(f"window: {span:g}s across {len(points)} scrapes")
    types = parse_exposition_types(last.text)
    histograms = sorted(n for n, kind in types.items() if kind == "histogram")

    def scalar_map(point: ScrapePoint) -> dict:
        out: dict = {}
        for sample in point.samples:
            if any(key == "le" for key, _ in sample.labels):
                continue
            key = (sample.name, sample.labels)
            out[key] = out.get(key, 0.0) + sample.value
        return out

    def is_histogram_series(name: str) -> bool:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in histograms:
                return True
        return False

    start, end = scalar_map(first), scalar_map(last)
    counter_lines, gauge_lines = [], []
    for name, labels in sorted(end):
        if is_histogram_series(name):
            continue
        label_text = (
            "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"
            if labels else ""
        )
        value = end[(name, labels)]
        kind = types.get(name)
        if kind == "counter":
            increase = value - start.get((name, labels), 0.0)
            if increase < 0:
                counter_lines.append(
                    f"  {name}{label_text}  reset mid-window "
                    f"(latest cumulative: {value:g})"
                )
            elif increase > 0:
                counter_lines.append(
                    f"  {name}{label_text}  +{increase:g} "
                    f"({increase / span:.3g}/s)"
                )
        elif kind == "gauge":
            before = start.get((name, labels))
            delta_text = (
                "new series" if before is None else f"Δ {value - before:+g}"
            )
            gauge_lines.append(f"  {name}{label_text}  {value:g} ({delta_text})")
    lines.append("counter increases over the window:" +
                 ("" if counter_lines else " none"))
    lines.extend(counter_lines)
    if gauge_lines:
        lines.append("gauges (latest value, change over the window):")
        lines.extend(gauge_lines)
    for name in histograms:
        quantile_parts = []
        for q in (0.5, 0.9, 0.99):
            value = windowed_quantile(points, name, q)
            quantile_parts.append(
                f"p{int(q * 100)}=" + ("n/a" if value is None else f"{value:g}")
            )
        lines.append(f"histogram {name} (windowed): " + " ".join(quantile_parts))
    return lines


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.window is not None and not args.history:
        print("--window requires --history", file=sys.stderr)
        return 2
    client = _make_client(args.connect, args.token)
    if isinstance(client, int):
        return client
    try:
        if args.history:
            payload = client.metrics_history(window_s=args.window)
        else:
            text = client.metrics()
    except ServiceError as error:
        print(
            f"metrics scrape from {args.connect} failed: {error}",
            file=sys.stderr,
        )
        return 2
    if args.history:
        points = points_from_payload(payload)
        if args.out:
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            with out.open("w", encoding="utf-8") as handle:
                for point in points:
                    handle.write(json.dumps(point.to_record()) + "\n")
            print(f"wrote {args.out} ({len(points)} point(s))")
        else:
            for line in _history_summary(points, payload):
                print(line)
        return 0
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
            text_a = Path(path_a).read_text(encoding="utf-8")
            text_b = Path(path_b).read_text(encoding="utf-8")
        except OSError as error:
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
            max_regression=args.max_regression, min_wall_s=args.min_wall,
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

    if args.metrics is not None and args.connect is not None:
        print("--metrics and --connect are mutually exclusive", file=sys.stderr)
        return 2
    if args.history is not None and args.connect is not None:
        print(
            "--history and --connect are mutually exclusive "
            "(--connect already fetches the live history)",
            file=sys.stderr,
        )
        return 2
    if args.window is not None and args.history is None and args.connect is None:
        print("--window requires --history or --connect", file=sys.stderr)
        return 2
    metrics_text = None
    history_points = None
    if args.history is not None:
        try:
            history_points = load_history_jsonl(args.history)
        except (OSError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
        if args.window is not None:
            history_points = points_in_window(history_points, args.window)
        if not history_points:
            print(
                f"{args.history}: no history points"
                + (" within the trailing window" if args.window else ""),
                file=sys.stderr,
            )
            return 2
    if args.metrics is not None:
        try:
            metrics_text = Path(args.metrics).read_text(encoding="utf-8")
        except OSError as error:
            print(str(error), file=sys.stderr)
            return 2
    elif args.connect is not None:
        client = _make_client(args.connect, args.token)
        if isinstance(client, int):
            return client
        try:
            metrics_text = client.metrics()
        except ServiceError as error:
            print(
                f"metrics scrape from {args.connect} failed: {error}",
                file=sys.stderr,
            )
            return 2
        try:
            payload = client.metrics_history(window_s=args.window)
            history_points = points_from_payload(payload) or None
        except ServiceError:
            # Best-effort: a server without the verb still dashboards.
            history_points = None
    bundle = None
    if not args.no_report:
        records = ResultStore(args.out).records()
        if records:
            bundle = build_report(records)
        elif metrics_text is None and history_points is None:
            print(
                f"no stored results under {ResultStore(args.out).path} and no "
                "metrics source — nothing to render "
                "(pass --metrics/--connect/--history or run a suite first)",
                file=sys.stderr,
            )
            return 2
    title_kwargs = {} if args.title is None else {"title": args.title}
    html = render_dashboard(
        bundle=bundle, metrics_text=metrics_text, history=history_points,
        **title_kwargs,
    )
    _write_html(args, html)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "merge":
        return _cmd_merge(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "collect":
        return _cmd_collect(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "dashboard":
        return _cmd_dashboard(args)
    return _cmd_report(args)
