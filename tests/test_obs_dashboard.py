"""Dashboard rendering, the ``metrics``/``dashboard`` CLI subcommands
and the CI SLO burn-check script, which read one scrape at a time."""

import importlib.util
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ResultStore, get_suite, run_cell
from repro.experiments.cli import main
from repro.experiments.spec import ANALYTIC_GENERATOR
from repro.obs import MetricsRegistry
from repro.obs.dashboard import render_dashboard
from repro.obs.slo import FAILURE_COUNTERS
from repro.service import ResultCollector
from repro.service import client as client_module

from test_service_collector import make_result

REPO_ROOT = Path(__file__).resolve().parent.parent
BURN_CHECK = REPO_ROOT / "scripts" / "slo_burn_check.py"
TOKEN = "dashboard-suite-token"


def clean_scrape() -> str:
    """A healthy scrape: every SLO passes and one histogram renders."""
    registry = MetricsRegistry()
    registry.counter("collector_records_ingested_total", "x").inc(3)
    fates = registry.counter("collector_records_total", "x", ("fate",))
    fates.labels(fate="accepted").inc(3)
    fates.labels(fate="dropped")  # present with value 0
    latency = registry.histogram(
        "service_request_seconds", "x", ("server", "verb"),
        buckets=(0.01, 0.1, 1.0),
    )
    latency.labels(server="collector", verb="push").observe(0.005)
    return registry.render()


def burning_scrape() -> str:
    registry = MetricsRegistry()
    registry.counter(
        "collector_records_total", "x", ("fate",)
    ).labels(fate="dropped").inc(2)
    return registry.render()


class FakeTable:
    def __init__(self, title):
        self.title = title
        self.columns = ["n", "value"]
        self.rows = [[10, "1.5"], [20, "2.5"]]


class FakeBundle:
    """Duck-typed stand-in for ReportBundle."""

    def __init__(self, all_verified=True, theorem3_beta=0.5):
        self.all_verified = all_verified
        self.theorem3_beta = theorem3_beta
        self.summaries = {"a": None, "b": None}
        self.scaling = FakeTable("Scaling <table>")
        self.fits = FakeTable("Fits")
        self.scenario_tables = [FakeTable("Scenario a")]


class TestRenderDashboard:
    def test_empty_inputs_render_a_placeholder(self):
        html = render_dashboard()
        assert "Nothing to show" in html
        assert "<!DOCTYPE html>" in html

    def test_metrics_only_page(self):
        html = render_dashboard(metrics_text=clean_scrape())
        assert "Service-level objectives" in html
        # Status is icon + label, never colour alone.
        assert "✓ all ok" in html
        assert "BURNING" not in html
        # Histogram family gets a quantile row; raw scrape is included.
        assert "service_request_seconds" in html
        assert "Raw Prometheus exposition" in html

    def test_burning_slo_is_flagged(self):
        html = render_dashboard(metrics_text=burning_scrape())
        assert "✗" in html and "BURNING" in html
        assert "1 burning" in html

    def test_bundle_tables_and_tiles(self):
        html = render_dashboard(bundle=FakeBundle())
        assert "All cells verified" in html and "✓ yes" in html
        assert "0.500" in html and "sublogarithmic" in html
        # Table titles are HTML-escaped.
        assert "Scaling &lt;table&gt;" in html
        assert "<th>n</th>" in html

    def test_unverified_bundle_shows_a_cross(self):
        html = render_dashboard(bundle=FakeBundle(all_verified=False))
        assert "✗ NO" in html

    def test_metrics_text_is_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "c_total", "x", ("verb",)
        ).labels(verb="<script>alert(1)</script>").inc()
        html = render_dashboard(metrics_text=registry.render())
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html

    def test_title_is_escaped(self):
        html = render_dashboard(
            metrics_text=clean_scrape(), title="<b>sweep</b>"
        )
        assert "<title>&lt;b&gt;sweep&lt;/b&gt;</title>" in html


def _load_burn_check():
    """``scripts/slo_burn_check.py`` as a module, to call its ``main``."""
    spec = importlib.util.spec_from_file_location("slo_burn_check", BURN_CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBurnCheckScript:
    """The burn check's verdicts, through its ``main`` in this process; one
    test runs the script end to end in a fresh interpreter."""

    burn_check = _load_burn_check()

    @pytest.fixture(autouse=True)
    def _capture(self, capsys):
        self.capsys = capsys

    def run_check(self, *argv):
        """``main(argv)`` as a finished process: its exit code and output."""
        self.capsys.readouterr()
        try:
            code = self.burn_check.main([str(arg) for arg in argv])
        except SystemExit as exit_:  # argparse refuses bad usage this way
            code = exit_.code
        out, err = self.capsys.readouterr()
        return subprocess.CompletedProcess(argv, code, out, err)

    def run_script(self, *argv):
        return subprocess.run(
            [sys.executable, str(BURN_CHECK), *map(str, argv)],
            capture_output=True, text=True,
        )

    def test_clean_scrape_passes(self, tmp_path):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(clean_scrape(), encoding="utf-8")
        proc = self.run_check(scrape)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "BURNING" not in proc.stdout

    def test_burning_scrape_fails(self, tmp_path):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(burning_scrape(), encoding="utf-8")
        proc = self.run_check(scrape)
        assert proc.returncode == 1
        assert "BURNING" in proc.stdout
        assert "zero-dropped-records" in proc.stdout

    def test_unreadable_scrape_is_exit_2(self, tmp_path):
        assert self.run_check(tmp_path / "missing.prom").returncode == 2

    def test_unparseable_scrape_is_exit_2(self, tmp_path):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text("this is not a metric line\n", encoding="utf-8")
        proc = self.run_check(scrape)
        assert proc.returncode == 2
        assert "cannot read scrape" in proc.stderr

    def test_scrape_without_objective_series_is_exit_3(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("collector_uptime_seconds", "x").set_function(lambda: 5)
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(registry.render(), encoding="utf-8")
        proc = self.run_check(scrape)
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert "no data" in proc.stderr
        assert "BURNING" not in proc.stdout

    def test_store_check_counts_as_data(self, tmp_path):
        """A server that ingested nothing over an empty store has no
        objective data, but its completeness check is a verdict."""
        registry = MetricsRegistry()
        registry.counter("collector_records_ingested_total", "x")
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(registry.render(), encoding="utf-8")
        store = tmp_path / "results.jsonl"
        store.write_text("", encoding="utf-8")
        assert self.run_check(scrape).returncode == 3
        proc = self.run_check(scrape, "--store", store)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "counter=0 store_records=0 at_start=0" in proc.stdout

    def test_store_blank_lines_are_not_records(self, tmp_path):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(clean_scrape(), encoding="utf-8")  # ingested = 3
        store = tmp_path / "results.jsonl"
        store.write_text('{"a":1}\n\n{"a":2}\n   \n{"a":3}\n\n', encoding="utf-8")
        proc = self.run_check(scrape, "--store", store)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "store_records=3" in proc.stdout

    def test_store_truncated_tail_is_not_a_record(self, tmp_path):
        """A crash mid-append leaves a truncated final line, which the
        server's startup replay skips: a restart on it burns nothing."""
        registry = MetricsRegistry()
        registry.counter("collector_records_ingested_total", "x")
        registry.gauge("collector_store_records_at_start", "x").set_function(lambda: 3)
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(registry.render(), encoding="utf-8")
        store = tmp_path / "results.jsonl"
        store.write_text(
            '{"a":1}\n{"a":2}\n{"a":3}\n{"fingerprint": "ab', encoding="utf-8"
        )
        proc = self.run_check(scrape, "--store", store)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "counter=0 store_records=3 at_start=3" in proc.stdout

    def test_store_corrupt_before_its_tail_is_exit_2(self, tmp_path):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(clean_scrape(), encoding="utf-8")
        store = tmp_path / "results.jsonl"
        store.write_text('{"a":1}\nnot json\n{"a":3}\n', encoding="utf-8")
        proc = self.run_check(scrape, "--store", store)
        assert proc.returncode == 2
        assert "cannot read store" in proc.stderr and "line 2" in proc.stderr

    def test_records_at_start_do_not_excuse_a_lost_record(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("collector_records_ingested_total", "x").inc(1)
        registry.gauge("collector_store_records_at_start", "x").set_function(lambda: 3)
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(registry.render(), encoding="utf-8")
        store = tmp_path / "results.jsonl"
        store.write_text('{"a":1}\n{"a":2}\n{"a":3}\n', encoding="utf-8")
        proc = self.run_check(scrape, "--store", store)
        assert proc.returncode == 1
        assert "BURNING  ingest-completeness" in proc.stdout
        assert "counter=1 store_records=3 at_start=3" in proc.stdout

    def test_store_count_match_passes(self, tmp_path):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(clean_scrape(), encoding="utf-8")  # ingested = 3
        store = tmp_path / "results.jsonl"
        store.write_text('{"a":1}\n{"a":2}\n{"a":3}\n', encoding="utf-8")
        proc = self.run_check(scrape, "--store", store)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ingest-completeness: counter=3 store_records=3" in proc.stdout

    def test_store_count_mismatch_burns(self, tmp_path):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(clean_scrape(), encoding="utf-8")  # ingested = 3
        store = tmp_path / "results.jsonl"
        store.write_text('{"a":1}\n', encoding="utf-8")
        proc = self.run_check(scrape, "--store", store)
        assert proc.returncode == 1
        assert "counter=3 store_records=1" in proc.stdout

    def test_store_without_ingest_counter_burns(self, tmp_path):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(burning_scrape(), encoding="utf-8")
        store = tmp_path / "results.jsonl"
        store.write_text("", encoding="utf-8")
        proc = self.run_check(scrape, "--store", store)
        assert proc.returncode == 1
        assert "no collector_records_ingested_total" in proc.stdout

    def test_usage_errors_are_exit_2(self, tmp_path):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(clean_scrape(), encoding="utf-8")
        # no input, a missing store file
        assert self.run_check().returncode == 2
        proc = self.run_check(scrape, "--store", tmp_path / "nope.jsonl")
        assert proc.returncode == 2
        assert "cannot read store" in proc.stderr

    @pytest.mark.skipif(
        not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
    )
    def test_restarted_server_passes_ingest_completeness(self, tmp_path):
        """A server restarted on a filled store counts the records its
        startup replay read, so the store's line count is those plus
        what this process ingested — not the ingest counter alone."""
        store = ResultStore(tmp_path / "central")
        for seed in (1, 2, 3):
            store.append(make_result(seed=seed))
        with ResultCollector(
            out=store.directory, listen=tmp_path / "restart.sock"
        ) as server:
            assert server.ingest(make_result(seed=4).to_record()) == "accepted"
            text = server.registry.render()
        assert "collector_store_records_at_start 3" in text
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(text, encoding="utf-8")
        # The end-to-end check: the script itself, in a fresh interpreter.
        proc = self.run_script(scrape, "--store", store.path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "counter=1 store_records=4 at_start=3" in proc.stdout


@pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)
class TestMetricsAndDashboardCLI:
    @pytest.fixture()
    def collector(self, tmp_path):
        collector = ResultCollector(
            out=tmp_path / "central",
            listen=tmp_path / "obs.sock",
            token=TOKEN,
        )
        collector.start()
        yield collector
        collector.close()

    def test_metrics_scrape_to_file(self, collector, tmp_path, capsys):
        out = tmp_path / "scrapes" / "metrics.prom"
        code = main([
            "metrics", "--connect", str(collector.endpoint),
            "--token", TOKEN, "--out", str(out),
        ])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "# TYPE collector_records_ingested_total counter" in text
        assert "collector_uptime_seconds" in text

    def test_metrics_scrape_to_stdout(self, collector, capsys):
        code = main([
            "metrics", "--connect", str(collector.endpoint), "--token", TOKEN,
        ])
        assert code == 0
        assert "# HELP collector_records_total" in capsys.readouterr().out

    def test_metrics_bad_endpoint_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 0.0)
        code = main(["metrics", "--connect", str(tmp_path / "nope.sock")])
        assert code == 2

    def test_failure_messages_name_the_endpoint(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 0.0)
        endpoint = tmp_path / "nope.sock"
        code = main(["metrics", "--connect", str(endpoint)])
        assert code == 2
        assert str(endpoint) in capsys.readouterr().err

    def test_dashboard_from_saved_scrape(self, tmp_path, capsys):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(clean_scrape(), encoding="utf-8")
        html_path = tmp_path / "pages" / "dash.html"
        code = main([
            "dashboard", "--no-report", "--metrics", str(scrape),
            "--html", str(html_path), "--title", "CI snapshot",
        ])
        assert code == 0
        html = html_path.read_text(encoding="utf-8")
        assert "<title>CI snapshot</title>" in html
        assert "Service-level objectives" in html

    def test_dashboard_from_live_collector(self, collector, tmp_path, capsys):
        """A live server's dashboard is a saved scrape: ``metrics --out``,
        then ``dashboard --metrics``."""
        scrape, html_path = tmp_path / "live.prom", tmp_path / "dash.html"
        assert main([
            "metrics", "--connect", str(collector.endpoint),
            "--token", TOKEN, "--out", str(scrape),
        ]) == 0
        code = main([
            "dashboard", "--no-report", "--metrics", str(scrape),
            "--html", str(html_path),
        ])
        assert code == 0
        assert "collector_uptime_seconds" in html_path.read_text(encoding="utf-8")

    def test_dashboard_unparseable_scrape_is_exit_2(self, tmp_path, capsys):
        scrape = tmp_path / "bad.prom"
        scrape.write_text("not a metric line\n", encoding="utf-8")
        html_path = tmp_path / "dash.html"
        code = main([
            "dashboard", "--no-report", "--metrics", str(scrape),
            "--html", str(html_path),
        ])
        assert code == 2
        assert "bad.prom: unparseable" in capsys.readouterr().err
        assert not html_path.exists()

    def test_dashboard_with_nothing_to_render_is_exit_2(self, tmp_path, capsys):
        code = main([
            "dashboard", "--out", str(tmp_path / "empty-store"),
            "--html", str(tmp_path / "dash.html"),
        ])
        assert code == 2
        assert "nothing to render" in capsys.readouterr().err

    def test_dashboard_over_a_result_store(self, tmp_path, capsys):
        """The report path: analytic cells are cheap to run for real."""
        store = ResultStore(tmp_path / "store")
        suite = get_suite("paper-claims")
        cells = [c for c in suite.cells() if c.generator == ANALYTIC_GENERATOR]
        assert cells
        for cell in cells[:4]:
            store.append(run_cell("analytic-only", cell))
        html_path = tmp_path / "dash.html"
        code = main([
            "dashboard", "--out", str(tmp_path / "store"),
            "--html", str(html_path),
        ])
        assert code == 0
        html = html_path.read_text(encoding="utf-8")
        assert "All cells verified" in html
        assert "Per-scenario detail" in html


class TestDiffPrimitives:
    def test_metrics_diff_flags_bad_counter_growth(self):
        from repro.obs.dashboard import render_metrics_diff

        before = clean_scrape()
        registry = MetricsRegistry()
        registry.counter("collector_records_ingested_total", "x").inc(3)
        registry.counter(
            "service_auth_failures_total", "x", ("server",)
        ).labels(server="collector").inc(2)
        html, regressions = render_metrics_diff(before, registry.render())
        assert any("service_auth_failures_total" in r for r in regressions)
        assert "REGRESSION" in html

    def test_metrics_diff_clean_is_empty(self):
        from repro.obs.dashboard import render_metrics_diff

        html, regressions = render_metrics_diff(clean_scrape(), clean_scrape())
        assert regressions == []
        assert "no regressions" in html

    @staticmethod
    def latency_scrape(*observations):
        """One ``service_request_seconds`` family, observations split
        between two verbs so the p99 must pool label sets."""
        registry = MetricsRegistry()
        family = registry.histogram(
            "service_request_seconds", "x", ("server", "verb"),
            buckets=(0.01, 0.1, 1.0, 10.0),
        )
        for index, value in enumerate(observations):
            verb = "push" if index % 2 else "ping"
            family.labels(server="collector", verb=verb).observe(value)
        return registry.render()

    def test_metrics_diff_flags_p99_more_than_doubling(self):
        from repro.obs.dashboard import render_metrics_diff

        before = self.latency_scrape(*[0.005] * 100)
        after = self.latency_scrape(*[0.005] * 50, *[0.5] * 50)
        html, regressions = render_metrics_diff(before, after)
        assert len(regressions) == 1
        assert regressions[0].startswith("service_request_seconds p99 grew")
        assert "REGRESSION" in html

    def test_metrics_diff_p99_growth_under_the_factor_passes(self):
        from repro.obs.dashboard import render_metrics_diff

        before = self.latency_scrape(*[0.05] * 100)
        after = self.latency_scrape(*[0.05] * 100, *[0.5])
        _, regressions = render_metrics_diff(before, after)
        assert regressions == []

    def test_metrics_diff_p99_matches_the_slo_p99(self):
        """The diff table and the latency SLO read one pooled p99."""
        from repro.obs import evaluate_slos, parse_exposition
        from repro.obs.dashboard import render_metrics_diff

        text = self.latency_scrape(*[0.005] * 90, *[0.5] * 10)
        html, _ = render_metrics_diff(text, text)
        results = {r.name: r for r in evaluate_slos(parse_exposition(text))}
        detail = results["verb-latency-p99"].detail
        p99 = detail.split("≈ ")[1].split(" ")[0]
        assert p99 == "0.9100s"
        assert f"<td>{p99}</td>" in html

    def test_metrics_diff_ignores_growth_of_healthy_counters(self):
        from repro.obs.dashboard import render_metrics_diff

        registry = MetricsRegistry()
        registry.counter("collector_records_ingested_total", "x").inc(10)
        fates = registry.counter("collector_records_total", "x", ("fate",))
        fates.labels(fate="accepted").inc(10)
        fates.labels(fate="dropped")
        html, regressions = render_metrics_diff(clean_scrape(), registry.render())
        assert regressions == []
        assert "changed" in html and "REGRESSION" not in html

    def test_metrics_diff_flags_dropped_but_not_accepted_growth(self):
        from repro.obs.dashboard import render_metrics_diff

        registry = MetricsRegistry()
        fates = registry.counter("collector_records_total", "x", ("fate",))
        fates.labels(fate="accepted").inc(9)
        fates.labels(fate="dropped").inc(2)
        _, regressions = render_metrics_diff(clean_scrape(), registry.render())
        assert regressions == ["collector_records_total{fate=dropped} grew 0 → 2"]

    def test_metrics_diff_flags_a_failure_counter_born_between_scrapes(self):
        from repro.obs.dashboard import render_metrics_diff

        registry = MetricsRegistry()
        registry.counter("service_auth_failures_total", "x").inc()
        _, regressions = render_metrics_diff(
            clean_scrape(), clean_scrape() + registry.render()
        )
        assert regressions == ["service_auth_failures_total grew 0 → 1"]

    def test_metrics_diff_unchanged_failure_count_passes(self):
        """Only growth between the two scrapes regresses; a failure both
        scrapes already counted is the single-scrape SLO's business."""
        from repro.obs.dashboard import render_metrics_diff

        text = burning_scrape()
        html, regressions = render_metrics_diff(text, text)
        assert regressions == []
        assert "no regressions" in html

    def test_metrics_diff_series_in_one_scrape_only(self):
        from repro.obs.dashboard import render_metrics_diff

        registry = MetricsRegistry()
        registry.gauge("fleet_oldest_lease_age_seconds", "x").set_function(lambda: 4)
        html, regressions = render_metrics_diff(
            clean_scrape(), clean_scrape() + registry.render(),
            label_a="before.prom", label_b="after.prom",
        )
        assert regressions == []
        row = html.split("<td>fleet_oldest_lease_age_seconds</td>")[1].split("</tr>")[0]
        assert '<span class="muted">—</span>' in row
        assert "<td>4</td>" in row and "<td>+4</td>" in row
        assert "before.prom" in html and "after.prom" in html

    @pytest.mark.parametrize("objective", sorted(FAILURE_COUNTERS))
    def test_failure_counter_growth_regresses_and_its_count_burns(
        self, objective
    ):
        """One table names the failure counters: the diff flags growth of
        each one, and its zero-budget objective burns on any count."""
        from repro.obs import evaluate_slos, parse_exposition
        from repro.obs.dashboard import render_metrics_diff

        name, labels = FAILURE_COUNTERS[objective]
        registry = MetricsRegistry()
        family = registry.counter(name, "x", tuple(labels))
        (family.labels(**labels) if labels else family).inc()
        after = registry.render()
        _, regressions = render_metrics_diff(clean_scrape(), after)
        assert len(regressions) == 1
        assert regressions[0].startswith(name) and regressions[0].endswith("0 → 1")
        verdicts = {r.name: r.ok for r in evaluate_slos(parse_exposition(after))}
        assert [o for o, ok in verdicts.items() if not ok] == [objective]

    def test_p99_table_lists_the_families_with_bucket_samples(self):
        """A histogram family is one with a bucket sample in either
        scrape: a labelled family nothing observed has none, so no row."""
        from repro.obs.dashboard import render_metrics_diff

        registry = MetricsRegistry()
        registry.histogram("idle_seconds", "x", ("phase",))
        registry.histogram("late_seconds", "x").observe(0.5)
        html, _ = render_metrics_diff(clean_scrape(), registry.render())
        p99_table = html.split("Histogram p99")[1]
        assert "<td>service_request_seconds</td>" in p99_table
        assert "<td>late_seconds</td>" in p99_table
        assert "idle_seconds" not in html

    @staticmethod
    def bench_payload(wall_s, scenario="mis", engine="python", n=1000):
        return {
            "entries": [{
                "scenario": scenario, "n": n, "wall_clock_s": wall_s,
                "rounds": 5, "messages": 10, "engine": engine,
            }],
        }

    def test_bench_regression_gated_by_ratio(self):
        from repro.obs.dashboard import diff_bench_payloads

        diff = diff_bench_payloads(
            self.bench_payload(1.0), self.bench_payload(3.0)
        )
        assert len(diff.regressions) == 1
        assert diff.pair_summary()[("mis", "python")] == pytest.approx(3.0)
        ok = diff_bench_payloads(
            self.bench_payload(1.0), self.bench_payload(1.5)
        )
        assert ok.regressions == []

    def test_bench_noise_floor_never_gates(self):
        from repro.obs.dashboard import diff_bench_payloads

        diff = diff_bench_payloads(
            self.bench_payload(0.001), self.bench_payload(0.04)
        )
        assert diff.regressions == []
        assert not diff.rows[0].gated

    def test_bench_only_old_and_new_entries_reported(self):
        from repro.obs.dashboard import diff_bench_payloads

        old = self.bench_payload(1.0, scenario="a")
        new = self.bench_payload(1.0, scenario="b")
        diff = diff_bench_payloads(old, new)
        assert diff.only_old and diff.only_new

    def test_bench_payload_without_entries_rejected(self):
        from repro.obs.dashboard import diff_bench_payloads

        with pytest.raises(ValueError):
            diff_bench_payloads({}, self.bench_payload(1.0))

    def test_render_bench_diff_highlights(self):
        from repro.obs.dashboard import diff_bench_payloads, render_bench_diff

        diff = diff_bench_payloads(
            self.bench_payload(1.0), self.bench_payload(3.0)
        )
        html = render_bench_diff(diff, label_old="base", label_new="pr")
        assert "REGRESSION" in html and "class=\"regression\"" in html


class TestDiffCLI:
    def test_diff_bench_cli_gates(self, tmp_path, capsys):
        import json as json_module

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json_module.dumps(
            TestDiffPrimitives.bench_payload(1.0)), encoding="utf-8")
        new.write_text(json_module.dumps(
            TestDiffPrimitives.bench_payload(3.0)), encoding="utf-8")
        html_path = tmp_path / "bench-diff.html"
        code = main([
            "dashboard", "--diff-bench", str(old), str(new),
            "--html", str(html_path),
        ])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert "REGRESSION" in html_path.read_text(encoding="utf-8")
        # A looser gate lets the same pair pass.
        code = main([
            "dashboard", "--diff-bench", str(old), str(new),
            "--max-regression", "4.0", "--html", str(html_path),
        ])
        assert code == 0

    def test_diff_bench_bad_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        code = main([
            "dashboard", "--diff-bench", str(bad), str(bad),
            "--html", str(tmp_path / "x.html"),
        ])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_metrics_diff_cli(self, tmp_path, capsys):
        a = tmp_path / "a.prom"
        b = tmp_path / "b.prom"
        a.write_text(clean_scrape(), encoding="utf-8")
        b.write_text(clean_scrape(), encoding="utf-8")
        html_path = tmp_path / "mdiff.html"
        code = main([
            "dashboard", "--diff", str(a), str(b), "--html", str(html_path),
        ])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out
        assert html_path.exists()

    def test_metrics_diff_cli_regression_is_exit_1(self, tmp_path, capsys):
        a = tmp_path / "a.prom"
        b = tmp_path / "b.prom"
        a.write_text(clean_scrape(), encoding="utf-8")
        b.write_text(burning_scrape(), encoding="utf-8")  # 2 dropped
        html_path = tmp_path / "mdiff.html"
        code = main([
            "dashboard", "--diff", str(a), str(b), "--html", str(html_path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION: collector_records_total{fate=dropped} grew 0 → 2" in out
        assert "REGRESSION" in html_path.read_text(encoding="utf-8")

    def test_metrics_diff_missing_scrape_is_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.prom"
        a.write_text(clean_scrape(), encoding="utf-8")
        html_path = tmp_path / "mdiff.html"
        code = main([
            "dashboard", "--diff", str(a), str(tmp_path / "gone.prom"),
            "--html", str(html_path),
        ])
        assert code == 2
        assert "gone.prom" in capsys.readouterr().err
        assert not html_path.exists()

    def test_metrics_diff_unparseable_scrape_is_exit_2(self, tmp_path, capsys):
        """Exit 1 means "regressions found": a scrape that does not parse
        is bad input, exit 2, not a traceback."""
        a = tmp_path / "a.prom"
        a.write_text(clean_scrape(), encoding="utf-8")
        bad = tmp_path / "bad.prom"
        bad.write_text("not a metric line\n", encoding="utf-8")
        html_path = tmp_path / "mdiff.html"
        code = main([
            "dashboard", "--diff", str(a), str(bad), "--html", str(html_path),
        ])
        assert code == 2
        assert "bad.prom: unparseable" in capsys.readouterr().err
        assert not html_path.exists()

    def test_diff_modes_conflict(self, tmp_path, capsys):
        code = main([
            "dashboard", "--diff", "a", "b", "--diff-bench", "c", "d",
            "--html", str(tmp_path / "x.html"),
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestRemovedHistoryFlags:
    """Metrics over time are two scrapes and ``dashboard --diff``: the
    scrape-history flags are refused like any unknown argument, and so
    are the flags no caller set (a live dashboard is ``metrics --out``
    then ``dashboard --metrics``; the lease TTL is two heartbeat
    intervals; the bench noise floor is fixed), and the second executor's
    command and flags (``run --fleet`` is the one executor that leases,
    and the server assigns a worker its id)."""

    burn_check = TestBurnCheckScript.burn_check
    _capture = TestBurnCheckScript._capture
    run_check = TestBurnCheckScript.run_check

    @pytest.mark.parametrize("command,removed", [
        pytest.param(["serve"], ["--scrape-interval", "1"],
                     id="serve--scrape-interval"),
        pytest.param(["serve"], ["--history-spill", "h.jsonl"],
                     id="serve--history-spill"),
        pytest.param(["metrics", "--connect", "{tmp}/x.sock"], ["--history"],
                     id="metrics--history"),
        pytest.param(["metrics", "--connect", "{tmp}/x.sock"], ["--window", "5m"],
                     id="metrics--window"),
        pytest.param(["dashboard", "--no-report"], ["--history", "h.jsonl"],
                     id="dashboard--history"),
        pytest.param(["dashboard", "--no-report"], ["--window", "5m"],
                     id="dashboard--window"),
        # No command: the command itself is removed.
        pytest.param([], ["submit", "paper-claims"], id="submit"),
        pytest.param(["serve"], ["--workers", "2"], id="serve--workers"),
        pytest.param(["run", "paper-claims"], ["--worker-name", "w"],
                     id="run--worker-name"),
        pytest.param(["serve"], ["--lease-ttl", "4"], id="serve--lease-ttl"),
        pytest.param(["dashboard", "--no-report"], ["--connect", "x.sock"],
                     id="dashboard--connect"),
        pytest.param(["dashboard", "--no-report"], ["--token", "secret"],
                     id="dashboard--token"),
        pytest.param(["dashboard", "--diff-bench", "a.json", "b.json"],
                     ["--min-wall", "0.1"], id="dashboard--min-wall"),
    ])
    def test_removed_cli_flag_exits_2(
        self, tmp_path, capsys, monkeypatch, command, removed
    ):
        def no_server(*args, **kwargs):
            raise AssertionError("serve accepted a removed flag")

        monkeypatch.setattr("repro.experiments.cli.ResultCollector", no_server)
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 0.0)
        command = [part.format(tmp=tmp_path) for part in command]
        with pytest.raises(SystemExit) as excinfo:
            main([*command, *removed])
        assert excinfo.value.code == 2
        refusal = (
            f"unrecognized arguments: {' '.join(removed)}" if command
            else f"invalid choice: '{removed[0]}'"
        )
        assert refusal in capsys.readouterr().err

    @pytest.mark.parametrize("removed", [
        pytest.param(["--history", "h.jsonl"], id="--history"),
        pytest.param(["--window", "5m"], id="--window"),
        pytest.param(["--slow-window", "1h"], id="--slow-window"),
    ])
    def test_removed_script_flag_exits_2(self, tmp_path, removed):
        scrape = tmp_path / "metrics.prom"
        scrape.write_text(clean_scrape(), encoding="utf-8")
        proc = self.run_check(scrape, *removed)
        assert proc.returncode == 2
        assert "unrecognized arguments" in proc.stderr
