"""CLI tests for the service subcommands: run --shard, merge, serve,
submit, run --fleet, and the removed `collect` and flags (`--engine`
among them)."""

import json
import socket
import threading
import time

import pytest

from repro.experiments.cli import main
from repro.service import ServiceClient
from repro.service import client as client_module


class TestRunShard:
    def test_shard_run_merge_report_roundtrip(self, tmp_path, capsys):
        for index in range(2):
            assert main([
                "run", "paper-claims", "--smoke", "--jobs", "1", "--quiet",
                "--shard", f"{index}/2", "--out", str(tmp_path / f"s{index}"),
            ]) == 0
        out = capsys.readouterr().out
        assert "[shard 0/2]" in out and "[shard 1/2]" in out

        merged = tmp_path / "merged" / "results.jsonl"
        assert main([
            "merge", "--out", str(merged),
            str(tmp_path / "s0" / "results.jsonl"),
            str(tmp_path / "s1" / "results.jsonl"),
        ]) == 0
        assert "0 conflicts" in capsys.readouterr().out

        assert main(["report", "--out", str(tmp_path / "merged")]) == 0
        assert "Theorem 3 shape" in capsys.readouterr().out

    def test_malformed_shard_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "paper-claims", "--shard", "2of3"])
        assert "i/k" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["5/2", "1/2/3", "a/b", "0/0"])
    def test_every_shard_parse_failure_carries_format_hint(self, bad, capsys):
        """ShardSpec's own range errors ("index must be in [0, k)") do not
        mention the syntax; the CLI converter must append the i/k hint so
        users see the expected format whatever the failure mode."""
        with pytest.raises(SystemExit):
            main(["run", "paper-claims", "--shard", bad])
        err = capsys.readouterr().err
        assert "argument --shard" in err
        assert "i/k" in err and "--shard 0/2" in err

    def test_shard_converter_has_readable_name(self):
        """argparse's fallback error is "invalid <type.__name__> value";
        the private converter name must not leak into user output."""
        from repro.experiments.cli import _shard_spec

        assert _shard_spec.__name__ == "shard spec"


class TestMergeCli:
    def test_all_inputs_missing_exits_2(self, tmp_path, capsys):
        assert main([
            "merge", "--out", str(tmp_path / "m.jsonl"),
            str(tmp_path / "ghost.jsonl"),
        ]) == 2
        assert "missing input" in capsys.readouterr().err

    def test_conflict_exits_1_and_reports(self, tmp_path, capsys):
        record = {
            "fingerprint": "ab" * 8, "suite": "s", "scenario": "x",
            "generator": "g", "algorithm": "a", "n": 10, "seed": 1,
            "rounds": 5, "messages": 1, "wall_clock_s": 0.1,
            "verified": True, "k": None, "extras": {},
        }
        (tmp_path / "a.jsonl").write_text(json.dumps(record) + "\n")
        record["rounds"] = 99
        (tmp_path / "b.jsonl").write_text(json.dumps(record) + "\n")
        assert main([
            "merge", "--out", str(tmp_path / "m.jsonl"),
            str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"),
        ]) == 1
        captured = capsys.readouterr()
        assert "1 conflicts" in captured.out
        assert "CONFLICT" in captured.err


@pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)
class TestServeSubmitCli:
    @staticmethod
    def serve(argv):
        """Run ``serve`` on a thread; return it once the server answers."""
        server = threading.Thread(target=main, args=(["serve", *argv],), daemon=True)
        server.start()
        client = ServiceClient(argv[argv.index("--socket") + 1])
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                client.status()
                return server, client
            except Exception:
                time.sleep(0.05)
        pytest.fail("serve did not come up in time")

    def test_serve_submit_shutdown(self, tmp_path, capsys):
        sock_path = str(tmp_path / "svc.sock")
        server, client = self.serve([
            "--socket", sock_path, "--workers", "1",
            "--out", str(tmp_path / "store"),
        ])
        submit = [
            "submit", "paper-claims", "--socket", sock_path, "--smoke",
            "--wait", "--timeout", "120",
        ]
        assert main(submit) == 0
        out = capsys.readouterr().out
        assert "submitted 'paper-claims': 19 cells, 0 already stored" in out
        assert "done: 19 stored, 0 failed, 0 unverified" in out
        assert (tmp_path / "store" / "results.jsonl").exists()
        assert main(submit) == 0
        assert "19 already stored, 0 queued" in capsys.readouterr().out

        client.shutdown()
        server.join(timeout=30)
        assert not server.is_alive()
        assert "sweep server stopped: 19 accepted" in capsys.readouterr().out

    def test_serve_workers_0_collects_and_refuses_submit(self, tmp_path, capsys):
        sock_path = str(tmp_path / "svc.sock")
        server, client = self.serve([
            "--socket", sock_path, "--workers", "0",
            "--out", str(tmp_path / "store"),
        ])
        assert client.status()["workers"] == 0
        assert main(["submit", "paper-claims", "--socket", sock_path]) == 2
        assert "run <suite> --fleet" in capsys.readouterr().err
        assert main([
            "run", "lower-bound", "--smoke", "--jobs", "1", "--quiet",
            "--fleet", sock_path, "--out", str(tmp_path / "worker"),
        ]) == 0
        assert client.status()["records"] > 0
        client.shutdown()
        server.join(timeout=30)
        assert not server.is_alive()

    def test_serve_on_busy_socket_exits_2(self, tmp_path, capsys):
        from repro.service import ResultCollector

        with ResultCollector(out=tmp_path / "store", socket_path=tmp_path / "busy.sock"):
            assert main([
                "serve", "--socket", str(tmp_path / "busy.sock"),
                "--out", str(tmp_path / "store"),
            ]) == 2
        assert "another server" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["serve", "--workers", "-1"], "non-negative integer"),
            (["run", "paper-claims", "--jobs", "0"], "positive integer"),
        ],
    )
    def test_out_of_range_counts_rejected_by_argparse(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            pytest.param(["serve", "--heartbeat-interval", "nan"], "finite number",
                         id="serve--heartbeat-interval-nan"),
            pytest.param(["serve", "--heartbeat-interval", "inf"], "finite number",
                         id="serve--heartbeat-interval-inf"),
            pytest.param(["submit", "paper-claims", "--timeout", "nan"], "finite number",
                         id="submit--timeout-nan"),
            pytest.param(["submit", "paper-claims", "--timeout", "-5"],
                         "non-negative number", id="submit--timeout-negative"),
            pytest.param(["submit", "paper-claims", "--timeout", "0"], "positive number",
                         id="submit--timeout-0"),
            pytest.param(["dashboard", "--diff-bench", "a.json", "b.json",
                          "--max-regression", "nan"], "finite number",
                         id="dashboard--max-regression-nan"),
            pytest.param(["dashboard", "--diff-bench", "a.json", "b.json",
                          "--max-regression", "inf"], "finite number",
                         id="dashboard--max-regression-inf"),
        ],
    )
    def test_non_finite_or_nonpositive_seconds_rejected_by_argparse(
        self, argv, message, tmp_path, capsys, monkeypatch
    ):
        """A NaN heartbeat interval makes a lease table whose leases never
        expire, a NaN ``--max-regression`` passes any regression, and a
        NaN ``--timeout`` never times out: each is refused at parse time."""
        def no_server(*args, **kwargs):
            raise AssertionError("serve accepted a non-finite interval")

        monkeypatch.setattr("repro.experiments.cli.ResultCollector", no_server)
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 0.0)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_submit_without_server_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 0.0)
        assert main([
            "submit", "paper-claims",
            "--socket", str(tmp_path / "nope.sock"),
        ]) == 2
        assert "cannot reach" in capsys.readouterr().err


@pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)
class TestFleetCli:
    def test_fleet_run_report_connect_roundtrip(self, tmp_path, capsys, monkeypatch):
        """The CLI face of the TCP transport: `run --fleet` against a
        `serve --workers 0` server, `report --connect` — token via the
        env var."""
        monkeypatch.setenv("REPRO_SERVICE_TOKEN", "cli-token")
        from repro.service import ResultCollector

        collector = ResultCollector(
            out=tmp_path / "central", listen="127.0.0.1:0"
        )
        collector.start()
        host, port = collector.tcp_address
        try:
            assert main([
                "run", "paper-claims", "--smoke", "--jobs", "1", "--quiet",
                "--out", str(tmp_path / "local"),
                "--fleet", f"{host}:{port}",
            ]) == 0
            out = capsys.readouterr().out
            assert "pushed" in out and f"{host}:{port}" in out
            assert main(["report", "--connect", f"{host}:{port}"]) == 0
            assert "Theorem 3 shape" in capsys.readouterr().out
        finally:
            collector.close()

    @pytest.mark.parametrize("argv", [
        ["collect"],
        ["collect", "--listen", "0.0.0.0:7919", "--out", "central"],
    ])
    def test_collect_is_an_unknown_command(self, argv, capsys):
        """`serve --workers 0` is the fleet's collector; `collect` is gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice: 'collect'" in capsys.readouterr().err

    def test_unknown_flags_still_rejected_by_argparse(self, capsys):
        """A flag no command knows is an argparse usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "paper-claims", "--out", "store"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --out store" in capsys.readouterr().err

    def test_lease_batch_flag_is_gone(self, capsys):
        """A fleet worker leases one cell each time its pool pulls one;
        no flag sizes a lease."""
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "paper-claims", "--smoke", "--fleet", "127.0.0.1:7919",
                "--lease-batch", "4",
            ])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --lease-batch 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "paper-claims", "--smoke"],
        ["submit", "paper-claims"],
    ])
    def test_engine_flag_is_gone(self, command, capsys):
        """The code picks each run's engine; no sweep chooses it."""
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--engine", "interpreted"])
        assert excinfo.value.code == 2
        assert (
            "unrecognized arguments: --engine interpreted"
            in capsys.readouterr().err
        )

    def test_serve_listen_without_token_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_TOKEN", raising=False)
        assert main([
            "serve", "--socket", str(tmp_path / "s.sock"), "--workers", "0",
            "--listen", "127.0.0.1:0",
        ]) == 2
        assert "auth token" in capsys.readouterr().err

    def test_report_suite_with_connect_exits_2(self, capsys):
        assert main([
            "report", "--connect", "127.0.0.1:7919", "--suite", "charged",
        ]) == 2
        assert "--suite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "paper-claims", "--smoke", "--fleet", "127.0.0.1:99999"],
        ["report", "--connect", "127.0.0.1:99999"],
        ["submit", "paper-claims", "--socket", "127.0.0.1:99999"],
    ])
    def test_bad_endpoint_exits_2_not_traceback(self, argv, capsys):
        assert main(argv) == 2
        assert "out of range" in capsys.readouterr().err

    def test_report_connect_unreachable_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 0.0)
        assert main([
            "report", "--connect", str(tmp_path / "ghost.sock"),
        ]) == 2
        assert "cannot reach" in capsys.readouterr().err
