"""CLI tests for the service subcommands: run --shard, merge, serve, submit."""

import json
import socket
import threading
import time

import pytest

from repro.experiments.cli import main
from repro.service import ServiceClient


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
    def test_serve_submit_shutdown(self, tmp_path, capsys):
        sock_path = str(tmp_path / "svc.sock")
        server = threading.Thread(
            target=main,
            args=(["serve", "--socket", sock_path, "--workers", "1"],),
            daemon=True,
        )
        server.start()
        client = ServiceClient(sock_path)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                client.ping()
                break
            except Exception:
                time.sleep(0.05)
        else:
            pytest.fail("serve did not come up in time")

        assert main([
            "submit", "paper-claims", "--socket", sock_path, "--smoke",
            "--out", str(tmp_path / "store"), "--wait", "--timeout", "120",
        ]) == 0
        out = capsys.readouterr().out
        assert "submitted 'paper-claims'" in out
        assert "done" in out and "0 unverified" in out
        assert (tmp_path / "store" / "results.jsonl").exists()

        client.shutdown()
        server.join(timeout=30)
        assert not server.is_alive()

    def test_serve_on_busy_socket_exits_2(self, tmp_path, capsys):
        from repro.service import SweepDaemon

        with SweepDaemon(socket_path=tmp_path / "busy.sock", workers=1):
            assert main([
                "serve", "--socket", str(tmp_path / "busy.sock"),
            ]) == 2
        assert "another daemon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--workers", "0"],
            ["run", "paper-claims", "--jobs", "0"],
        ],
    )
    def test_nonpositive_counts_rejected_by_argparse(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--socket", str(tmp_path / "x.sock")] if argv[0] == "serve" else argv)
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_submit_without_daemon_exits_2(self, tmp_path, capsys):
        assert main([
            "submit", "paper-claims",
            "--socket", str(tmp_path / "nope.sock"),
        ]) == 2
        assert "cannot reach" in capsys.readouterr().err


@pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)
class TestCollectCli:
    def test_collect_run_report_connect_roundtrip(self, tmp_path, capsys, monkeypatch):
        """The CLI face of the streamed transport: `collect --listen`,
        `run --collector`, `report --connect` — token via the env var."""
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
                "--collector", f"{host}:{port}",
            ]) == 0
            out = capsys.readouterr().out
            assert "streamed" in out and f"{host}:{port}" in out
            assert main(["report", "--connect", f"{host}:{port}"]) == 0
            assert "Theorem 3 shape" in capsys.readouterr().out
        finally:
            collector.close()

    def test_collect_requires_an_endpoint(self, capsys):
        assert main(["collect", "--out", "nowhere"]) == 2
        assert "needs an endpoint" in capsys.readouterr().err

    def test_collect_listen_without_token_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_TOKEN", raising=False)
        assert main(["collect", "--listen", "127.0.0.1:0"]) == 2
        assert "REPRO_SERVICE_TOKEN" in capsys.readouterr().err

    def test_serve_listen_without_token_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_TOKEN", raising=False)
        assert main([
            "serve", "--socket", str(tmp_path / "s.sock"),
            "--listen", "127.0.0.1:0",
        ]) == 2
        assert "auth token" in capsys.readouterr().err

    def test_report_job_without_connect_exits_2(self, capsys):
        assert main(["report", "--job", "job-1"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_report_suite_with_connect_exits_2(self, capsys):
        assert main([
            "report", "--connect", "127.0.0.1:7919", "--suite", "charged",
        ]) == 2
        assert "--suite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "paper-claims", "--smoke", "--collector", "127.0.0.1:99999"],
        ["report", "--connect", "127.0.0.1:99999"],
        ["submit", "paper-claims", "--socket", "127.0.0.1:99999"],
    ])
    def test_bad_endpoint_exits_2_not_traceback(self, argv, capsys):
        assert main(argv) == 2
        assert "out of range" in capsys.readouterr().err

    def test_report_connect_unreachable_exits_2(self, tmp_path, capsys):
        assert main([
            "report", "--connect", str(tmp_path / "ghost.sock"),
        ]) == 2
        assert "cannot reach" in capsys.readouterr().err
