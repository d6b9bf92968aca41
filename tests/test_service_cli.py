"""CLI tests for the service subcommands: run --shard, merge, serve,
run --fleet, the exit code of every command reading a store line that is
no cell record, and the removed `collect` and `submit` commands and
flags (`--engine` and `serve --socket` among them)."""

import json
import queue
import re
import socket
import threading

import pytest

from repro.experiments import CellResult
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


class TestRunOverridesCli:
    @pytest.mark.parametrize("flag,value", [
        pytest.param("--sizes", "big", id="sizes-word"),
        pytest.param("--sizes", "24,big", id="sizes-one-bad-element"),
        pytest.param("--sizes", "2.5", id="sizes-fraction"),  # not truncated to 2
        pytest.param("--sizes", "inf", id="sizes-inf"),
        pytest.param("--sizes", "nan", id="sizes-nan"),
        pytest.param("--sizes", "true", id="sizes-bool"),
        pytest.param("--sizes", "", id="sizes-empty"),
        pytest.param("--sizes", " , ", id="sizes-separators-only"),
        pytest.param("--seeds", "one", id="seeds-word"),
        pytest.param("--seeds", "1,false", id="seeds-one-bad-element"),
        pytest.param("--seeds", "1.5", id="seeds-fraction"),
        pytest.param("--seeds", "nan", id="seeds-nan"),
        pytest.param("--sizes=-5", None, id="sizes-negative"),
        pytest.param("--sizes", "0", id="sizes-zero"),
        pytest.param("--sizes", "40,0", id="sizes-one-zero-element"),
        pytest.param("--seeds=-1", None, id="seeds-negative"),
    ])
    def test_malformed_sizes_and_seeds_rejected_by_argparse(
        self, flag, value, tmp_path, capsys
    ):
        """A sweep override that is not a list of sizes ≥ 1 or seeds ≥ 0
        is refused at parse time with an error naming the flag, before any
        cell runs."""
        override = [flag] if value is None else [flag, value]
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "paper-claims", *override, "--quiet",
                "--out", str(tmp_path / "out"),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag.partition('=')[0]}" in err and "expected" in err
        assert not (tmp_path / "out").exists()


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


def cell_record(seed: int = 1, **fields) -> dict:
    """A cell record of fingerprint ``seed``, with ``fields`` replaced."""
    return dict(CellResult(
        fingerprint=f"{seed:016x}", suite="s", scenario="x", generator="g",
        algorithm="a", n=10, seed=seed, rounds=5, messages=1,
        wall_clock_s=0.1, verified=True,
    ).to_record(), **fields)


#: Records whose telemetry the server could not observe: each is JSON
#: with every field, but no cell record.
MALFORMED_TELEMETRY = [
    pytest.param({"timings": 5}, id="timings-number"),
    pytest.param({"timings": {"run": "fast"}}, id="timings-string-value"),
    pytest.param({"timings": {"run": True}}, id="timings-bool-value"),
    pytest.param({"engine_rounds": [1]}, id="engine-rounds-list"),
    pytest.param({"engine_rounds": {"interpreted/-/-": 1.5}}, id="engine-rounds-float"),
    pytest.param({"engine_rounds": {"interpreted/-/-": -1}}, id="engine-rounds-negative"),
]


class TestStoreLinesThatAreNoCellRecords:
    """One rule says what a cell record is (``CellResult.from_record``):
    a store line that is JSON but no cell record is bad input, so every
    command reading the store exits 2 naming the file and the line, never
    1 (failed cells) and never with a traceback."""

    @pytest.mark.parametrize("bad", [
        pytest.param({"fingerprint": "abc", "verified": True}, id="fingerprint-only"),
        pytest.param({"verified": True}, id="no-fingerprint"),
        pytest.param([1, 2], id="no-object"),
        *(
            pytest.param(cell_record(2, **param.values[0]), id=param.id)
            for param in MALFORMED_TELEMETRY
        ),
    ])
    @pytest.mark.parametrize("command", ["run", "merge", "report", "dashboard"])
    def test_exits_2_naming_the_line(self, command, bad, tmp_path, capsys):
        good = cell_record()
        store = tmp_path / "store" / "results.jsonl"
        store.parent.mkdir()
        store.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        merged = tmp_path / "merged.jsonl"
        argv = {
            "run": ["run", "paper-claims", "--smoke", "--jobs", "1", "--quiet",
                    "--out", str(store.parent)],
            "merge": ["merge", "--out", str(merged), str(store)],
            "report": ["report", "--out", str(store.parent)],
            "dashboard": ["dashboard", "--out", str(store.parent),
                          "--html", str(tmp_path / "page.html")],
        }[command]
        assert main(argv) == 2
        assert f"{store}: line 2 is not a cell record" in capsys.readouterr().err
        # nothing ran, was merged or rendered
        assert store.read_text().count("\n") == 2
        assert not merged.exists() and not (tmp_path / "page.html").exists()

    def test_telemetry_may_be_null_absent_or_empty(self):
        for fields in ({"timings": None, "engine_rounds": None},
                       {"timings": {}, "engine_rounds": {}},
                       {"timings": {"run": 0.5, "gc": 0}, "engine_rounds": {"a/b/c": 0}}):
            assert CellResult.from_record(cell_record(**fields)).timings == fields["timings"]
        record = cell_record()
        del record["timings"], record["engine_rounds"]
        assert CellResult.from_record(record).engine_rounds is None


@pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)
class TestServeCli:
    @staticmethod
    def serve(argv, monkeypatch):
        """Run ``serve`` on a thread; return it once the server answers,
        waiting through the client's own connect retry."""
        server = threading.Thread(target=main, args=(["serve", *argv],), daemon=True)
        server.start()
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 30.0)
        client = ServiceClient(argv[argv.index("--listen") + 1])
        client.status()
        return server, client

    def test_serve_run_fleet_shutdown(self, tmp_path, capsys, monkeypatch):
        sock_path = str(tmp_path / "svc.sock")
        server, client = self.serve(
            ["--listen", sock_path, "--out", str(tmp_path / "store")], monkeypatch
        )
        run = [
            "run", "paper-claims", "--smoke", "--jobs", "1", "--quiet",
            "--fleet", sock_path, "--out", str(tmp_path / "worker"),
        ]
        assert main(run) == 0
        first = capsys.readouterr().out
        assert f"suite 'paper-claims' [fleet {sock_path}]" in first
        assert "cells: 19 total, 0 ran elsewhere or were already stored, 19 executed" in first
        assert re.search(
            rf"pushed 19 record\(s\) to fleet {re.escape(sock_path)} "
            rf"as worker-[0-9a-f]{{8}}-1\n",
            first,
        )
        assert (tmp_path / "store" / "results.jsonl").exists()
        assert main(run) == 0
        second = capsys.readouterr().out
        assert ", 0 executed, 0 failed" in second
        assert client.status() == {"ok": True, "records": 19, "duplicates": 0}

        client.shutdown()
        server.join(timeout=30)
        assert not server.is_alive()
        # the server's own lines, printed from its thread around the runs
        served = first + second + capsys.readouterr().out
        assert f"sweep server: {sock_path}\n" in served
        assert "verbs: status / push / report / metrics /" in served
        assert "submit" not in served
        assert "sweep server stopped: 19 accepted" in served

    def test_two_tcp_servers_serve_from_one_directory(self, tmp_path, monkeypatch):
        """A server binds only the endpoint it is given: two `serve --listen
        127.0.0.1:0` runs from one working directory both start, answer
        `status` and leave no socket file there."""
        from repro.service import ResultCollector

        started = queue.Queue()

        class Reporting(ResultCollector):
            def start(self):
                try:
                    super().start()
                except BaseException as error:
                    started.put(error)
                    raise
                started.put(self)

        monkeypatch.setattr("repro.experiments.cli.ResultCollector", Reporting)
        monkeypatch.setenv("REPRO_SERVICE_TOKEN", "cli-token")
        monkeypatch.chdir(tmp_path)
        exits, threads, servers = [], [], []
        try:
            for out in ("a", "b"):
                argv = ["serve", "--listen", "127.0.0.1:0", "--out", out]
                thread = threading.Thread(
                    target=lambda argv=argv: exits.append(main(argv)), daemon=True
                )
                thread.start()
                threads.append(thread)
                server = started.get(timeout=30)
                assert isinstance(server, ResultCollector), server
                servers.append(server)
            for server in servers:
                assert ServiceClient(server.endpoint).status()["ok"] is True
        finally:
            for server in servers:
                server.stop()
            for thread in threads:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert exits == [0, 0]
        assert list(tmp_path.iterdir()) == []

    def test_socket_flag_is_gone(self, capsys, monkeypatch):
        """`--listen` names the one endpoint; `--socket` is no flag."""
        def no_server(*args, **kwargs):
            raise AssertionError("serve accepted --socket")

        monkeypatch.setattr("repro.experiments.cli.ResultCollector", no_server)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--socket", "s.sock"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --socket s.sock" in capsys.readouterr().err

    def test_serve_on_busy_socket_exits_2(self, tmp_path, capsys):
        from repro.service import ResultCollector

        with ResultCollector(out=tmp_path / "store", listen=tmp_path / "busy.sock"):
            assert main([
                "serve", "--listen", str(tmp_path / "busy.sock"),
                "--out", str(tmp_path / "store"),
            ]) == 2
        assert "another server" in capsys.readouterr().err

    def test_out_of_range_counts_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "paper-claims", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            pytest.param(["serve", "--heartbeat-interval", "nan"], "finite number",
                         id="serve--heartbeat-interval-nan"),
            pytest.param(["serve", "--heartbeat-interval", "inf"], "finite number",
                         id="serve--heartbeat-interval-inf"),
            pytest.param(["serve", "--heartbeat-interval", "-5"],
                         "non-negative number", id="serve--heartbeat-interval-negative"),
            pytest.param(["serve", "--heartbeat-interval", "0"], "positive number",
                         id="serve--heartbeat-interval-0"),
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
        expire, and a NaN ``--max-regression`` passes any regression:
        each is refused at parse time."""
        def no_server(*args, **kwargs):
            raise AssertionError("serve accepted a non-finite interval")

        monkeypatch.setattr("repro.experiments.cli.ResultCollector", no_server)
        monkeypatch.setattr(client_module, "DEFAULT_CONNECT_RETRY_S", 0.0)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix-domain sockets"
)
class TestFleetCli:
    def test_fleet_run_report_connect_roundtrip(self, tmp_path, capsys, monkeypatch):
        """The CLI face of the TCP transport: `run --fleet` against a
        server, `report --connect` — token via the env var."""
        monkeypatch.setenv("REPRO_SERVICE_TOKEN", "cli-token")
        from repro.service import ResultCollector

        collector = ResultCollector(
            out=tmp_path / "central", listen="127.0.0.1:0"
        )
        collector.start()
        endpoint = str(collector.endpoint)
        try:
            assert main([
                "run", "paper-claims", "--smoke", "--jobs", "1", "--quiet",
                "--out", str(tmp_path / "local"),
                "--fleet", endpoint,
            ]) == 0
            out = capsys.readouterr().out
            assert re.search(
                rf"pushed 19 record\(s\) to fleet {endpoint} "
                rf"as worker-[0-9a-f]{{8}}-1\n",
                out,
            )
            assert main(["report", "--connect", endpoint]) == 0
            assert "Theorem 3 shape" in capsys.readouterr().out
        finally:
            collector.close()

    def test_size_and_seed_overrides_shape_the_fleet_offer(
        self, tmp_path, capsys, monkeypatch
    ):
        """`run --fleet` offers the cells its `--sizes`/`--seeds`
        overrides make, commas or spaces apart, not the suite's own
        sweep: the server stores exactly those."""
        monkeypatch.setenv("REPRO_SERVICE_TOKEN", "cli-token")
        from repro.experiments import ResultStore, get_suite
        from repro.service import ResultCollector

        expected = {
            cell.fingerprint
            for cell in get_suite("paper-claims").cells(sizes=(40, 56), seeds=(1, 2))
        }
        with ResultCollector(out=tmp_path / "central", listen="127.0.0.1:0") as served:
            assert main([
                "run", "paper-claims", "--sizes", "40 56", "--seeds", "1,2",
                "--jobs", "1", "--quiet", "--out", str(tmp_path / "local"),
                "--fleet", str(served.endpoint),
            ]) == 0
        stored = ResultStore(tmp_path / "central").records()
        assert {record["fingerprint"] for record in stored} == expected
        assert {(40, 1), (40, 2), (56, 1), (56, 2)} <= {
            (record["n"], record["seed"]) for record in stored
        }
        assert f"cells: {len(expected)} total" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["collect"],
        ["collect", "--listen", "0.0.0.0:7919", "--out", "central"],
        ["submit", "paper-claims"],
        ["submit", "paper-claims", "--smoke", "--wait", "--socket", "s.sock"],
    ])
    def test_collect_and_submit_are_unknown_commands(self, argv, capsys):
        """`serve` is the fleet's collector and `run --fleet` its one
        executor; `collect` and `submit` are gone."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err

    def test_unknown_flags_still_rejected_by_argparse(self, capsys):
        """A flag no command knows is an argparse usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(["list", "--out", "store"])
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
        assert main(["serve", "--listen", "127.0.0.1:0"]) == 2
        assert "auth token" in capsys.readouterr().err

    def test_report_suite_with_connect_exits_2(self, capsys):
        assert main([
            "report", "--connect", "127.0.0.1:7919", "--suite", "charged",
        ]) == 2
        assert "--suite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "paper-claims", "--smoke", "--fleet", "127.0.0.1:99999"],
        ["report", "--connect", "127.0.0.1:99999"],
        ["metrics", "--connect", "127.0.0.1:99999"],
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
