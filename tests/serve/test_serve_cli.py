"""``python -m repro.serve`` CLI: request modes, warmup, demo, errors."""

import dataclasses
import json

from repro.serve.cli import main
from repro.tune import TuningDatabase

NTT_ARGS = ["--once", "ntt", "--bits", "128", "--size", "16"]


class TestOnce:
    def test_ntt_request(self, capsys):
        assert main(NTT_ARGS) == 0
        out = capsys.readouterr().out
        assert "served      ntt/cooley_tukey/n16/128b" in out
        assert "tuning" in out
        assert "cold" in out

    def test_blas_request_no_tune(self, capsys):
        assert main(["--once", "blas", "--bits", "128", "--op", "vadd", "--no-tune"]) == 0
        out = capsys.readouterr().out
        assert "served      blas/vadd/" in out
        assert "tuning" not in out

    def test_cuda_target(self, capsys):
        assert main(NTT_ARGS + ["--target", "cuda"]) == 0
        assert "target      cuda" in capsys.readouterr().out

    def test_stats_flag_prints_metrics(self, capsys):
        assert main(NTT_ARGS + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "requests      1" in out
        assert "resident kernels" in out


class TestWarmupFlow:
    def test_tune_then_warm_across_processes(self, tmp_path, capsys):
        db = str(tmp_path / "db.json")
        assert main(NTT_ARGS + ["--db", db]) == 0
        capsys.readouterr()

        # A fresh "process": warm from the database, then serve warm.
        assert main(["--warmup", "--db", db] + NTT_ARGS + ["--stats"]) == 0
        out = capsys.readouterr().out
        assert "warmup: 1/1 records warmed" in out
        assert "serve       warm" in out

        payload = json.loads((tmp_path / "db.json").read_text())
        assert len(payload["records"]) == 1

    def test_invalidate_on_fresh_db_is_clean(self, tmp_path, capsys):
        db = str(tmp_path / "db.json")
        assert main(NTT_ARGS + ["--db", db]) == 0
        capsys.readouterr()
        assert main(["--invalidate", "--refresh", "--db", db]) == 0
        assert "0/1 records stale" in capsys.readouterr().out


class TestDemoAndErrors:
    def test_demo_traffic(self, capsys):
        assert main(["--demo", "8", "--size", "16", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "demo        8 requests" in out
        assert "requests      8" in out

    def test_bare_demo_uses_the_default_count(self, capsys):
        assert main(["--demo", "--size", "16"]) == 0
        assert "demo        16 requests" in capsys.readouterr().out

    def test_no_action_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().out

    def test_domain_error_is_reported(self, capsys):
        assert main(["--once", "ntt", "--bits", "128", "--size", "3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_mentions_shard_mode(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "--shards" in out
        assert "shard" in out


class TestShardMode:
    def test_demo_routes_across_two_shards(self, tmp_path, capsys):
        db = str(tmp_path / "db.json")
        assert main(
            ["--shards", "2", "--demo", "8", "--size", "16", "--stats", "--db", db]
        ) == 0
        out = capsys.readouterr().out
        assert "demo        8 requests" in out
        assert "routing     shard" in out
        assert "cluster       2 shards" in out
        payload = json.loads((tmp_path / "db.json").read_text())
        assert len(payload["records"]) >= 1
        assert not list(tmp_path.glob("*.shard*.json"))

    def test_shards_serve_and_warm_from_the_db_file(self, tmp_path, capsys):
        # A winner one server tuned into --db is served by a shard without
        # a search, and warm-up serves it once across the cluster: one
        # report, the record warmed.
        db = str(tmp_path / "db.json")
        assert main(NTT_ARGS + ["--db", db]) == 0
        capsys.readouterr()
        assert main(["--shards", "2", "--db", db] + NTT_ARGS) == 0
        assert "via database" in capsys.readouterr().out
        assert main(["--shards", "2", "--warmup", "--db", db]) == 0
        out = capsys.readouterr().out
        assert out.count("warmup: ") == 1
        assert "warmup: 1/1 records warmed" in out

    def test_invalidate_prints_one_report_for_the_cluster(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        assert main(NTT_ARGS + ["--db", str(db)]) == 0
        aged = TuningDatabase(db)
        [(key, record)] = aged.records().items()
        aged.remove(key, save=False)
        aged.store(dataclasses.replace(record, tuner_version=0))
        capsys.readouterr()
        invalidate = ["--shards", "2", "--invalidate", "--refresh", "--db", str(db)]
        assert main(invalidate) == 0
        out = capsys.readouterr().out
        assert out.count("invalidation: ") == 1
        assert "invalidation: 1/1 records stale (1 version" in out
        assert "re-tuned: ntt/cooley_tukey/n16/128b" in out

    def test_unreadable_db_fails_before_serving(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        db.write_text("{torn json")
        assert main(["--shards", "2", "--db", str(db), "--demo", "4"]) == 1
        captured = capsys.readouterr()
        assert "cannot read tuning database" in captured.err
        assert "demo" not in captured.out

    def test_nonpositive_shards_rejected(self, capsys):
        assert main(["--shards", "0", "--demo", "4"]) == 2
        assert "shard count" in capsys.readouterr().err


class TestTcpFlags:
    def test_listen_excludes_supervisor_actions(self, capsys):
        assert main(["--listen", "127.0.0.1:0", "--demo", "4"]) == 2
        assert "--listen" in capsys.readouterr().err

    def test_listen_with_unparsable_port_rejected(self, capsys):
        assert main(["--listen", "127.0.0.1:notaport"]) == 2
        assert "[host:]port" in capsys.readouterr().err

    def test_listen_with_unreadable_db_fails_before_listening(self, tmp_path, capsys):
        # A listener keeps its own --db; a torn one is an error, not a
        # listener that starts over an empty database.
        db = tmp_path / "shard0.json"
        db.write_text("{torn json")
        assert main(["--listen", "127.0.0.1:0", "--db", str(db)]) == 1
        captured = capsys.readouterr()
        assert "cannot read tuning database" in captured.err
        assert "listening on" not in captured.out

    def test_connect_to_unreachable_shard_fails_cleanly(self, capsys):
        # A dead remote must surface as a CLI error, not a traceback.
        import socket

        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            free_port = placeholder.getsockname()[1]
        assert main(
            ["--connect", f"127.0.0.1:{free_port}", "--demo", "4"]
        ) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_connect_and_listen_cli_end_to_end(self, tmp_path):
        # One listener subprocess, one supervisor run through main():
        # the CI smoke mirrored inside the suite.
        import re
        import subprocess
        import sys as _sys

        listener = subprocess.Popen(
            [_sys.executable, "-m", "repro.serve", "--listen", "127.0.0.1:0",
             "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = listener.stdout.readline()
            address = re.search(r"listening on (\S+)", banner).group(1)
            assert main(
                ["--connect", address, "--once", "ntt", "--bits", "64",
                 "--size", "16", "--stats"]
            ) == 0
        finally:
            listener.kill()
            listener.wait(timeout=30)
