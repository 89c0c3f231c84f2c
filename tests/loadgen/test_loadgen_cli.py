"""The ``python -m repro.loadgen`` front door.

Parser-level behaviour plus one small end-to-end run through ``main()``:
an in-process server replay that saves its trace, writes a standalone SLO
report, and appends to an explicit BENCH file.
"""

import json

import pytest

from repro.loadgen.cli import build_parser, main
from repro.serve.cli import build_parser as build_serve_parser
from repro.serve.cli import shard_layout


class TestParser:
    def test_defaults_satisfy_the_acceptance_command(self):
        args = build_parser().parse_args(["--suite", "mixed", "--shards", "2", "--seed", "7"])
        assert args.suite == ["mixed"]
        assert args.shards == 2
        assert args.seed == 7
        assert args.requests >= 16
        assert not args.no_bench

    def test_connect_addresses_flatten(self):
        args = build_parser().parse_args(
            ["--connect", "a:1,b:2", "--connect", "c:3"]
        )
        assert shard_layout(args) == (0, ("a:1", "b:2", "c:3"))

    @pytest.mark.parametrize(
        "parser", [build_parser, build_serve_parser], ids=["loadgen", "serve"]
    )
    def test_both_clis_read_one_ring_layout(self, parser):
        def layout(argv):
            return shard_layout(parser().parse_args(argv))

        assert layout([]) == (1, ())
        assert layout(["--connect", "a:1"]) == (0, ("a:1",))
        assert layout(["--shards", "2", "--connect", "a:1"]) == (2, ("a:1",))
        with pytest.raises(ValueError, match="shard count"):
            layout(["--shards", "0"])

    def test_trust_option_is_gone(self, capsys):
        # A TCP link is source-only with no option to change it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--connect", "a:1", "--trust", "pickled"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_list_suites_exits_cleanly(self, capsys):
        assert main(["--list-suites"]) == 0
        out = capsys.readouterr().out
        assert "fhe_pipeline" in out and "mixed" in out

    def test_unknown_suite_is_a_clean_error(self, capsys):
        assert main(["--suite", "nope", "--dry-run"]) == 1
        assert "unknown workload suite" in capsys.readouterr().err

    def test_kill_shard_requires_a_cluster(self, capsys):
        assert main(["--kill-shard", "0", "--shards", "1"]) == 2
        assert "--kill-shard" in capsys.readouterr().err

    def test_dry_run_saves_byte_identical_traces(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        base = ["--suite", "mixed", "--seed", "7", "--dry-run", "--save-trace"]
        assert main(base + [str(first)]) == 0
        assert main(base + [str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_single_server_replay_end_to_end(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    report_path = tmp_path / "report.json"
    bench_path = tmp_path / "BENCH_local.json"
    code = main(
        [
            "--suite",
            "rns_conversion",
            "--requests",
            "6",
            "--seed",
            "1",
            "--rate",
            "200",
            "--save-trace",
            str(trace_path),
            "--report",
            str(report_path),
            "--bench",
            str(bench_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "replayed" in out

    report = json.loads(report_path.read_text())
    assert report["requests"] == 6
    assert report["lost"] == 0
    assert report["ok"] == 6

    bench = json.loads(bench_path.read_text())
    assert len(bench["loadgen_reports"]) == 1
    assert bench["loadgen_reports"][0]["seed"] == 1

    # The saved trace replays: loading it drives the same schedule.
    replay_code = main(
        [
            "--replay",
            str(trace_path),
            "--no-bench",
        ]
    )
    assert replay_code == 0
