"""Self-test of the benchmark, on tiny sizes of every workload.

Checks that a run prints every metric ``BENCHMARK.json`` names, with its
unit, that a deliberately corrupted output is counted as failed by every
check a workload passes through, that no process a run starts outlives
it, and that the command refuses to run where the program's sources are
missing.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def session_members(session: int) -> list[int]:
    """Pids of the live processes in ``session`` (empty without ``/proc``)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we looked
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(stat.parent.name))
    return members


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the benchmark in a session of its own, and check that no
    process it started outlives it.

    Output goes to files, not pipes: a leftover process that holds a pipe
    open would make reading it wait for that process to end.
    """
    command = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args]
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        with subprocess.Popen(
            command, cwd=cwd, stdout=stdout, stderr=stderr, text=True, start_new_session=True
        ) as process:
            try:
                process.wait(timeout=300)
            finally:
                left = session_members(process.pid)
                for pid in left:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
        stdout.seek(0)
        stderr.seek(0)
        done = subprocess.CompletedProcess(command, process.returncode, stdout.read(), stderr.read())
    assert not left, f"processes outlived the run: {left}"
    return done


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, group):
    done = run(ROOT, "--workload", workload, "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[group]}
    assert {name: one["unit"] for name, one in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert f"metric {name} = {value!r} {unit}" in done.stdout


#: The checks each workload's measured phase passes through; ``--corrupt``
#: damages one output at each.
CHECK_SITES = {
    "compile_cold": {"compiled", "warm", "butterfly", "exec", "reply"},
    "kernel_exec": {"exec", "reply"},
    "serve_mix": {"butterfly", "exec", "reply"},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_output_is_counted_as_failed(workload):
    done = run(ROOT, "--workload", workload, "--trace", "0", "--size", "tiny", "--corrupt")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    corrupted = [line for line in done.stdout.splitlines() if line.startswith("corrupted: ")]
    assert len(corrupted) == 1
    sites = corrupted[0].split()[1:]
    assert set(sites) == CHECK_SITES[workload]
    assert result["failed"] == len(sites)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
