"""Shared plumbing for the perfbench workloads.

Output checks (``Checks``), statistics, run provenance, peak memory, GC
pause capture and the self-time arithmetic behind the traced run's
per-layer tables all live here, so the workload code reads as the list of
calls it makes into the program.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import threading
import time
from collections import defaultdict
from pathlib import Path

from repro.obs import trace as tracing


class Checks:
    """Counts checked outputs; every wrong one is kept with its reason.

    Setting ``corrupt`` makes :meth:`tamper` report True once per call
    site, so each kind of check deliberately damages one output before
    checking it.  The self-test uses it to prove that every check the
    workload passes through counts a wrong output as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.corrupt = False
        self.corrupted: list[str] = []  # sites that damaged an output
        self._lock = threading.Lock()

    def tamper(self, site: str) -> bool:
        with self._lock:
            fire = self.corrupt and site not in self.corrupted
            if fire:
                self.corrupted.append(site)
        return fire

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(what)
        return ok


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 < q < 100``)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- provenance and host facts -------------------------------------------------


#: Calibration-loop milliseconds of the host ``setup_s`` is scaled to.
REFERENCE_CALIBRATION_MS = 20.0


def calibration_samples(repeats: int) -> list[float]:
    """Milliseconds of each of ``repeats`` runs of a fixed pure-Python loop.

    The loop never changes, so a shift in these figures between two runs is
    the host drifting, not the program changing.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        accumulator = 0
        for index in range(200_000):
            accumulator = (accumulator * 31 + index) % 1_000_003
        times.append((time.perf_counter() - started) * 1e3)
    return times


def calibrate(repeats: int = 5) -> float:
    """Median milliseconds of the calibration loop."""
    return median(calibration_samples(repeats))


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _source_digest(source: Path) -> str:
    """SHA-256 over the program's sources: names the code a run measured
    even in a checkout without git metadata."""
    digest = hashlib.sha256()
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, root: Path) -> dict:
    """What a run measured, on what, and how fast the host was."""
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(root),
        "source_sha256": _source_digest(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "cc": shutil.which("cc") is not None,
        "calibration_ms": calibrate(),
    }


def stop_processes() -> None:
    """Wait until every process this run started has ended.

    The shards are joined by ``ShardSupervisor.close``; any that is still
    alive here is killed.  Spawning them also started multiprocessing's
    resource tracker, which otherwise outlives the run: it is stopped and
    waited for last, once no shard holds its pipe open.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest finished child.

    Call after every child (shard) process has been joined: the kernel
    only reports a child's peak once it has been waited for.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# -- tracing helpers -------------------------------------------------------------


class GcPauses:
    """Records every garbage-collector pause through ``gc.callbacks``.

    Each pause remembers the trace span active in its thread, so the pause
    becomes a child of the layer it interrupted and is subtracted from
    that layer's self time.
    """

    def __init__(self) -> None:
        self.pauses: list[tuple] = []
        self._started = (0.0, 0.0)

    def __enter__(self) -> GcPauses:
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = (time.time(), time.perf_counter())
            return
        wall, started = self._started
        context = tracing.current()
        self.pauses.append(
            (
                wall,
                time.perf_counter() - started,
                threading.get_native_id(),
                info.get("generation", -1),
                None if context is None else (context.trace_id, context.span_id),
            )
        )

    def spans(self, recorded) -> list[tracing.Span]:
        """The pauses that struck inside ``recorded`` spans, as ``runtime.gc``
        spans parented under the innermost recorded span containing them
        (spans recorded after the fact, like the optimizer's per-pass
        spans, are never the active context while the pause runs)."""
        children = defaultdict(list)
        for one in recorded:
            children[(one.trace_id, one.parent_id)].append(one)
        known = {(one.trace_id, one.span_id) for one in recorded}
        spans = []
        for index, (wall, duration, thread, generation, parent) in enumerate(self.pauses):
            if parent not in known:
                continue
            trace_id, parent_id = parent
            start, end = wall * 1e6, (wall + duration) * 1e6
            while True:
                inner = next(
                    (
                        child
                        for child in children[(trace_id, parent_id)]
                        if child.ts_us <= start and end <= child.ts_us + child.dur_us
                    ),
                    None,
                )
                if inner is None:
                    break
                parent_id = inner.span_id
            spans.append(
                tracing.Span(
                    trace_id=trace_id,
                    span_id=f"gc.{index}",
                    parent_id=parent_id,
                    name="runtime.gc",
                    cat="runtime",
                    ts_us=start,
                    dur_us=duration * 1e6,
                    process_id=os.getpid(),
                    thread_id=thread,
                    args={"generation": generation},
                )
            )
        return spans


def self_times(spans) -> dict[tuple[str, str], float]:
    """(trace id, span id) -> seconds: duration minus what children cover."""
    children = defaultdict(list)
    for one in spans:
        if one.parent_id:
            children[(one.trace_id, one.parent_id)].append(one)
    result = {}
    for one in spans:
        start, end = one.ts_us, one.ts_us + one.dur_us
        covered, cursor = 0.0, start
        intervals = sorted(
            (max(start, child.ts_us), min(end, child.ts_us + child.dur_us))
            for child in children[(one.trace_id, one.span_id)]
        )
        for low, high in intervals:
            low = max(low, cursor)
            if high > low:
                covered += high - low
                cursor = high
        result[(one.trace_id, one.span_id)] = max(0.0, one.dur_us - covered) / 1e6
    return result


def self_time_by_name(spans) -> dict[str, float]:
    """Total self seconds per span name."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for one in spans:
        totals[one.name] += own[(one.trace_id, one.span_id)]
    return dict(totals)


def layer_table(title: str, wall_s: float, by_name: dict[str, float]) -> list[str]:
    """Self time per layer against the phase's wall time; the part no span
    explains is printed as its own row."""
    lines = [f"{title}: wall {wall_s:.4f} s"]
    explained = 0.0
    for name, seconds in sorted(by_name.items(), key=lambda item: -item[1]):
        explained += seconds
        share = 100.0 * seconds / wall_s if wall_s else 0.0
        lines.append(f"  {name:<44} {seconds:12.6f} s {share:6.2f} %")
    remainder = wall_s - explained
    share = 100.0 * remainder / wall_s if wall_s else 0.0
    lines.append(f"  {'(unexplained remainder)':<44} {remainder:12.6f} s {share:6.2f} %")
    return lines


# -- output --------------------------------------------------------------------------


def emit_result(checks: Checks, metrics: dict, info: dict) -> None:
    """Print every metric by name with its unit, then the one-line result.

    ``info`` figures are printed but not part of the result: absolute times
    of CPU-bound work move by a third with the host's speed between runs,
    too much to bound (see README.md).
    """
    for name, (value, unit) in info.items():
        print(f"info {name} = {value!r} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for reason in checks.reasons:
        print(f"FAILED: {reason}")
    if checks.corrupted:
        print(f"corrupted: {' '.join(checks.corrupted)}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
