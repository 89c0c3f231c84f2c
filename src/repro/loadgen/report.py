"""The SLO reporter: replay outcomes → a record in the BENCH artifact.

Turns a :class:`~repro.loadgen.replay.ReplayResult` into one
:class:`SLOReport` — client-observed p50/p95/p99 latency, warm ratio,
error and deadline-miss rates, throughput, and (after a fault injection)
the recovery window — optionally merged with the cluster's own view:
:class:`~repro.serve.supervisor.ClusterStats` (summed shard histograms)
and the replay window's :meth:`~repro.serve.metrics.WireSnapshot.delta`.

Reports land in ``benchmarks/BENCH_<sha>.json`` — the same per-commit
artifact CI uploads with the pytest-benchmark payload — under their own
``"loadgen_reports"`` key, **appended** without clobbering whatever the
benchmark run already wrote.  The shared read-merge-write helpers here
(:func:`merge_bench_payload`, :func:`bench_artifact_path`) are also what
``benchmarks/conftest.py`` uses to record the perf-floor entries, so the
BENCH trajectory is populated by local runs too, not only by CI's
``--benchmark-json`` flag.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path

from repro.serve.metrics import nearest_rank
from repro.tenancy import DEFAULT_TENANT
from repro.loadgen.replay import ReplayResult

__all__ = [
    "SLOReport",
    "append_loadgen_report",
    "bench_artifact_path",
    "build_slo_report",
    "merge_bench_payload",
    "resolve_sha",
]


def _percentile(sorted_values, q: float) -> float:
    """Exact nearest-rank percentile of pre-sorted values (0 when empty).

    The rank rule is the serving tier's (:func:`~repro.serve.metrics.nearest_rank`),
    so a client-observed p50 and a server's histogram p50 count the same sample.
    """
    if not sorted_values:
        return 0.0
    return sorted_values[nearest_rank(len(sorted_values), q) - 1]


@dataclass(frozen=True)
class SLOReport:
    """One replay's service-level summary, JSON-ready.

    Latency percentiles are **client-observed** (exact, from the per-request
    timeline — not the cluster's bucketed histograms, which ride along in
    ``cluster`` for cross-checking).  ``recovery_window_s`` is only set
    after a fault injection: the time from the fault to the first
    successful completion of a request *submitted after* the fault — how
    long the cluster's rebalance/re-dial took to show healthy service
    again.  ``tenants`` breaks the same client-observed numbers out per
    tenant namespace (including quota rejections); it stays ``None`` for
    untenanted replays.
    """

    suites: tuple[str, ...]
    seed: int
    arrival: str
    requests: int
    ok: int
    errors: int
    deadline_misses: int
    lost: int
    duration_s: float
    req_per_s: float
    warm_ratio: float
    error_rate: float
    deadline_miss_rate: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    fault_at_s: float | None = None
    recovery_window_s: float | None = None
    cluster: dict | None = None
    wire: dict | None = None
    tenants: dict | None = None

    def to_payload(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["suites"] = list(self.suites)
        return payload

    def report(self) -> str:
        """Human-readable multi-line summary (the CLI's stdout)."""
        lines = [
            f"replayed      {self.requests} requests over "
            f"{len(self.suites)} suites ({', '.join(self.suites)}) "
            f"in {self.duration_s:.2f}s ({self.req_per_s:.1f} req/s, "
            f"{self.arrival}-loop, seed {self.seed})",
            f"outcomes      {self.ok} ok, {self.errors} errors "
            f"({self.error_rate * 100:.1f}%), {self.deadline_misses} "
            f"deadline misses ({self.deadline_miss_rate * 100:.1f}%), "
            f"{self.lost} lost",
            f"warm ratio    {self.warm_ratio * 100:.1f}%",
            f"latency       p50 {self.p50_latency_ms:.3f} ms, "
            f"p95 {self.p95_latency_ms:.3f} ms, "
            f"p99 {self.p99_latency_ms:.3f} ms (client-observed)",
        ]
        if self.fault_at_s is not None:
            window = (
                f"{self.recovery_window_s:.2f}s"
                if self.recovery_window_s is not None
                else "never recovered"
            )
            lines.append(
                f"fault         injected at {self.fault_at_s:.2f}s; "
                f"recovery window {window}"
            )
        for tenant, block in (self.tenants or {}).items():
            lines.append(
                f"tenant {tenant:<7}{block['requests']} requests, "
                f"{block['ok']} ok, {block['errors']} errors "
                f"({block['quota_rejections']} over quota), "
                f"{block['deadline_misses']} deadline misses; "
                f"warm {block['warm_ratio'] * 100:.1f}%, "
                f"p50 {block['p50_latency_ms']:.3f} ms, "
                f"p95 {block['p95_latency_ms']:.3f} ms, "
                f"p99 {block['p99_latency_ms']:.3f} ms"
            )
        return "\n".join(lines)


def _tenant_blocks(outcomes) -> dict | None:
    """Per-tenant SLO blocks, or ``None`` when only the default tenant ran."""
    tenants = sorted({one.tenant for one in outcomes})
    if tenants in ([], [DEFAULT_TENANT]):
        return None
    blocks: dict[str, dict] = {}
    for tenant in tenants:
        subset = [one for one in outcomes if one.tenant == tenant]
        served = [one for one in subset if one.ok]
        latencies_ms = sorted(one.latency_s * 1000.0 for one in served)
        blocks[tenant] = {
            "requests": len(subset),
            "ok": len(served),
            "errors": sum(
                1 for one in subset if one.error is not None and not one.lost
            ),
            "quota_rejections": sum(
                1 for one in subset if one.error == "QuotaExceededError"
            ),
            "deadline_misses": sum(1 for one in subset if one.deadline_missed),
            "lost": sum(1 for one in subset if one.lost),
            "warm_ratio": (
                sum(1 for one in served if one.warm) / len(served)
                if served
                else 0.0
            ),
            "p50_latency_ms": _percentile(latencies_ms, 0.50),
            "p95_latency_ms": _percentile(latencies_ms, 0.95),
            "p99_latency_ms": _percentile(latencies_ms, 0.99),
        }
    return blocks


def _recovery_window(result: ReplayResult) -> float | None:
    """Fault time → first *post-fault-submitted* successful completion."""
    if result.fault_at_s is None:
        return None
    recovered = [
        outcome.completed_at_s
        for outcome in result.outcomes
        if outcome.ok and outcome.submitted_at_s >= result.fault_at_s
    ]
    if not recovered:
        return None
    return max(0.0, min(recovered) - result.fault_at_s)


def build_slo_report(
    result: ReplayResult,
    cluster=None,
    wire_delta=None,
) -> SLOReport:
    """Assemble the SLO report for one replay.

    ``cluster`` is an optional
    :class:`~repro.serve.supervisor.ClusterStats` (the cluster's own
    summed-histogram view, recorded for cross-checking the client-observed
    numbers); ``wire_delta`` an optional
    :class:`~repro.serve.metrics.WireSnapshot` already differenced over
    the replay window (``after.delta(before)``).
    """
    outcomes = result.outcomes
    served = [one for one in outcomes if one.ok]
    latencies_ms = sorted(one.latency_s * 1000.0 for one in served)
    errors = sum(1 for one in outcomes if one.error is not None and not one.lost)
    misses = sum(1 for one in outcomes if one.deadline_missed)
    lost = result.lost_requests
    total = len(outcomes)
    cluster_payload = None
    if cluster is not None:
        cluster_payload = {
            "shards": len(cluster.shards),
            "requests": cluster.requests,
            "warm_serves": cluster.warm_serves,
            "cold_serves": cluster.cold_serves,
            "dedup_hits": cluster.dedup_hits,
            "errors": cluster.errors,
            "warm_rate": cluster.warm_rate,
            "p50_latency_ms": cluster.p50_latency_ms,
            "p95_latency_ms": cluster.p95_latency_ms,
        }
    return SLOReport(
        suites=result.trace.suites_used,
        seed=result.trace.seed,
        arrival=result.trace.arrival,
        requests=total,
        ok=len(served),
        errors=errors,
        deadline_misses=misses,
        lost=lost,
        duration_s=result.duration_s,
        req_per_s=total / result.duration_s if result.duration_s > 0 else 0.0,
        warm_ratio=(
            sum(1 for one in served if one.warm) / len(served) if served else 0.0
        ),
        error_rate=errors / total if total else 0.0,
        deadline_miss_rate=misses / total if total else 0.0,
        p50_latency_ms=_percentile(latencies_ms, 0.50),
        p95_latency_ms=_percentile(latencies_ms, 0.95),
        p99_latency_ms=_percentile(latencies_ms, 0.99),
        fault_at_s=result.fault_at_s,
        recovery_window_s=_recovery_window(result),
        cluster=cluster_payload,
        wire=dataclasses.asdict(wire_delta) if wire_delta is not None else None,
        tenants=_tenant_blocks(outcomes),
    )


# -- the BENCH artifact -------------------------------------------------------


def resolve_sha() -> str:
    """The commit this run measures: ``$GITHUB_SHA``, else git, else "local"."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        probed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "local"
    sha = probed.stdout.strip()
    return sha if probed.returncode == 0 and sha else "local"


def bench_artifact_path(directory=None, sha: str | None = None) -> Path:
    """``<directory>/BENCH_<sha>.json`` — the per-commit BENCH artifact.

    ``directory`` defaults to the repository's ``benchmarks/`` when run
    from a checkout, else the working directory (matching where CI's
    ``--benchmark-json`` writes and what the upload step globs).
    """
    if directory is None:
        checkout = Path.cwd() / "benchmarks"
        directory = checkout if checkout.is_dir() else Path.cwd()
    return Path(directory) / f"BENCH_{sha or resolve_sha()}.json"


def merge_bench_payload(path, key: str, entries) -> dict:
    """Append ``entries`` to the list at ``key`` in the BENCH file at ``path``.

    Read-merge-write: whatever the file already holds — pytest-benchmark's
    ``{"benchmarks": [...]}`` payload, earlier loadgen reports, earlier
    floor records — survives; only the named list grows.  An unreadable or
    non-object file is preserved aside under ``"previous"`` rather than
    clobbered.  Returns the merged document.
    """
    target = Path(path)
    document: dict = {}
    if target.exists():
        try:
            loaded = json.loads(target.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            loaded = None
        if isinstance(loaded, dict):
            document = loaded
        elif loaded is not None:
            document = {"previous": loaded}
    bucket = document.get(key)
    if not isinstance(bucket, list):
        bucket = []
    bucket = bucket + [dict(entry) for entry in entries]
    document[key] = bucket
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=1, sort_keys=True))
    return document


def append_loadgen_report(report: SLOReport, path=None) -> Path:
    """Append one SLO report to the BENCH artifact; returns the file path."""
    target = bench_artifact_path() if path is None else Path(path)
    merge_bench_payload(target, "loadgen_reports", [report.to_payload()])
    return target
