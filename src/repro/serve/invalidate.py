"""Live invalidation: drop stale winners, optionally re-tune their families.

A tuning record goes stale in two ways:

* **version** — :data:`~repro.tune.db.TUNER_VERSION` moved past the record's
  (the search space or schema changed incompatibly), or
* **fingerprint** — the frontend now builds different IR for the record's
  kernel family, so the stored fingerprint no longer matches.

Stale records are invisible to lookups (both the version and the fingerprint
are part of the database key), but they linger in the file, are re-reported
by every warmup, and their served kernels may still sit in the server's
resident table and kernel cache.  :func:`invalidate_stale` removes all three:
the database records (tombstoned, so merge-on-save cannot resurrect them),
the matching resident results, and the cached artifacts behind them.  With
``refresh=True`` the affected families are re-tuned and re-served through
the server's worker pool (:func:`refresh_stale`), so traffic keeps hitting
warm answers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ServingError
from repro.tenancy import split_tenant, validate_tenant
from repro.tune.db import TUNER_VERSION, TuningDatabase, TuningRecord
from repro.serve.server import KernelServer, ServeResult
from repro.serve.warmup import request_from_record

__all__ = [
    "StaleRecord",
    "InvalidationReport",
    "find_stale",
    "invalidate_stale",
    "refresh_stale",
]


@dataclass(frozen=True)
class StaleRecord:
    """One database record that no longer serves its family."""

    db_key: str
    record: TuningRecord
    reason: str  # "version" | "fingerprint" | "unparsable"


@dataclass(frozen=True)
class InvalidationReport:
    """What one invalidation pass found and removed."""

    checked: int
    stale: tuple[StaleRecord, ...]
    dropped_records: int
    evicted_resident: int
    evicted_artifacts: int
    refreshed: tuple[str, ...]
    seconds: float

    def _count(self, reason: str) -> int:
        return sum(1 for entry in self.stale if entry.reason == reason)

    @property
    def stale_version(self) -> int:
        """Records invalidated by a :data:`TUNER_VERSION` change."""
        return self._count("version")

    @property
    def stale_fingerprint(self) -> int:
        """Records invalidated by a kernel-family fingerprint change."""
        return self._count("fingerprint")

    def to_payload(self) -> dict:
        """JSON-ready summary (what a ``ControlReply`` carries back)."""
        return {
            "kind": "invalidation",
            "checked": self.checked,
            "stale": len(self.stale),
            "stale_version": self.stale_version,
            "stale_fingerprint": self.stale_fingerprint,
            "dropped_records": self.dropped_records,
            "evicted_resident": self.evicted_resident,
            "evicted_artifacts": self.evicted_artifacts,
            "refreshed": list(self.refreshed),
            "seconds": self.seconds,
        }

    def report(self) -> str:
        """Human-readable summary of the pass."""
        lines = [
            f"invalidation: {len(self.stale)}/{self.checked} records stale "
            f"({self.stale_version} version, {self.stale_fingerprint} fingerprint, "
            f"{self._count('unparsable')} unparsable); "
            f"dropped {self.dropped_records} records, evicted "
            f"{self.evicted_resident} resident results and "
            f"{self.evicted_artifacts} cached artifacts in {self.seconds * 1e3:.1f} ms"
        ]
        for entry in self.stale:
            lines.append(
                f"  {entry.reason}: {entry.record.workload_key} on {entry.record.device}"
            )
        if self.refreshed:
            lines.append(f"  re-tuned: {', '.join(self.refreshed)}")
        return "\n".join(lines)


def find_stale(
    db: TuningDatabase, tenant: str | None = None
) -> tuple[StaleRecord, ...]:
    """Every record whose version or kernel-family fingerprint is stale.

    ``tenant`` scopes the scan to one namespace; ``None`` scans them all.
    """
    if tenant is not None:
        validate_tenant(tenant)
    stale: list[StaleRecord] = []
    for db_key, record in db.records().items():
        if tenant is not None and record.tenant != tenant:
            continue
        if record.tuner_version != TUNER_VERSION:
            stale.append(StaleRecord(db_key, record, "version"))
            continue
        try:
            request = request_from_record(record)
        except ServingError:
            stale.append(StaleRecord(db_key, record, "unparsable"))
            continue
        if request.workload().fingerprint() != record.fingerprint:
            stale.append(StaleRecord(db_key, record, "fingerprint"))
    return tuple(stale)


def invalidate_stale(
    server: KernelServer,
    refresh: bool = False,
    target: str = "python_exec",
    tenant: str | None = None,
) -> InvalidationReport:
    """Drop every stale record and the served state derived from it.

    With ``refresh=True``, each dropped family that this server's devices
    cover is re-tuned (a fresh search under the current tuner version) and
    re-served through the worker pool before returning — the "re-tune stale
    families in the background" half of live invalidation; the requests run
    concurrently on the pool even though this call waits for them.

    ``tenant`` scopes the pass to one namespace: only that tenant's records
    are dropped and only *its* resident results evicted — tenant A's
    invalidation leaves tenant B's warm state untouched even when both
    serve the same kernel family.
    """
    started = time.perf_counter()
    checked = len(server.db.records())
    stale = find_stale(server.db, tenant=tenant)

    dropped = 0
    for entry in stale:
        if server.db.remove(entry.db_key, save=False):
            dropped += 1
    if dropped:
        server.db.save()

    # Evict served state belonging to the dropped families: resident results
    # whose (tenant, workload, device) match a dropped record, and their
    # artifacts in the session's kernel cache.  The tenant is part of the
    # family, so dropping tenant A's record never evicts tenant B's warm
    # result for the same kernel.
    stale_families = {
        (entry.record.tenant, entry.record.workload_key, entry.record.device)
        for entry in stale
    }
    evicted_resident = 0
    evicted_artifacts = 0
    for serve_key, result in server.resident_results().items():
        resident_tenant, _ = split_tenant(serve_key)
        family = (resident_tenant, result.request.workload().key, result.request.device)
        if family in stale_families:
            if server.evict_resident(serve_key):
                evicted_resident += 1
            if server.session.evict(result.cache_key):
                evicted_artifacts += 1

    refreshed = refresh_stale(server, stale, target=target) if refresh else ()
    return InvalidationReport(
        checked=checked,
        stale=stale,
        dropped_records=dropped,
        evicted_resident=evicted_resident,
        evicted_artifacts=evicted_artifacts,
        refreshed=tuple(result.request.workload().key for result in refreshed),
        seconds=time.perf_counter() - started,
    )


def refresh_stale(
    server, stale: tuple[StaleRecord, ...], target: str = "python_exec"
) -> tuple[ServeResult, ...]:
    """Re-serve each stale record's family once, waiting for every serve.

    ``server`` is a :class:`KernelServer` or anything with its ``devices``
    and ``submit(request, tenant=...)`` — the shard supervisor routes these
    serves to the shard that owns each family.  Records for other devices,
    and records whose workload key does not parse, are skipped.  The
    requests run concurrently; the first failure is raised.
    """
    pending = []
    for entry in stale:
        if entry.record.device not in server.devices:
            continue
        try:
            # A version-stale record can *also* carry an unparsable legacy
            # workload key — it is classified by the first test that
            # fails, so parse defensively here.
            request = request_from_record(entry.record, target=target)
        except ServingError:
            continue
        pending.append(server.submit(request, tenant=entry.record.tenant))
    return tuple(future.result() for future in pending)
