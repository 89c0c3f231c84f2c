"""Live invalidation: drop stale winners, optionally re-tune their families.

A tuning record goes stale in two ways:

* **version** — :data:`~repro.tune.db.TUNER_VERSION` moved past the record's
  (the search space or schema changed incompatibly), or
* **fingerprint** — the frontend now builds different IR for the record's
  kernel family, so the stored fingerprint no longer matches.

Every lookup keys on this build's version and fingerprint, so a stale
record is never hit and nothing served came from one; it only lingers in
the file and is re-reported by every warm-up.  :func:`invalidate_stale`
makes one pass over one database: it tombstones the stale records (so
merge-on-save cannot bring them back) and saves once.  With
``refresh=True`` each stale family is then re-served once through the
front door, so its traffic finds a current winner.  The staleness rule is
:func:`~repro.serve.warmup.classify_record`, the one warm-up skips by.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ServingError
from repro.tenancy import validate_tenant
from repro.tune.db import TuningDatabase, TuningRecord
from repro.serve.warmup import classify_record, request_from_record

__all__ = [
    "StaleRecord",
    "InvalidationReport",
    "find_stale",
    "invalidate_stale",
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

    def report(self) -> str:
        """Human-readable summary of the pass."""
        lines = [
            f"invalidation: {len(self.stale)}/{self.checked} records stale "
            f"({self.stale_version} version, {self.stale_fingerprint} fingerprint, "
            f"{self._count('unparsable')} unparsable); "
            f"dropped {self.dropped_records} records in {self.seconds * 1e3:.1f} ms"
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
        try:
            reason, _ = classify_record(record)
        except ServingError:
            reason = "unparsable"
        if reason is not None:
            stale.append(StaleRecord(db_key, record, reason))
    return tuple(stale)


def invalidate_stale(
    server, refresh: bool = False, tenant: str | None = None
) -> InvalidationReport:
    """Drop every stale record in one save; with ``refresh``, re-tune.

    ``server`` is a :class:`~repro.serve.server.KernelServer` or anything
    with its ``db``, ``devices`` and ``submit(request, tenant=...)``: the
    shard supervisor passes the records of its database file and routes
    each refresh to the shard that owns the family.

    With ``refresh=True``, each dropped family that the server's devices
    cover is re-served once (a fresh search under the current tuner
    version) before returning; the serves run concurrently, and the first
    failure is raised.  A record whose workload key does not parse is
    dropped but not re-served.

    ``tenant`` scopes the pass to one namespace: only that tenant's
    records are dropped.
    """
    started = time.perf_counter()
    db = server.db
    checked = len(db.records())
    stale = find_stale(db, tenant=tenant)
    dropped = sum(db.remove(entry.db_key, save=False) for entry in stale)
    if dropped:
        db.save()
    pending = []
    for entry in stale if refresh else ():
        if entry.record.device not in server.devices:
            continue
        try:
            request = request_from_record(entry.record)
        except ServingError:
            continue
        pending.append(server.submit(request, tenant=entry.record.tenant))
    return InvalidationReport(
        checked=checked,
        stale=stale,
        dropped_records=dropped,
        refreshed=tuple(future.result().request.workload().key for future in pending),
        seconds=time.perf_counter() - started,
    )
