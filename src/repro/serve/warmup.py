"""Startup pre-warming: compile every recorded winner before traffic.

``warm_server`` walks the server's tuning database and serves every record
that (a) was tuned for one of the server's devices and (b) is live: it
carries the current :data:`~repro.tune.db.TUNER_VERSION` and still matches
its kernel family's fingerprint (:func:`classify_record`).  Each serve runs
through the normal front door, so the winning configuration is looked up
warm in the database (zero search), its kernel is compiled into the
session's content-addressed cache, and the result lands in the server's
resident table — after which identical traffic is answered with no
compilation and no database access at all.

Records that fail (b) are *stale*; warmup skips them (they would trigger a
fresh search, defeating the point of pre-warming) and reports them, so
operators can run :func:`repro.serve.invalidate.invalidate_stale`, which
drops exactly these records.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

from repro.errors import ServingError
from repro.tenancy import DEFAULT_TENANT, validate_tenant
from repro.tune.db import TUNER_VERSION, TuningRecord
from repro.tune.space import BLAS, NTT
from repro.serve.server import KernelServer, ServeRequest

__all__ = [
    "WarmupEntry",
    "WarmupReport",
    "classify_record",
    "request_from_record",
    "warm_server",
]

#: A workload key's optional ``/m<modulus_bits>`` suffix (a modulus other
#: than ``bits - 4``; see :attr:`~repro.tune.space.Workload.key`).
_MODULUS = r"(?:/m(?P<modulus>\d+))?$"
_NTT_KEY = re.compile(
    r"^ntt/(?P<op>[a-z_]+)/n(?P<size>\d+)/(?P<bits>\d+)b" + _MODULUS
)
_BLAS_KEY = re.compile(
    r"^blas/(?P<op>[a-z_]+)/e(?P<elements>\d+)/(?P<bits>\d+)b" + _MODULUS
)


def request_from_record(record: TuningRecord, target: str = "python_exec") -> ServeRequest:
    """Rebuild the serve request a tuning record answers.

    Parses the record's human-readable ``workload_key`` (the only workload
    identity a record stores besides the fingerprint), including the
    ``/m<modulus_bits>`` suffix of a non-default modulus; raises
    :class:`ServingError` for keys this version cannot parse.
    """
    match = _NTT_KEY.match(record.workload_key)
    if match is not None:
        shape = {"kind": NTT, "size": int(match.group("size"))}
    else:
        match = _BLAS_KEY.match(record.workload_key)
        if match is None:
            raise ServingError(
                f"cannot parse workload key {record.workload_key!r} "
                f"from the tuning database"
            )
        shape = {"kind": BLAS, "elements": int(match.group("elements"))}
    modulus = match.group("modulus")
    return ServeRequest(
        bits=int(match.group("bits")),
        operation=match.group("op"),
        modulus_bits=int(modulus) if modulus is not None else None,
        device=record.device,
        target=target,
        **shape,
    )


def classify_record(
    record: TuningRecord, target: str = "python_exec"
) -> tuple[str | None, ServeRequest | None]:
    """The one staleness rule: ``(reason, request)`` for one record.

    ``reason`` is ``None`` for a live record, ``"version"`` when it was
    tuned under another :data:`TUNER_VERSION` (its key is then not parsed,
    and ``request`` is ``None``), or ``"fingerprint"`` when its kernel
    family now builds different IR.  ``request`` is what the record
    answers.  Raises :class:`ServingError` when the key does not parse.
    Warm-up skips, and invalidation drops, exactly the records this calls
    stale.
    """
    if record.tuner_version != TUNER_VERSION:
        return "version", None
    request = request_from_record(record, target=target)
    if request.workload().fingerprint() != record.fingerprint:
        return "fingerprint", request
    return None, request


@dataclass(frozen=True)
class WarmupEntry:
    """Outcome of one database record during warmup."""

    db_key: str
    workload_key: str
    device: str
    # "warmed" | "stale-version" | "stale-fingerprint" | "other-device"
    # | "other-tenant" | "error"
    status: str
    detail: str = ""
    tenant: str = DEFAULT_TENANT


@dataclass(frozen=True)
class WarmupReport:
    """What warmup did, record by record."""

    entries: tuple[WarmupEntry, ...]
    seconds: float

    def _count(self, status: str) -> int:
        return sum(1 for entry in self.entries if entry.status == status)

    @property
    def warmed(self) -> int:
        """Records compiled into the cache and the resident table."""
        return self._count("warmed")

    @property
    def stale(self) -> int:
        """Records skipped because their version or fingerprint is stale."""
        return self._count("stale-version") + self._count("stale-fingerprint")

    @property
    def skipped_other_device(self) -> int:
        """Records for devices this server does not serve."""
        return self._count("other-device")

    @property
    def skipped_other_tenant(self) -> int:
        """Records outside the tenant namespace a scoped pass asked for."""
        return self._count("other-tenant")

    @property
    def errors(self) -> int:
        """Records that failed to parse or compile."""
        return self._count("error")

    def report(self) -> str:
        """Human-readable summary (one line per non-warmed record)."""
        lines = [
            f"warmup: {self.warmed}/{len(self.entries)} records warmed in "
            f"{self.seconds * 1e3:.1f} ms "
            f"({self.stale} stale, {self.skipped_other_device} other-device, "
            f"{self.errors} errors)"
        ]
        for entry in self.entries:
            if entry.status != "warmed":
                detail = f" ({entry.detail})" if entry.detail else ""
                lines.append(
                    f"  {entry.status}: {entry.workload_key} on {entry.device}{detail}"
                )
        return "\n".join(lines)


def warm_server(
    server: KernelServer,
    target: str = "python_exec",
    tenant: str | None = None,
) -> WarmupReport:
    """Serve every live database record so later traffic is answered warm.

    ``server`` is a :class:`KernelServer` or anything with its ``db``,
    ``devices`` and ``submit(request, tenant=...)``: the shard supervisor
    passes the records of its database file and routes each serve to the
    shard that owns the record's family.

    Requests are submitted together (the worker pool compiles them
    concurrently) and then awaited, so warmup wall time is bounded by the
    slowest family, not the sum.

    Each record warms under **its own** tenant namespace, so the served
    result lands exactly where that tenant's traffic will look for it.
    ``tenant`` scopes the pass: when set, records of other namespaces are
    skipped (``"other-tenant"``) instead of warmed.
    """
    if tenant is not None:
        validate_tenant(tenant)
    started = time.perf_counter()
    entries: list[WarmupEntry] = []
    pending: list[tuple[str, TuningRecord, object]] = []

    def note(db_key: str, record: TuningRecord, status: str, detail: str = "") -> None:
        entries.append(
            WarmupEntry(
                db_key,
                record.workload_key,
                record.device,
                status,
                detail,
                tenant=record.tenant,
            )
        )

    for db_key, record in server.db.records().items():
        if tenant is not None and record.tenant != tenant:
            detail = f"record belongs to tenant {record.tenant!r}"
            note(db_key, record, "other-tenant", detail)
            continue
        if record.device not in server.devices:
            note(db_key, record, "other-device")
            continue
        try:
            reason, request = classify_record(record, target=target)
            if reason is None:
                future = server.submit(request, tenant=record.tenant)
                pending.append((db_key, record, future))
        except ServingError as error:
            note(db_key, record, "error", str(error))
            continue
        if reason == "version":
            detail = f"record v{record.tuner_version}, tuner v{TUNER_VERSION}"
            note(db_key, record, "stale-version", detail)
        elif reason == "fingerprint":
            detail = "kernel family changed since tuning"
            note(db_key, record, "stale-fingerprint", detail)
    for db_key, record, future in pending:
        try:
            result = future.result()
        except Exception as error:  # noqa: BLE001 - reported, not fatal
            note(db_key, record, "error", str(error))
        else:
            detail = "tuned from database" if result.from_database else "re-tuned"
            note(db_key, record, "warmed", detail)
    return WarmupReport(entries=tuple(entries), seconds=time.perf_counter() - started)
