"""The persistent per-device tuning database.

Winning configurations are remembered so a workload is searched once per
(kernel family, device, tuner version) and served from disk afterwards:

* records are keyed by the workload's *kernel fingerprint family*
  (:meth:`~repro.tune.space.Workload.fingerprint`, which hashes the wide IR
  the frontend builds — so records go stale when the frontend changes), the
  device name, and :data:`TUNER_VERSION` — all under a **tenant namespace**:
  the shared :data:`~repro.tenancy.DEFAULT_TENANT` namespace is the bare
  legacy key (pre-tenant databases need no migration to stay readable), and
  a non-default tenant's records carry a ``tenant::`` key prefix plus an
  explicit ``tenant`` field.  Lookups fall back from the request's tenant
  namespace to the shared default namespace on miss, so a tenant only forks
  a family's record when its own tuning run writes one;
* each record stores the winning candidate, its modeled score, the paper-
  default baseline, and search provenance (strategy, evaluations scored,
  space size, creation time);
* the JSON file is written atomically (a unique temp file + ``os.replace``),
  and every save first *merges* the current on-disk records (newest
  ``created_at`` per key wins) while holding the file's lock
  (:func:`repro.atomic_files.path_lock`), so parallel tuners writing to one
  database file cannot drop each other's winners — a crashed run can never
  corrupt previously saved ones;
* lookups are counted (:meth:`TuningDatabase.stats`), which is how the
  harnesses verify that a warm database skips the search entirely.

Instances are thread-safe: the serving subsystem (:mod:`repro.serve`) shares
one database across its worker pool, so every record access holds a lock.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.atomic_files import path_lock, replace_atomically
from repro.errors import TuningError
from repro.core.rewrite.options import KARATSUBA, SCHOOLBOOK
from repro.tenancy import DEFAULT_TENANT, qualify_key, validate_tenant
from repro.tune.space import Candidate, Workload

__all__ = ["TUNER_VERSION", "DbStats", "TuningRecord", "TuningDatabase"]

#: Bump when the search space, the cost model's candidate axes, or the record
#: schema change incompatibly: old records then miss and workloads re-tune.
TUNER_VERSION = 1

_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DbStats:
    """Lookup/store counters of one database instance."""

    hits: int
    misses: int
    stores: int
    records: int


@dataclass(frozen=True)
class TuningRecord:
    """One remembered winner for a (workload family, device, version) key.

    Attributes:
        fingerprint: the workload's kernel-family fingerprint.
        workload_key: human-readable workload identity (for provenance only).
        device: device short name the record was tuned for.
        tuner_version: :data:`TUNER_VERSION` at tuning time.
        candidate: the winning configuration.
        score_seconds: the winner's modeled seconds per workload unit.
        baseline_seconds: the paper-default configuration's modeled seconds.
        strategy: search strategy that found the winner.
        evaluations: distinct candidates scored by the search.
        space_size: size of the configuration space that was searched.
        created_at: UNIX timestamp of the tuning run.
        tenant: the tenant namespace the record belongs to
            (:data:`~repro.tenancy.DEFAULT_TENANT` for the shared
            namespace; pre-tenant files load with the default).
    """

    fingerprint: str
    workload_key: str
    device: str
    tuner_version: int
    candidate: Candidate
    score_seconds: float
    baseline_seconds: float
    strategy: str
    evaluations: int
    space_size: int
    created_at: float
    tenant: str = DEFAULT_TENANT

    def key(self) -> str:
        """The database key: tenant namespace + family + device + version.

        The default namespace is the *bare* legacy key (no prefix), which
        is what keeps pre-tenant database files readable and mergeable
        without rewriting; a non-default tenant's key carries a
        ``tenant::`` prefix.
        """
        return qualify_key(
            self.tenant, f"{self.fingerprint}::{self.device}::v{self.tuner_version}"
        )

    def to_json(self) -> dict:
        """JSON-serializable form of the record."""
        payload = dataclasses.asdict(self)
        payload["candidate"] = dataclasses.asdict(self.candidate)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> TuningRecord:
        """Rebuild a record from its JSON form (raising on corrupt data).

        Validates semantics, not just structure: a hand-edited database with
        an impossible candidate (unknown algorithm, non-power-of-two word
        width, zero batch) must fail *here* with a :class:`TuningError`, not
        later inside the frontends as a served "winner".  A record with no
        ``tenant`` field (every pre-tenant file) loads into the shared
        :data:`~repro.tenancy.DEFAULT_TENANT` namespace.
        """
        if not isinstance(payload, dict):
            raise TuningError(f"corrupt tuning record: {payload!r}")
        payload = dict(payload)
        payload.setdefault("tenant", DEFAULT_TENANT)
        try:
            validate_tenant(payload["tenant"])
        except ValueError as error:
            raise TuningError(f"corrupt tuning record: {error}") from None
        try:
            candidate = Candidate(**payload["candidate"])
            fields = {f.name: payload[f.name] for f in dataclasses.fields(cls)}
        except (KeyError, TypeError) as error:
            raise TuningError(f"corrupt tuning record: {error}") from None
        _validate_candidate(candidate)
        for name in ("score_seconds", "baseline_seconds"):
            if not isinstance(fields[name], (int, float)) or fields[name] <= 0:
                raise TuningError(f"corrupt tuning record: bad {name} {fields[name]!r}")
        for name in ("evaluations", "space_size", "tuner_version"):
            if not isinstance(fields[name], int) or fields[name] < 0:
                raise TuningError(f"corrupt tuning record: bad {name} {fields[name]!r}")
        fields["candidate"] = candidate
        return cls(**fields)


def _validate_candidate(candidate: Candidate) -> None:
    if candidate.multiplication not in (SCHOOLBOOK, KARATSUBA):
        raise TuningError(
            f"corrupt tuning record: unknown multiplication "
            f"{candidate.multiplication!r}"
        )
    word = candidate.word_bits
    if not isinstance(word, int) or word < 8 or word & (word - 1):
        raise TuningError(f"corrupt tuning record: bad word width {word!r}")
    if not isinstance(candidate.stage_span, int) or candidate.stage_span < 1:
        raise TuningError(
            f"corrupt tuning record: bad stage span {candidate.stage_span!r}"
        )
    if candidate.batch is not None and (
        not isinstance(candidate.batch, int) or candidate.batch < 1
    ):
        raise TuningError(f"corrupt tuning record: bad batch {candidate.batch!r}")


class TuningDatabase:
    """A JSON-backed store of winning configurations, one record per key.

    Args:
        path: JSON file to load from / save to; ``None`` keeps the database
            in memory only (handy for tests and one-shot tuning).
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: dict[str, TuningRecord] = {}
        self._hits = 0
        self._misses = 0
        self._stores = 0
        # Tombstones: key -> removal timestamp.  Persisted in the file and
        # merged like records, so a removal in one process cannot be
        # resurrected by another process's later save — unless that process
        # stores a strictly newer record under the key (a re-tune wins).
        self._dropped: dict[str, float] = {}
        self._lock = threading.RLock()
        if self.path is not None and self.path.exists():
            self._load()

    @staticmethod
    def parse_file(path: str | Path) -> tuple[dict[str, TuningRecord], dict[str, float]]:
        """Parse one database file into its (records, tombstones) sections.

        Raises :class:`TuningError` for unreadable, corrupt, or
        schema-mismatched files.  This is the read half that both loading
        and merge-on-save are built on.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise TuningError(f"cannot read tuning database {path}: {error}") from None
        if not isinstance(payload, dict) or "records" not in payload:
            raise TuningError(f"tuning database {path} has no 'records' section")
        if payload.get("schema") != _SCHEMA_VERSION:
            raise TuningError(
                f"tuning database {path} has schema {payload.get('schema')!r}, "
                f"expected {_SCHEMA_VERSION}"
            )
        dropped = payload.get("dropped", {})
        if not isinstance(dropped, dict) or not all(
            isinstance(stamp, (int, float)) for stamp in dropped.values()
        ):
            raise TuningError(f"tuning database {path} has a corrupt 'dropped' section")
        records = {
            key: TuningRecord.from_json(record)
            for key, record in payload["records"].items()
        }
        return records, dict(dropped)

    def _parse_file(self) -> tuple[dict[str, TuningRecord], dict[str, float]]:
        return self.parse_file(self.path)

    def _load(self) -> None:
        records, dropped = self._parse_file()
        self._dropped.update(dropped)
        for key, record in records.items():
            if self._dropped.get(key, float("-inf")) < record.created_at:
                self._records[key] = record

    @staticmethod
    def _key(
        workload: Workload, device_name: str, tenant: str = DEFAULT_TENANT
    ) -> str:
        return qualify_key(
            tenant, f"{workload.fingerprint()}::{device_name}::v{TUNER_VERSION}"
        )

    def lookup(
        self,
        workload: Workload,
        device_name: str,
        tenant: str = DEFAULT_TENANT,
    ) -> TuningRecord | None:
        """The remembered winner for (tenant, workload family, device), if any.

        A non-default tenant's lookup falls back to the shared
        :data:`~repro.tenancy.DEFAULT_TENANT` namespace on miss — a tenant
        inherits the shared winner until its own tuning run stores a
        tenant-scoped record (which then shadows the shared one).  A
        fallback hit counts as a hit.

        On a miss in a file-backed database the file is merged in, as a
        save would, and the lookup runs again: a winner another process
        saved after this instance loaded is found without a search.  The
        parse this costs is small beside the search a miss leads to, whose
        save parses the file again.
        """
        keys = [self._key(workload, device_name, tenant)]
        if tenant != DEFAULT_TENANT:
            keys.append(self._key(workload, device_name))
        with self._lock:
            record = self._find(keys)
            if record is None and self.path is not None:
                self._merge_from_disk()
                record = self._find(keys)
            if record is None:
                self._misses += 1
                return None
            self._hits += 1
            return record

    def _find(self, keys: list[str]) -> TuningRecord | None:
        for key in keys:
            record = self._records.get(key)
            if record is not None:
                return record
        return None

    def store(self, record: TuningRecord, save: bool = True) -> TuningRecord:
        """Remember a winner (and persist the database when file-backed)."""
        with self._lock:
            self._records[record.key()] = record
            self._dropped.pop(record.key(), None)
            self._stores += 1
            if save:
                self.save()
            return record

    def remove(self, key: str, save: bool = True) -> bool:
        """Forget one record by key; True when it was present.

        The key is tombstoned — in this instance and, once saved, in the
        file — so a concurrent writer's copy of the record cannot be
        resurrected by merge-on-save in *any* process; only a record created
        after the removal (a re-tune, via :meth:`store`) outlives it.
        """
        with self._lock:
            present = self._records.pop(key, None) is not None
            self._dropped[key] = self.timestamp()
            if save:
                self.save()
            return present

    def records(self) -> dict[str, TuningRecord]:
        """A snapshot of every record, keyed as stored (sorted by key)."""
        with self._lock:
            return dict(sorted(self._records.items()))

    def merge_sections(
        self, records: dict[str, TuningRecord], dropped: dict[str, float]
    ) -> None:
        """Merge another database's (records, tombstones) into this one.

        The merge behind merge-on-save: per key, the newest ``created_at``
        wins; a tombstone beats any record created at or before it, and a
        strictly newer record (a re-tune) beats the tombstone.
        """
        with self._lock:
            for key, stamp in dropped.items():
                if stamp > self._dropped.get(key, float("-inf")):
                    self._dropped[key] = stamp
            for key, stamp in self._dropped.items():
                mine = self._records.get(key)
                if mine is not None and mine.created_at <= stamp:
                    del self._records[key]
            for key, record in records.items():
                if self._dropped.get(key, float("-inf")) >= record.created_at:
                    continue
                mine = self._records.get(key)
                if mine is None or record.created_at > mine.created_at:
                    self._records[key] = record
                    self._dropped.pop(key, None)

    def _merge_from_disk(self) -> None:
        # Parallel tuners share one database file; a blind write would be
        # last-writer-wins and drop their records.  Adopt every on-disk
        # record and tombstone we do not have (or have an older version of).
        # A corrupt or foreign on-disk file is ignored: our snapshot then
        # simply replaces it.
        if not self.path.exists():
            return
        try:
            on_disk, dropped = self._parse_file()
        except TuningError:
            return
        self.merge_sections(on_disk, dropped)

    def save(self) -> None:
        """Atomically write the database to its file (no-op when in-memory).

        Concurrent-writer safe: under the file's lock (threads and
        processes alike), the current on-disk records are merged in (newest
        ``created_at`` per key wins) before the atomic replace, so two
        writers tuning different workloads against one file both keep their
        winners regardless of save order.
        """
        if self.path is None:
            return
        # The path lock spans merge -> write -> replace: a writer that merged
        # before another's replace landed would otherwise drop its records.
        with self._lock, path_lock(self.path):
            self._merge_from_disk()
            payload = {
                "schema": _SCHEMA_VERSION,
                "tuner_version": TUNER_VERSION,
                "records": {
                    key: record.to_json() for key, record in sorted(self._records.items())
                },
                "dropped": dict(sorted(self._dropped.items())),
            }
            replace_atomically(
                self.path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
            )

    @staticmethod
    def timestamp() -> float:
        """The provenance timestamp used for new records."""
        return time.time()

    def stats(self) -> DbStats:
        """Lookup/store counters and the current record count."""
        with self._lock:
            return DbStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                records=len(self._records),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records
