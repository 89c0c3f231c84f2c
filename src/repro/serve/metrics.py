"""Serving observability: request counters and fixed-bucket latency histograms.

A :class:`ServerMetrics` lives inside every :class:`~repro.serve.KernelServer`
and classifies each request into exactly one of four outcomes:

* **warm** — answered from the server's resident table: no compilation, no
  tuning-database access, no worker dispatch (the steady state after warmup);
* **dedup** — attached to an identical request already in flight, sharing its
  single compilation;
* **cold** — went through the full path (tuning lookup/search + compilation);
* **error** — the request raised.

Each warm or cold serve adds one to a bucket of the fixed log-2 latency
histogram (:data:`HISTOGRAM_BUCKET_BOUNDS_MS`), in the totals and in its
tenant's slice (dedup'd requests resolve with their leader).  Every count is
cumulative since the server started, so a histogram's sum equals its class
counter, and counts from different servers, shards or tenants add field by
field (:func:`merge_counts`).  :meth:`ServerMetrics.snapshot` folds them into
an immutable :class:`MetricsSnapshot` whose p50/p95 are read off the
histograms (:func:`percentile_from_histogram`); that one snapshot backs
``--stats``, ``/metrics`` and a shard's stats reply.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import ClassVar

from repro.tenancy import DEFAULT_TENANT

__all__ = [
    "MetricsSnapshot",
    "ServerMetrics",
    "WireProfile",
    "WireSnapshot",
    "HISTOGRAM_BUCKET_BOUNDS_MS",
    "add_histograms",
    "latency_histogram",
    "merge_counts",
    "nearest_rank",
    "percentile_from_histogram",
]

#: Upper bucket bounds (milliseconds) of the fixed latency histogram: log-2
#: spaced from 1 µs to ~17 s, with one implicit overflow bucket at the end.
#: The bounds being *fixed* is what makes histograms from different servers
#: directly summable.
HISTOGRAM_BUCKET_BOUNDS_MS = tuple(0.001 * (1 << i) for i in range(25))


def _bucket(latency_s: float) -> int:
    """The histogram bucket of one latency: the first bound at or above it."""
    return bisect_left(HISTOGRAM_BUCKET_BOUNDS_MS, latency_s * 1e3)


def latency_histogram(samples_s) -> tuple[int, ...]:
    """Bucket latency samples (seconds) into the fixed histogram.

    Returns one count per bound in :data:`HISTOGRAM_BUCKET_BOUNDS_MS` plus a
    final overflow bucket: the buckets :class:`ServerMetrics` counts into.
    """
    counts = [0] * (len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1)
    for sample in samples_s:
        counts[_bucket(sample)] += 1
    return tuple(counts)


def add_histograms(*histograms) -> tuple[int, ...]:
    """The bucket-by-bucket sum of histograms (shorter ones count as zeros)."""
    total = [0] * max(map(len, histograms), default=0)
    for counts in histograms:
        for index, count in enumerate(counts):
            total[index] += count
    return tuple(total)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def merge_counts(blocks) -> dict:
    """Merge blocks of counts: integers add, histograms add bucket by bucket.

    The one merge behind every aggregate — shard stats into cluster totals,
    and one tenant's blocks from every shard into its rollup.  Each block is
    a mapping; a value that is neither an integer nor a list of integers is
    left out, so a malformed block from a peer degrades instead of failing
    the stats path.
    """
    merged: dict = {}
    for block in blocks:
        for name, value in block.items():
            if _is_count(value):
                merged[name] = merged.get(name, 0) + value
            elif isinstance(value, (list, tuple)) and all(map(_is_count, value)):
                merged[name] = add_histograms(merged.get(name, ()), value)
    return merged


def nearest_rank(count: int, q: float) -> int:
    """The 1-based nearest rank of the ``q``-quantile among ``count`` values.

    ``ceil(q * count)``, at least 1.  ``q`` is a fraction in ``[0.0, 1.0]``
    — passing a percent (``q=95``) raises ``ValueError`` instead of silently
    reporting the maximum.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be a fraction in [0, 1], got {q!r}")
    return max(1, math.ceil(q * count))


def percentile_from_histogram(counts, q: float) -> float:
    """Approximate the ``q``-quantile (ms) of a bucketed latency histogram.

    Returns the upper bound of the bucket holding the :func:`nearest_rank`
    sample, so the answer is at least the exact quantile and within one
    log-2 bucket of it.  ``q=0.0`` reports the first occupied bucket's bound
    and ``q=1.0`` the last occupied one; an empty (or all-zero) histogram
    reports 0.0.  Counts beyond the known bounds — including the overflow
    bucket — report the largest *finite* bound, so the result never indexes
    past :data:`HISTOGRAM_BUCKET_BOUNDS_MS`.
    """
    total = sum(counts)
    rank = nearest_rank(total, q)
    if not total:
        return 0.0
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= rank:
            bounded = min(index, len(HISTOGRAM_BUCKET_BOUNDS_MS) - 1)
            return HISTOGRAM_BUCKET_BOUNDS_MS[bounded]
    # Unreachable while rank <= total, but a malformed counts iterable
    # (negative entries) must still not index past the last bucket.
    return HISTOGRAM_BUCKET_BOUNDS_MS[-1]


@dataclass(frozen=True)
class MetricsSnapshot:
    """One immutable view of a server's counters and latency histograms.

    Every count is cumulative since the server started.

    Attributes:
        requests: every request received (sum of the four outcome classes).
        warm_serves: requests answered from the resident table.
        cold_serves: requests that went through tuning + compilation.
        dedup_hits: requests that shared an in-flight identical request.
        errors: requests that raised.
        tune_batches: micro-batches the tuning batcher executed.
        batched_tunes: tuning requests processed inside those batches.
        queue_depth: in-flight (submitted, unfinished) requests right now.
        resident_kernels: fully-served results held in the resident table.
        warm_histogram: warm serve latencies, one count per bucket of
            :data:`HISTOGRAM_BUCKET_BOUNDS_MS` plus overflow; sums to
            ``warm_serves``.
        cold_histogram: the same for cold serves; sums to ``cold_serves``.
        tenants: per-tenant blocks (``requests``, ``warm_serves``,
            ``cold_serves``, ``dedup_hits``, ``errors`` and both
            histograms); empty when only the default tenant has been seen,
            so untenanted deployments are byte-identical to pre-tenancy
            snapshots on the wire.

    The percentiles are properties read off the histograms: each is the
    upper bound of the bucket holding the nearest-rank sample.
    """

    requests: int
    warm_serves: int
    cold_serves: int
    dedup_hits: int
    errors: int
    tune_batches: int
    batched_tunes: int
    queue_depth: int
    resident_kernels: int
    warm_histogram: tuple[int, ...]
    cold_histogram: tuple[int, ...]
    tenants: dict = field(default_factory=dict)

    #: The histograms' bucket bounds, for renderers that take plain objects.
    bucket_bounds_ms: ClassVar[tuple[float, ...]] = HISTOGRAM_BUCKET_BOUNDS_MS

    def counts(self) -> dict:
        """The counter and histogram fields: what :func:`merge_counts` adds."""
        return {
            one.name: getattr(self, one.name)
            for one in fields(MetricsSnapshot)
            if one.name != "tenants"
        }

    @property
    def p50_latency_ms(self) -> float:
        """Median serve latency, warm and cold serves together."""
        return percentile_from_histogram(
            add_histograms(self.warm_histogram, self.cold_histogram), 0.50
        )

    @property
    def p95_latency_ms(self) -> float:
        """95th-percentile serve latency, warm and cold serves together."""
        return percentile_from_histogram(
            add_histograms(self.warm_histogram, self.cold_histogram), 0.95
        )

    @property
    def warm_p50_latency_ms(self) -> float:
        """Median latency of warm serves alone."""
        return percentile_from_histogram(self.warm_histogram, 0.50)

    @property
    def cold_p50_latency_ms(self) -> float:
        """Median latency of cold serves alone."""
        return percentile_from_histogram(self.cold_histogram, 0.50)

    @property
    def warm_rate(self) -> float:
        """Fraction of served requests answered warm (0.0 when unused)."""
        served = self.warm_serves + self.cold_serves
        return self.warm_serves / served if served else 0.0

    def _headline(self) -> str:
        return f"requests      {self.requests}"

    def _details(self) -> list[str]:
        return []

    def report(self) -> str:
        """Human-readable multi-line summary (the ``--stats`` output)."""
        return "\n".join(
            [
                f"{self._headline()} "
                f"(warm {self.warm_serves}, cold {self.cold_serves}, "
                f"dedup {self.dedup_hits}, errors {self.errors})",
                f"warm rate     {self.warm_rate * 100:.1f}%",
                f"tuning        {self.batched_tunes} tunes in {self.tune_batches} batches",
                f"queue depth   {self.queue_depth} in flight, "
                f"{self.resident_kernels} resident kernels",
                f"latency       p50 ≤{self.p50_latency_ms:.3f} ms, "
                f"p95 ≤{self.p95_latency_ms:.3f} ms "
                f"(warm p50 ≤{self.warm_p50_latency_ms:.3f} ms, "
                f"cold p50 ≤{self.cold_p50_latency_ms:.3f} ms)",
                *self._details(),
            ]
        )


@dataclass(frozen=True)
class WireSnapshot:
    """One immutable view of the supervisor's wire-path costs.

    Attributes:
        messages_sent: request messages encoded and enqueued for shards.
        messages_received: reply messages decoded from shards.
        flushes: socket flushes that carried those messages or
            control-plane probes (coalescing shows up as
            ``messages_sent / flushes`` > 1).
        bytes_sent: encoded request bytes handed to transports.
        bytes_received: reply bytes pulled off transports.
        encode_s: wall time spent in ``encode_message`` on the warm path.
        decode_s: wall time spent in ``decode_message`` on reply frames.
        route_s: wall time spent picking a shard in the router.
        flush_s: wall time spent writing/flushing batches to transports.
        kernels_unpickled: executable-kernel frames unpickled on arrival.
        kernels_reused: executable-kernel frames answered by the kernel
            decoded earlier from identical bytes.
        kernels_evicted: decoded kernels dropped from that memo for room.

    :class:`WireProfile` leaves the three ``kernels_*`` counts at 0;
    :meth:`~repro.serve.ShardSupervisor.wire_snapshot` reads them from the
    decode memo of :mod:`repro.serve.protocol` when the snapshot is taken,
    so they cover every trusted decode in the whole process, not one
    supervisor's links alone.
    """

    messages_sent: int
    messages_received: int
    flushes: int
    bytes_sent: int
    bytes_received: int
    encode_s: float
    decode_s: float
    route_s: float
    flush_s: float
    kernels_unpickled: int
    kernels_reused: int
    kernels_evicted: int

    @property
    def coalescing_ratio(self) -> float:
        """Mean messages per flush (1.0 = no batching; 0.0 when unused)."""
        return self.messages_sent / self.flushes if self.flushes else 0.0

    def delta(self, since: "WireSnapshot") -> "WireSnapshot":
        """The activity *between* two snapshots of the same profile.

        Snapshots are monotonic totals since the supervisor started, so a
        caller polling ``--stats`` repeatedly must difference consecutive
        snapshots rather than re-reading the totals as fresh activity:

            before = supervisor.wire_snapshot()
            ...
            window = supervisor.wire_snapshot().delta(before)
        """
        return WireSnapshot(
            messages_sent=self.messages_sent - since.messages_sent,
            messages_received=self.messages_received - since.messages_received,
            flushes=self.flushes - since.flushes,
            bytes_sent=self.bytes_sent - since.bytes_sent,
            bytes_received=self.bytes_received - since.bytes_received,
            encode_s=self.encode_s - since.encode_s,
            decode_s=self.decode_s - since.decode_s,
            route_s=self.route_s - since.route_s,
            flush_s=self.flush_s - since.flush_s,
            kernels_unpickled=self.kernels_unpickled - since.kernels_unpickled,
            kernels_reused=self.kernels_reused - since.kernels_reused,
            kernels_evicted=self.kernels_evicted - since.kernels_evicted,
        )

    def report(self) -> str:
        """Human-readable one-liner for the cluster stats report."""
        return (
            f"wire          {self.messages_sent} sent / "
            f"{self.messages_received} recv in {self.flushes} flushes "
            f"({self.coalescing_ratio:.2f} msg/flush, "
            f"{self.bytes_sent} B out, {self.bytes_received} B in; "
            f"encode {self.encode_s * 1e3:.1f} ms, "
            f"decode {self.decode_s * 1e3:.1f} ms, "
            f"route {self.route_s * 1e3:.1f} ms, "
            f"flush {self.flush_s * 1e3:.1f} ms; "
            f"kernels {self.kernels_unpickled} unpickled, "
            f"{self.kernels_reused} reused, {self.kernels_evicted} evicted)"
        )


class WireProfile:
    """Thread-safe accumulator for the supervisor's wire-path profile.

    Dispatchers, sender threads, and reader threads all record into one
    instance; :meth:`snapshot` folds it into an immutable
    :class:`WireSnapshot` for :class:`~repro.serve.ClusterStats`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._messages_sent = 0
        self._messages_received = 0
        self._flushes = 0
        self._bytes_sent = 0
        self._bytes_received = 0
        self._encode_s = 0.0
        self._decode_s = 0.0
        self._route_s = 0.0
        self._flush_s = 0.0

    def record_send(self, size: int, encode_s: float, route_s: float = 0.0) -> None:
        """Count one encoded request message of ``size`` bytes."""
        with self._lock:
            self._messages_sent += 1
            self._bytes_sent += size
            self._encode_s += encode_s
            self._route_s += route_s

    def record_receive(self, size: int, decode_s: float) -> None:
        """Count one decoded reply message of ``size`` bytes."""
        with self._lock:
            self._messages_received += 1
            self._bytes_received += size
            self._decode_s += decode_s

    def record_flush(self, elapsed_s: float) -> None:
        """Count one transport flush (however many messages it carried)."""
        with self._lock:
            self._flushes += 1
            self._flush_s += elapsed_s

    def snapshot(self) -> WireSnapshot:
        """Fold the counters into an immutable snapshot."""
        with self._lock:
            return WireSnapshot(
                messages_sent=self._messages_sent,
                messages_received=self._messages_received,
                flushes=self._flushes,
                bytes_sent=self._bytes_sent,
                bytes_received=self._bytes_received,
                encode_s=self._encode_s,
                decode_s=self._decode_s,
                route_s=self._route_s,
                flush_s=self._flush_s,
                kernels_unpickled=0,
                kernels_reused=0,
                kernels_evicted=0,
            )


def _new_counts() -> dict:
    """A zeroed slice of the outcome counters: the totals, or one tenant's."""
    buckets = len(HISTOGRAM_BUCKET_BOUNDS_MS) + 1
    return {
        "requests": 0,
        "warm_serves": 0,
        "cold_serves": 0,
        "dedup_hits": 0,
        "errors": 0,
        "warm_histogram": [0] * buckets,
        "cold_histogram": [0] * buckets,
    }


def _block(counts: dict, histogram=list) -> dict:
    """A copy of a slice, its histograms copied into ``histogram``s."""
    return {
        name: histogram(value) if isinstance(value, list) else value
        for name, value in counts.items()
    }


class ServerMetrics:
    """Thread-safe counters behind :meth:`KernelServer.metrics_snapshot`.

    Every recording method takes the request's tenant and counts into the
    totals and into that tenant's slice; warm and cold serves also add one
    to their latency bucket in both.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals = _new_counts()
        self._tenants: dict[str, dict] = {}
        self._tune_batches = 0
        self._batched_tunes = 0

    def _count(
        self, tenant: str, counter: str, histogram: str | None = None, bucket: int = 0
    ) -> None:
        with self._lock:
            tenant_counts = self._tenants.get(tenant)
            if tenant_counts is None:
                tenant_counts = self._tenants[tenant] = _new_counts()
            for counts in (self._totals, tenant_counts):
                counts[counter] += 1
                if histogram is not None:
                    counts[histogram][bucket] += 1

    def record_request(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one incoming request (before its outcome is known)."""
        self._count(tenant, "requests")

    def record_warm(self, latency_s: float, tenant: str = DEFAULT_TENANT) -> None:
        """Count one resident-table serve in its latency bucket."""
        self._count(tenant, "warm_serves", "warm_histogram", _bucket(latency_s))

    def record_cold(self, latency_s: float, tenant: str = DEFAULT_TENANT) -> None:
        """Count one full-path (tune + compile) serve in its latency bucket."""
        self._count(tenant, "cold_serves", "cold_histogram", _bucket(latency_s))

    def record_dedup(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one request attached to an in-flight identical request."""
        self._count(tenant, "dedup_hits")

    def record_error(self, tenant: str = DEFAULT_TENANT) -> None:
        """Count one failed request."""
        self._count(tenant, "errors")

    def record_tune_batch(self, size: int) -> None:
        """Count one executed tuning micro-batch of ``size`` requests."""
        with self._lock:
            self._tune_batches += 1
            self._batched_tunes += size

    def snapshot(self, queue_depth: int = 0, resident_kernels: int = 0) -> MetricsSnapshot:
        """Fold the counters into an immutable snapshot, under one lock.

        ``queue_depth`` and ``resident_kernels`` are gauges owned by the
        server (they are sizes of its tables), passed in at snapshot time.
        The per-tenant blocks stay empty while only the default tenant has
        been seen: an untenanted server's stats replies stay byte-identical
        to the pre-tenant wire, and the breakdown (including the default
        slice) appears the moment a second namespace shows up.
        """
        with self._lock:
            return MetricsSnapshot(
                **_block(self._totals, tuple),
                tune_batches=self._tune_batches,
                batched_tunes=self._batched_tunes,
                queue_depth=queue_depth,
                resident_kernels=resident_kernels,
                tenants=(
                    {
                        tenant: _block(counts)
                        for tenant, counts in sorted(self._tenants.items())
                    }
                    if set(self._tenants) - {DEFAULT_TENANT}
                    else {}
                ),
            )
