"""The long-running kernel server: one shared compiler, many requesters.

A :class:`KernelServer` owns one thread-safe :class:`CompilerSession` and one
:class:`TuningDatabase` and serves compile/tune requests concurrently:

* **Request front door** — :meth:`KernelServer.submit` returns a future;
  :meth:`KernelServer.serve` blocks for the result.  Work runs on a bounded
  worker pool.
* **Resident table (pre-warmed cache)** — every fully-served result is kept
  by request key; an identical later request is answered *warm*: no kernel
  build, no compilation, no tuning-database access.  :mod:`repro.serve.warmup`
  fills this table from the tuning database before traffic arrives.
* **In-flight deduplication** — concurrent requests for the same key share
  one compilation: the first creates the future, the rest attach to it.
* **Tuning micro-batches** — cold requests that need tuning are queued and
  drained by a dedicated batcher thread that groups them by device, runs one
  :class:`~repro.tune.Autotuner` per device group, and persists the database
  once per batch (merge-on-save makes that safe across processes).

The server is the subsystem the ROADMAP's "tuned-kernel serving" item asks
for: `repro.tune` finds and remembers winners; this module serves them to
heavy traffic without re-paying cold compilation per process or per request.
"""

from __future__ import annotations

import contextvars
import dataclasses
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import ServingError, UnknownTargetError
from repro.core.driver import CompilerSession, get_target
from repro.core.driver.cache import ContentAddressedCache
from repro.kernels.config import KernelConfig
from repro.obs import trace as tracing
from repro.tenancy import DEFAULT_TENANT, qualify_key, split_tenant, validate_tenant
from repro.tune.db import TuningDatabase
from repro.tune.space import BLAS, NTT, Workload
from repro.tune.tuner import Autotuner, TuningResult
from repro.serve.metrics import MetricsSnapshot, ServerMetrics

__all__ = ["ServeRequest", "ServeResult", "KernelServer", "check_servable", "serve_key"]


def check_servable(request: ServeRequest) -> None:
    """Refuse, before any work, a target whose artifact is a ``library``.

    A library is loaded into the process that builds it: it cannot cross
    the wire, and building one would run the C compiler for whoever sent
    the request.  Unknown targets pass here and fail where they always
    have, in the compile.
    """
    try:
        artifact = get_target(request.target).artifact
    except UnknownTargetError:
        return
    if artifact == "library":
        raise ServingError(
            f"target {request.target!r} cannot be served: its artifact is a "
            f"library loaded into the process that builds it; request 'c99' "
            f"source or 'python_exec' and build it on the caller's side"
        )


def serve_key(tenant: str, request: ServeRequest) -> str:
    """THE tenant-qualified serve key — the only place its format lives.

    Every resident-table entry and in-flight-dedup slot keys through this
    helper: the :data:`~repro.tenancy.DEFAULT_TENANT` namespace is the bare
    :meth:`ServeRequest.key` (identical to the pre-tenant format), and any
    other tenant's key carries a ``tenant::`` prefix.  Hand-building
    ``f"{tenant}::{key}"`` anywhere else is a bug — the format changed once
    already (this refactor) and call sites that bypassed the helper were
    exactly the ones that broke.
    """
    return qualify_key(tenant, request.key())


@dataclass(frozen=True)
class ServeRequest:
    """One kernel request: what to serve, for which device, on which target.

    Attributes:
        kind: ``"ntt"`` or ``"blas"``.
        bits: logical operand bit-width.
        operation: butterfly variant (NTT) or BLAS operation; ``None`` picks
            the kind's default (``cooley_tukey`` / ``vmul``).
        size: transform length for NTT requests.
        elements: vector elements for BLAS requests.
        modulus_bits: modulus width; ``None`` follows the paper's ``bits - 4``
            convention.
        device: device the tuned configuration is optimized for.
        target: backend artifact to serve (``python_exec``/``cuda``/``c99``;
            a ``library`` target such as ``native`` is refused by
            :func:`check_servable`).
        tune: serve the autotuned winner (True) or the pinned configuration
            below (False).
        word_bits: machine word width used when ``tune=False``.
        multiplication: multiplication algorithm used when ``tune=False``.
    """

    kind: str
    bits: int
    operation: str | None = None
    size: int = 4096
    elements: int = 1 << 20
    modulus_bits: int | None = None
    device: str = "rtx4090"
    target: str = "python_exec"
    tune: bool = True
    word_bits: int = 64
    multiplication: str = "schoolbook"

    @classmethod
    def ntt(cls, bits: int, size: int = 4096, **kwargs) -> ServeRequest:
        """An NTT butterfly request."""
        return cls(kind=NTT, bits=bits, size=size, **kwargs)

    @classmethod
    def blas(cls, operation: str, bits: int, **kwargs) -> ServeRequest:
        """A BLAS operation request."""
        return cls(kind=BLAS, bits=bits, operation=operation, **kwargs)

    def resolved_operation(self) -> str:
        """The operation, with the per-kind default applied."""
        if self.operation is not None:
            return self.operation
        return "cooley_tukey" if self.kind == NTT else "vmul"

    def workload(self) -> Workload:
        """The tuner workload this request names (validates the request)."""
        return Workload(
            kind=self.kind,
            bits=self.bits,
            operation=self.resolved_operation(),
            size=self.size,
            elements=self.elements,
            modulus_bits=self.modulus_bits,
        )

    def pinned_config(self) -> KernelConfig:
        """The explicit configuration served when ``tune=False``."""
        return KernelConfig(
            bits=self.bits,
            modulus_bits=self.modulus_bits,
            word_bits=self.word_bits,
            multiplication=self.multiplication,
        )

    def key(self) -> str:
        """The serve key: requests with equal keys share one served kernel.

        The workload key already names a non-default modulus, so
        ``modulus_bits=None`` and ``modulus_bits=bits - 4`` share one key.
        """
        mode = "tuned" if self.tune else f"pin-{self.multiplication}-w{self.word_bits}"
        return f"{self.workload().key}::{self.device}::{self.target}::{mode}"


@dataclass(frozen=True)
class ServeResult:
    """One served kernel.

    Attributes:
        request: the request this result answers.
        artifact: the target's artifact (``CompiledKernel`` for
            ``python_exec``, source text for ``cuda``/``c99``).
        config: the kernel configuration the artifact was generated with.
        fingerprint: the workload's kernel-family fingerprint.
        tuning: the tuning result behind ``config`` (``None`` for pinned
            requests).
        warm: served from the resident table (no work performed).
        latency_s: wall time from submit to result for *this* serve.
    """

    request: ServeRequest
    artifact: object
    config: KernelConfig
    fingerprint: str
    tuning: TuningResult | None
    warm: bool
    latency_s: float

    @property
    def from_database(self) -> bool:
        """Whether the tuned configuration came from a warm database record."""
        return self.tuning is not None and self.tuning.from_database


class _TuneTicket:
    """One queued tuning request awaiting a micro-batch."""

    __slots__ = ("workload", "device", "tenant", "future")

    def __init__(
        self, workload: Workload, device: str, tenant: str = DEFAULT_TENANT
    ) -> None:
        self.workload = workload
        self.device = device
        self.tenant = tenant
        self.future: Future = Future()


class KernelServer:
    """Serves tuned, compiled kernels from shared caches to many threads.

    Args:
        session: the shared compiler session (a fresh one by default); its
            content-addressed cache is the artifact store.
        db: the shared tuning database (in-memory by default; pass a
            file-backed one to persist winners across restarts).
        devices: device names this server serves; warmup compiles recorded
            winners for these devices only, and requests default to the
            first entry.
        workers: worker-pool threads fulfilling cold requests.
        tune_batch_window_s: how long the tuning batcher waits for more
            requests to join a micro-batch once one is pending.
        tune_batch_max: largest tuning micro-batch drained at once.
        resident_capacity: LRU bound on the resident table — the number of
            distinct served results kept warm.  Least-recently-requested
            results fall out first; the next identical request is cold again
            (usually still a session-cache hit), so memory stays finite under
            arbitrarily diverse traffic.
        tracer: the :class:`~repro.obs.trace.Tracer` this server records
            into.  Defaults to a never-sampling tracer — which still records
            traces *adopted* from the wire (a traced supervisor upstream),
            since that sampling decision was made by the sender.
    """

    def __init__(
        self,
        session: CompilerSession | None = None,
        db: TuningDatabase | None = None,
        devices: tuple[str, ...] = ("rtx4090",),
        workers: int = 4,
        tune_batch_window_s: float = 0.02,
        tune_batch_max: int = 16,
        resident_capacity: int = 4096,
        tracer: tracing.Tracer | None = None,
    ) -> None:
        if not devices:
            raise ServingError("a kernel server needs at least one device")
        if workers < 1:
            raise ServingError(f"worker count must be positive, got {workers}")
        self.session = session if session is not None else CompilerSession()
        self.db = db if db is not None else TuningDatabase()
        self.devices = tuple(devices)
        self.metrics = ServerMetrics()
        self.tracer = tracer if tracer is not None else tracing.Tracer(sample_rate=0.0)
        self.tune_batch_window_s = tune_batch_window_s
        self.tune_batch_max = tune_batch_max
        self._lock = threading.RLock()
        self._resident = ContentAddressedCache(maxsize=resident_capacity)
        self._inflight: dict[str, Future] = {}
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._tune_queue: list[_TuneTicket] = []
        self._tune_cv = threading.Condition()
        self._tune_thread = threading.Thread(
            target=self._tune_loop, name="repro-serve-tuner", daemon=True
        )
        self._tune_thread.start()

    # -- front door ---------------------------------------------------------

    def submit(
        self,
        request: ServeRequest,
        deadline_ms: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Future:
        """Enqueue a request; the future resolves to a :class:`ServeResult`.

        Warm requests resolve immediately from the resident table; a request
        whose key is already in flight shares that request's future (and its
        single compilation).

        ``tenant`` namespaces everything the request touches: the resident
        and in-flight keys (:func:`serve_key`), the tuning-database lookup
        (tenant namespace with default fallback), and per-tenant metrics.
        An invalid id raises :class:`ValueError` before any state changes.

        ``deadline_ms`` keeps the front door signature-compatible with
        :meth:`~repro.serve.supervisor.ShardSupervisor.submit`.  A single
        in-process server has no wire to shed late results on — its caller
        holds the future directly — so the budget is accepted for interface
        parity and deadline accounting stays on the caller's side (the
        traffic-replay harness measures misses from observed latency).
        """
        del deadline_ms  # enforced only on the sharded path
        validate_tenant(tenant)
        check_servable(request)
        started = time.perf_counter()
        # One context-variable read decides whether this request is traced;
        # the untraced path pays nothing further for instrumentation.
        traced = tracing.current() is not None
        wall_started = time.time() if traced else 0.0
        # serve_key validates the request before any state changes.
        key = serve_key(tenant, request)
        self.metrics.record_request(tenant)
        with self._lock:
            if self._closed:
                raise ServingError("kernel server is closed")
            resident = self._resident.get(key)
            if resident is not None:
                latency = time.perf_counter() - started
                if traced:
                    tracing.record("cache.lookup", wall_started, latency, hit=True)
                self.metrics.record_warm(latency, tenant)
                future: Future = Future()
                future.set_result(
                    dataclasses.replace(resident, warm=True, latency_s=latency)
                )
                return future
            inflight = self._inflight.get(key)
            if inflight is not None:
                if traced:
                    tracing.record(
                        "serve.dedup", wall_started, time.perf_counter() - started
                    )
                self.metrics.record_dedup(tenant)
                return inflight
            future = Future()
            self._inflight[key] = future
            # Dispatch while still holding the lock: close() flips _closed
            # under the same lock before shutting the pool down, so a request
            # that passed the closed check above cannot race the shutdown
            # (and leak an in-flight future its dedup'd waiters hang on).
            try:
                if traced:
                    # Copy the caller's context so the worker thread inherits
                    # the active trace — the pool thread's own context never
                    # carries one.
                    context = contextvars.copy_context()
                    self._pool.submit(
                        context.run,
                        self._fulfil,
                        request,
                        key,
                        future,
                        started,
                        wall_started,
                        tenant,
                    )
                else:
                    self._pool.submit(
                        self._fulfil, request, key, future, started, 0.0, tenant
                    )
            except RuntimeError:
                self._inflight.pop(key, None)
                raise ServingError("kernel server is closed") from None
        return future

    def serve(
        self, request: ServeRequest, tenant: str = DEFAULT_TENANT
    ) -> ServeResult:
        """Serve one request, blocking until the kernel is ready."""
        return self.submit(request, tenant=tenant).result()

    # -- fulfilment ---------------------------------------------------------

    def _fulfil(
        self,
        request: ServeRequest,
        key: str,
        future: Future,
        started: float,
        submitted_wall: float = 0.0,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        try:
            # Queue wait: submit time to worker pickup.  record() no-ops when
            # this worker inherited no trace context.
            tracing.record(
                "serve.queue", submitted_wall, time.perf_counter() - started
            )
            workload = request.workload()
            tuning: TuningResult | None = None
            if request.tune:
                with tracing.span("serve.tune", device=request.device, tenant=tenant):
                    tuning = self._tune_batched(workload, request.device, tenant)
                config = tuning.config
            else:
                config = request.pinned_config()
            kernel = workload.build(config)
            options = config.rewrite_options()
            with tracing.span("serve.compile", target=request.target):
                artifact = self.session.compile(
                    kernel, target=request.target, options=options
                )
            latency = time.perf_counter() - started
            result = ServeResult(
                request=request,
                artifact=artifact,
                config=config,
                fingerprint=workload.fingerprint(),
                tuning=tuning,
                warm=False,
                latency_s=latency,
            )
            with self._lock:
                self._resident.put(key, result)
                self._inflight.pop(key, None)
            self.metrics.record_cold(latency, tenant)
            future.set_result(result)
        except BaseException as error:  # noqa: BLE001 - relayed via the future
            with self._lock:
                self._inflight.pop(key, None)
            self.metrics.record_error(tenant)
            future.set_exception(error)

    # -- tuning micro-batches -----------------------------------------------

    def _tune_batched(
        self, workload: Workload, device: str, tenant: str = DEFAULT_TENANT
    ) -> TuningResult:
        ticket = _TuneTicket(workload, device, tenant)
        with self._tune_cv:
            if self._closed:
                raise ServingError("kernel server is closed")
            self._tune_queue.append(ticket)
            self._tune_cv.notify_all()
        return ticket.future.result()

    def _drain_batch(self) -> list[_TuneTicket]:
        with self._tune_cv:
            while not self._tune_queue and not self._closed:
                self._tune_cv.wait()
            if not self._tune_queue:
                return []
            # Batch window: once one request is pending, wait briefly so
            # concurrent cold requests join the same micro-batch.
            deadline = time.monotonic() + self.tune_batch_window_s
            while len(self._tune_queue) < self.tune_batch_max and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._tune_cv.wait(remaining)
            batch = self._tune_queue[: self.tune_batch_max]
            del self._tune_queue[: self.tune_batch_max]
            return batch

    def _tune_loop(self) -> None:
        while True:
            batch = self._drain_batch()
            if not batch:
                if self._closed:
                    return
                continue
            # Group by device: each group shares one Autotuner sweep, and the
            # database is persisted once per batch, not once per record.
            # Tickets of different tenants share a batch — each tune call
            # carries its own ticket's namespace.
            by_device: dict[str, list[_TuneTicket]] = {}
            for ticket in batch:
                by_device.setdefault(ticket.device, []).append(ticket)
            outcomes = []
            for device, tickets in sorted(by_device.items()):
                tuner = Autotuner(session=self.session, db=self.db, save=False)
                for ticket in tickets:
                    try:
                        result = tuner.tune(ticket.workload, device, tenant=ticket.tenant)
                    except BaseException as error:  # noqa: BLE001
                        outcomes.append((ticket.future.set_exception, error))
                    else:
                        outcomes.append((ticket.future.set_result, result))
            try:
                self.db.save()
            except Exception:  # noqa: BLE001
                # The winners live in memory; the next batch's save retries.
                # A dead batcher thread would hang every later tuned
                # request, so never propagate.
                pass
            self.metrics.record_tune_batch(len(batch))
            # Resolve only now: a reply that reaches its caller has its
            # winner in the file and its batch in the metrics.
            for resolve, outcome in outcomes:
                resolve(outcome)

    # -- warmup / invalidation ----------------------------------------------

    def warm(self, tenant: str | None = None):
        """Pre-compile every recorded winner for this server's devices.

        ``tenant`` scopes the pass to one namespace (``None`` warms every
        namespace).  Returns the :class:`~repro.serve.warmup.WarmupReport`;
        see :func:`repro.serve.warmup.warm_server`.
        """
        from repro.serve.warmup import warm_server

        return warm_server(self, tenant=tenant)

    def invalidate(self, refresh: bool = False, tenant: str | None = None):
        """Drop stale tuning records in one save; ``refresh`` re-tunes each
        stale family once.

        No served result can have come from a stale record, so nothing
        resident is touched.  ``tenant`` scopes the pass to one namespace
        (``None`` considers every namespace).  Returns the
        :class:`~repro.serve.invalidate.InvalidationReport`; see
        :func:`repro.serve.invalidate.invalidate_stale`.
        """
        from repro.serve.invalidate import invalidate_stale

        return invalidate_stale(self, refresh=refresh, tenant=tenant)

    def evict_tenant(self, tenant: str) -> int:
        """Drop every resident result in one tenant's namespace.

        Returns how many entries were evicted.  The default namespace
        holds every key without a tenant prefix (:func:`serve_key`), so
        evicting ``"default"`` clears exactly the untenanted residents.
        """
        validate_tenant(tenant)
        with self._lock:
            keys = [
                key
                for key, _ in self._resident.items()
                if split_tenant(key)[0] == tenant
            ]
            for key in keys:
                self._resident.discard(key)
            return len(keys)

    # -- observability ------------------------------------------------------

    @property
    def resident_count(self) -> int:
        """Served results currently held in the resident table."""
        with self._lock:
            return len(self._resident)

    @property
    def queue_depth(self) -> int:
        """Requests submitted but not yet fulfilled."""
        with self._lock:
            return len(self._inflight)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Counters plus the current queue/resident gauges."""
        return self.metrics.snapshot(
            queue_depth=self.queue_depth, resident_kernels=self.resident_count
        )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop accepting requests and drain the workers and the batcher."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        with self._tune_cv:
            self._tune_cv.notify_all()
        self._tune_thread.join(timeout=60.0)
        self._pool.shutdown(wait=True)

    def __enter__(self) -> KernelServer:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
