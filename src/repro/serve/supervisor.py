"""The shard supervisor: spawn, route, monitor, restart, aggregate.

A :class:`ShardSupervisor` turns N :class:`~repro.serve.KernelServer`
processes into one serving surface with the same front door as a single
server (``submit()`` returning a future, blocking ``serve()``, and a
``devices`` attribute — so :class:`~repro.serve.client.ServedNTT` and
:class:`~repro.serve.client.ServedBlasEngine` work against a supervisor
unchanged):

* **Shards** — a local shard is a real OS process running
  :func:`~repro.serve.shard.run_shard` on one end of a
  ``socket.socketpair()``, serving every device of the cluster.  Local
  shards open the one tuning-database file (``db``) and save their winners
  into it through the database's merge-on-save, whose lock
  (:func:`repro.atomic_files.path_lock`) holds across processes.
  ``connect=("host:port", ...)`` adds
  shards served by :func:`~repro.serve.shard.serve_shard_tcp` listeners
  (other machines, or just other processes) to the same ring.  Every shard
  has one link, local or remote, a
  :class:`~repro.serve.protocol.StreamConnection` that opens with the same
  hello: it pins the protocol version and assigns the ring id.  How the
  link was opened decides what it carries, without asking the peer: the
  socketpair to a spawned shard carries executable kernels, a TCP link
  source text only (no executable pickles cross machines).
* **Routing** — a :class:`~repro.serve.shard.ShardRouter` consistent-hashes
  each request's (kernel-family fingerprint, device) onto a shard; all
  traffic for one family lands on one shard and enjoys its resident table
  and in-flight dedup.
* **The fast wire** — each link is a :class:`_Link` whose sender thread
  coalesces every call queued since its last flush into one write
  (out-of-order replies already correlate by ``request_id``, so batching
  the write path changes no semantics).  Wire-path costs
  (encode/decode/route/flush time, bytes, messages-per-flush) are profiled
  into :attr:`ClusterStats.wire`.
* **Liveness & recovery** — every link pings its shard every
  :data:`_PING_INTERVAL_S`; a shard is live while its reader runs and its
  last pong is younger than :data:`_PING_TIMEOUT_S`.  The monitor recovers
  a shard that is not: it leaves the ring (its keys rebalance to ring
  successors), its pending requests re-route, and it is restored — a local
  process killed and respawned (re-reading the database file), a remote
  address re-dialed — before it re-joins the ring.  Restores follow
  :func:`_restart_backoff`: the first attempt is immediate, later ones
  back off exponentially.
* **Aggregation** — :meth:`ShardSupervisor.stats` asks every live shard for
  its counters and fixed-bucket latency histograms over the wire and merges
  them into one :class:`ClusterStats`: global warm/cold/dedup counts and
  p50/p95 computed from the *summed* histograms, plus the per-shard rows.
* **Maintenance** — every local shard sees every record of the file, so
  the supervisor makes one pass over that file for the whole cluster:
  :meth:`ShardSupervisor.warmup` serves each record once through the router
  (:func:`~repro.serve.warmup.warm_server`), and
  :meth:`ShardSupervisor.invalidate` tombstones the stale records in one
  save, then with ``refresh`` re-serves each stale family once through the
  router (:func:`~repro.serve.invalidate.invalidate_stale`).  No
  maintenance message crosses the wire.
"""

from __future__ import annotations

import functools
import itertools
import logging
import multiprocessing
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

from repro.errors import ProtocolError, ServingError
from repro.obs import trace as tracing
from repro.tenancy import DEFAULT_TENANT, TenantRegistry, validate_tenant
from repro.tune.db import TuningDatabase

# Imported as a module (not a package attribute) so this file is loadable at
# any point of repro.serve's own package initialization.
import repro.serve.protocol as protocol
from repro.serve.metrics import (
    MetricsSnapshot,
    ServerMetrics,
    WireProfile,
    WireSnapshot,
    add_histograms,
    merge_counts,
    percentile_from_histogram,
)
from repro.serve.invalidate import InvalidationReport, invalidate_stale
from repro.serve.server import ServeRequest, ServeResult, check_servable
from repro.serve.shard import ShardRouter, run_shard
from repro.serve.warmup import WarmupReport, warm_server

__all__ = ["ClusterStats", "ShardSupervisor"]

_LOG = logging.getLogger("repro.serve.supervisor")

#: How often the monitor thread checks shard liveness.
_MONITOR_INTERVAL_S = 0.2

#: How long close() waits for a shard to drain before terminating it.
_SHUTDOWN_GRACE_S = 30.0

#: Restart backoff bounds: the first restore is immediate; a shard that
#: keeps dying (a crash at startup, say) is restored at an exponentially
#: decaying rate capped here, never in a tight loop.
_RESTART_BACKOFF_MAX_S = 30.0

#: How often every link pings its shard...
_PING_INTERVAL_S = 2.0

#: ...and how stale the shard's last pong may get before it is declared
#: dead (the socket may still look open — a remote power loss leaves no
#: FIN, a stopped local process never closes its end — so liveness must
#: come from the ping deadline, not the file descriptor).
_PING_TIMEOUT_S = 10.0

#: How long one TCP connect + handshake attempt to a remote shard may take.
_CONNECT_ATTEMPT_TIMEOUT_S = 5.0

#: How long a spawned local shard may take to start, build its server and
#: answer the hello.
_SPAWN_TIMEOUT_S = 60.0


def _restart_backoff(attempt: int) -> float:
    """Seconds to wait before restart ``attempt`` (1-based).

    Attempt 1 is **immediate** — one crash must not stall traffic — and
    later attempts back off exponentially from 0.5 s to
    :data:`_RESTART_BACKOFF_MAX_S`: 0.0, 0.5, 1.0, 2.0, 4.0, ... 30.0.
    """
    if attempt <= 1:
        return 0.0
    return min(_RESTART_BACKOFF_MAX_S, 0.5 * (2 ** min(attempt - 2, 8)))


def _resolve(future: Future, result=None, error: BaseException | None = None) -> None:
    """Resolve a future, tolerating a caller who already cancelled it."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass  # the caller cancelled; the outcome has nowhere to go


def _spawn_context():
    # Shards are spawned fresh (no inherited locks/threads): "spawn" is the
    # only start method that is safe once the supervisor's reader threads
    # exist (restarts happen with threads running) and the only one macOS
    # and Windows offer at all.
    return multiprocessing.get_context("spawn")


@dataclass(frozen=True, kw_only=True)
class ClusterStats(MetricsSnapshot):
    """Cross-shard aggregate metrics plus the per-shard breakdown.

    The :class:`~repro.serve.metrics.MetricsSnapshot` fields are the
    shards' counters and latency histograms added together
    (:func:`~repro.serve.metrics.merge_counts`), so the percentiles are
    read off the merged histograms (bounded-error approximations — see
    :func:`~repro.serve.metrics.percentile_from_histogram`).  ``wire`` is
    the supervisor-side wire-path profile (encode/decode/route/flush time
    and bytes — see :class:`~repro.serve.metrics.WireSnapshot`); ``None``
    when the caller aggregated shard stats without a supervisor.
    ``tenants`` is the cross-shard per-tenant rollup (each tenant's blocks
    merged the same way, with its warm ratio and p50/p95/p99, plus
    admission-control state when a supervisor contributed its registry
    snapshot); empty for untenanted clusters.
    """

    shards: tuple[protocol.ShardStats, ...]
    wire: WireSnapshot | None = None

    def _headline(self) -> str:
        return f"cluster       {len(self.shards)} shards, {self.requests} requests"

    def _details(self) -> list[str]:
        lines = [] if self.wire is None else [self.wire.report()]
        for tenant, block in sorted(self.tenants.items()):
            lines.append(
                f"  tenant {tenant}: {block.get('requests', 0)} requests, "
                f"warm {block.get('warm_serves', 0)}, "
                f"cold {block.get('cold_serves', 0)}, "
                f"errors {block.get('errors', 0)}, "
                f"rejected {block.get('rejected', 0)}, "
                f"p50 ≤{block.get('p50_latency_ms', 0.0):.3f} ms, "
                f"p95 ≤{block.get('p95_latency_ms', 0.0):.3f} ms"
            )
        for stats in self.shards:
            lines.append(
                f"  shard {stats.shard_id} (pid {stats.pid}): "
                f"{stats.requests} requests, warm {stats.warm_serves}, "
                f"cold {stats.cold_serves}, dedup {stats.dedup_hits}, "
                f"{stats.resident_kernels} resident"
            )
        return lines


def _tenant_rollup(
    per_shard: tuple[protocol.ShardStats, ...],
    admission: dict | None = None,
) -> dict[str, dict]:
    """Cross-shard per-tenant blocks: merged counts, warm ratio, p50/p95/p99.

    ``admission`` (a :meth:`~repro.tenancy.TenantRegistry.snapshot`) merges
    the supervisor-side quota state — ``in_flight``/``rejected`` and any
    configured limits — into the matching tenant's block.
    """
    blocks: dict[str, list[dict]] = {}
    for stats in per_shard:
        for tenant, block in stats.tenants.items():
            blocks.setdefault(tenant, []).append(block)
    rollup: dict[str, dict] = {}
    for tenant, shard_blocks in blocks.items():
        merged = rollup[tenant] = merge_counts(shard_blocks)
        warm, cold = merged.get("warm_serves", 0), merged.get("cold_serves", 0)
        served = add_histograms(
            merged.get("warm_histogram", ()), merged.get("cold_histogram", ())
        )
        merged["warm_ratio"] = warm / (warm + cold) if warm + cold else 0.0
        merged["p50_latency_ms"] = percentile_from_histogram(served, 0.50)
        merged["p95_latency_ms"] = percentile_from_histogram(served, 0.95)
        merged["p99_latency_ms"] = percentile_from_histogram(served, 0.99)
    for tenant, state in (admission or {}).items():
        rollup.setdefault(tenant, {}).update(state)
    return rollup


#: A fresh server's zero counts: the merge's first block, so a cluster
#: with no live shard still reports every field.
_NO_COUNTS = ServerMetrics().snapshot().counts()


def aggregate_stats(
    per_shard: tuple[protocol.ShardStats, ...],
    wire: WireSnapshot | None = None,
    admission: dict | None = None,
) -> ClusterStats:
    """Merge per-shard stats: counters add, histograms add bucket by bucket."""
    return ClusterStats(
        **merge_counts([_NO_COUNTS, *(stats.counts() for stats in per_shard)]),
        shards=tuple(sorted(per_shard, key=lambda stats: stats.shard_id)),
        wire=wire,
        tenants=_tenant_rollup(per_shard, admission),
    )


class _Link:
    """One connection to a shard, with its coalescing outbox.

    Every link owns a sender thread (draining :attr:`outbox` in whole
    batches — the writev-style single flush — and adding a ping every
    :data:`_PING_INTERVAL_S`) and a reader thread.  Every frame goes
    through the outbox, so the sender is the connection's only writer.
    """

    def __init__(self, connection) -> None:
        self.connection = connection
        self.outbox: deque[bytes] = deque()
        self.wakeup = threading.Condition()
        self.closed = False
        self.sender: threading.Thread | None = None
        self.reader: threading.Thread | None = None

    def enqueue(self, data: bytes) -> None:
        """Queue one encoded frame for the sender thread's next flush."""
        with self.wakeup:
            if self.closed:
                raise OSError("shard link is closed")
            self.outbox.append(data)
            self.wakeup.notify()

    def close(self) -> None:
        """Close the connection and release the sender thread."""
        with self.wakeup:
            self.closed = True
            self.wakeup.notify_all()
        try:
            self.connection.close()
        except OSError:
            pass


class _ShardHandle:
    """One shard: its link, pending futures, and how to restore it.

    A local shard has the ``process`` this supervisor spawned; a remote
    shard has the ``address`` of its listener.  Either way the shard is
    live while its link's reader runs and its last pong (or hello reply) is
    younger than :data:`_PING_TIMEOUT_S`.
    """

    def __init__(self, shard_id: int, address: tuple[str, int] | None = None) -> None:
        self.shard_id = shard_id
        self.address = address
        # Only the socketpair to a process this supervisor spawned may carry
        # executable kernels; a TCP link is source-only.
        self.allow_pickled = address is None
        self.process = None
        self.link: _Link | None = None
        # request_id -> (tenant, request, future, trace handle, deadline_ms);
        # tenant and request are None for stats and ping probes, the trace
        # handle None when untraced, the deadline None when the caller set
        # no budget.
        self.pending: dict[
            int,
            tuple[
                str | None,
                ServeRequest | None,
                Future,
                tracing.TraceHandle | None,
                float | None,
            ],
        ] = {}
        self.pending_lock = threading.Lock()
        self.restarts = 0
        self.next_restart_at = 0.0  # monotonic; 0.0 = restore immediately
        self.last_pong = 0.0

    @property
    def connection(self):
        """The link's transport (``None`` while the shard is down)."""
        link = self.link
        return link.connection if link is not None else None

    def enqueue(self, data: bytes) -> None:
        """Queue a frame on the shard's link."""
        link = self.link
        if link is None:
            raise OSError("shard connection is down")
        link.enqueue(data)

    def drop_link(self) -> None:
        """Close the link (idempotent); its sender and reader unblock."""
        link, self.link = self.link, None
        if link is not None:
            link.close()

    def alive(self) -> bool:
        link = self.link
        return (
            link is not None
            and link.reader.is_alive()
            and time.monotonic() - self.last_pong <= _PING_TIMEOUT_S
        )

    def take_pending(self) -> dict:
        with self.pending_lock:
            taken, self.pending = self.pending, {}
            return taken


def _parse_address(address) -> tuple[str, int]:
    """``"host:port"`` (or an ``(host, port)`` pair) as a connectable tuple."""
    if isinstance(address, tuple) and len(address) == 2:
        host, port = address
    else:
        host, _, port = str(address).rpartition(":")
        if not host:
            raise ServingError(
                f"remote shard address {address!r} is not host:port"
            )
    try:
        port = int(port)
    except (TypeError, ValueError):
        raise ServingError(
            f"remote shard address {address!r} has a non-numeric port"
        ) from None
    if not 0 < port < 65536:
        raise ServingError(f"remote shard address {address!r} port out of range")
    return str(host), port


class ShardSupervisor:
    """N kernel-server shard processes behind one routed front door.

    Args:
        shards: local shard process count (≥ 1, or 0 when ``connect`` names
            at least one remote shard).
        db: the tuning-database file every local shard opens and saves
            into (``None``: per-shard in-memory databases).  An unreadable
            file raises :class:`~repro.errors.TuningError` before any shard
            starts.  Remote shards keep their databases on their own
            machines — no shared disk is assumed.
        devices: the devices the cluster serves; every shard serves all of
            them (a kernel configuration is per-device state, not a hardware
            handle), and :meth:`submit` refuses any other device.
        workers: worker threads per local shard.
        restart: restore dead shards — respawn local ones, re-dial remote
            ones (on by default).
        connect: remote shard addresses (``"host:port"`` strings or
            ``(host, port)`` pairs), each a
            :func:`~repro.serve.shard.serve_shard_tcp` listener.  Remote
            ring ids continue after the local ones, and their artifacts
            arrive as source text, never executable pickles.
        connect_timeout: how long to keep re-trying the initial connection
            to each remote shard before failing construction (listeners are
            often still starting when the supervisor comes up).
        tracer: the :class:`~repro.obs.trace.Tracer` sampling and retaining
            this supervisor's request traces.  Sampled requests carry their
            trace context to shards in the envelope's additive ``trace``
            field; :meth:`drain_spans` merges the shard-side spans back.
            Defaults to a never-sampling tracer (tracing off).
        tenants: :class:`~repro.tenancy.TenantConfig` entries seeding the
            supervisor's :class:`~repro.tenancy.TenantRegistry` — per-tenant
            display names and admission quotas enforced at :meth:`submit`.
            An empty registry (the default) admits everything, which is the
            exact pre-tenancy behaviour; configs can also be registered
            later via ``supervisor.tenants.register(...)``.

    Shards are started with the ``spawn`` start method, so the standard
    :mod:`multiprocessing` caveat applies: construct supervisors from an
    importable ``__main__`` (a script with an ``if __name__ == "__main__"``
    guard, a module run with ``-m``, pytest, ...), not from a piped-stdin
    script — spawn re-imports the main module in every shard process.
    """

    def __init__(
        self,
        shards: int = 2,
        db: str | Path | None = None,
        devices: tuple[str, ...] = ("rtx4090",),
        workers: int = 4,
        restart: bool = True,
        connect: tuple = (),
        connect_timeout: float = 10.0,
        tracer: tracing.Tracer | None = None,
        tenants: tuple = (),
    ) -> None:
        addresses = tuple(_parse_address(address) for address in connect)
        if shards < 1 and not addresses:
            raise ServingError(f"shard count must be positive, got {shards}")
        if shards < 0:
            raise ServingError(f"shard count must be non-negative, got {shards}")
        if not devices:
            raise ServingError("a shard supervisor needs at least one device")
        if db is not None:
            TuningDatabase(db)  # an unreadable file fails here, not in every shard
        self.devices = tuple(devices)
        self.db_path = Path(db) if db is not None else None
        self.workers = workers
        self.restart = restart
        self.tracer = tracer if tracer is not None else tracing.Tracer(sample_rate=0.0)
        self.tenants = TenantRegistry(tenants)
        self._wire = WireProfile()
        self._context = _spawn_context()
        self._closed = False
        self._stopping = threading.Event()  # wakes the monitor on close()
        self._lock = threading.RLock()
        self._request_ids = itertools.count(1)
        self._routed: dict[int, int] = {}  # shard_id -> requests routed there
        self._handles: dict[int, _ShardHandle] = {
            shard_id: _ShardHandle(shard_id) for shard_id in range(shards)
        }
        # Remote ring ids continue after the local ones.
        for offset, address in enumerate(addresses):
            shard_id = shards + offset
            self._handles[shard_id] = _ShardHandle(shard_id, address)
        self.router = ShardRouter(self._handles)
        spawned = {}
        try:
            # Spawn every local shard before handshaking any, so their
            # start-ups overlap.
            for handle in self._handles.values():
                if handle.address is None:
                    spawned[handle.shard_id] = self._spawn(handle)
            for handle in self._handles.values():
                if handle.address is None:
                    self._open_local(handle, spawned[handle.shard_id])
                else:
                    self._connect_remote_until(handle, timeout=connect_timeout)
        except BaseException:
            self._closed = True
            for handle in self._handles.values():
                if handle.process is not None:
                    handle.process.terminate()
                handle.drop_link()
            for connection in spawned.values():
                connection.close()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()

    # -- spawning -----------------------------------------------------------

    def _spawn(self, handle: _ShardHandle) -> protocol.StreamConnection:
        """Start a local shard process on one end of a fresh socketpair."""
        parent, child = socket.socketpair()
        process = self._context.Process(
            target=run_shard,
            args=(child, handle.shard_id, self.devices),
            kwargs={"db_path": self.db_path, "workers": self.workers},
            name=f"repro-shard-{handle.shard_id}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            child.close()
        handle.process = process
        return protocol.StreamConnection(parent)

    def _open_local(self, handle: _ShardHandle, connection) -> None:
        """Handshake a spawned shard's link and attach it."""
        try:
            self._handshake(handle, connection, _SPAWN_TIMEOUT_S)
        except OSError as error:
            raise ServingError(
                f"shard {handle.shard_id} did not answer its hello: {error}"
            ) from error
        self._attach(handle, connection)

    def _attach(self, handle: _ShardHandle, connection) -> None:
        """Make a handshaken connection the shard's link, with its threads.

        The liveness deadline starts here, at the shard's first answer, so
        a slow start-up never counts against it.  The threads start before
        the link is published, so a published link's reader always runs
        until the link dies.
        """
        handle.last_pong = time.monotonic()
        link = _Link(connection)
        link.sender = threading.Thread(
            target=self._send_loop,
            args=(handle, link),
            name=f"repro-shard-{handle.shard_id}-sender",
            daemon=True,
        )
        link.reader = threading.Thread(
            target=self._drain_replies,
            args=(handle, connection),
            name=f"repro-shard-{handle.shard_id}-reader",
            daemon=True,
        )
        link.sender.start()
        link.reader.start()
        handle.link = link

    def _send_loop(self, handle: _ShardHandle, link: _Link) -> None:
        """Drain a link's outbox in whole batches — the coalescing flush.

        Every wakeup takes *everything* queued since the last flush and
        writes it with one ``send_many`` (one syscall burst per batch), so
        N pending calls cost one flush instead of N.  A ping rides along
        every :data:`_PING_INTERVAL_S`, so a shard's liveness deadline never
        depends on the monitor thread.  A write failure poisons the
        connection; the reader sees EOF and the monitor re-routes the
        pending work.
        """
        connection = link.connection
        next_ping = time.monotonic() + _PING_INTERVAL_S
        while True:
            with link.wakeup:
                while not link.outbox and not link.closed:
                    remaining = next_ping - time.monotonic()
                    if remaining <= 0:
                        break
                    link.wakeup.wait(remaining)
                if not link.outbox and link.closed:
                    return
                batch = list(link.outbox)
                link.outbox.clear()
            calls = len(batch)
            now = time.monotonic()
            if now >= next_ping:
                batch.append(self._ping(handle))
                next_ping = now + _PING_INTERVAL_S
            started = time.perf_counter()
            try:
                connection.send_many(batch)
            except (OSError, ValueError):
                self._poison(connection)
                return
            if calls:
                self._wire.record_flush(time.perf_counter() - started)

    def _ping(self, handle: _ShardHandle) -> bytes:
        """One encoded ping whose pong refreshes the shard's deadline."""
        request_id = next(self._request_ids)
        future: Future = Future()

        def pong_received(completed: Future) -> None:
            if not completed.cancelled() and completed.exception() is None:
                handle.last_pong = time.monotonic()

        future.add_done_callback(pong_received)
        with handle.pending_lock:
            handle.pending[request_id] = (None, None, future, None, None)
        return protocol.encode_message(protocol.PingCall(request_id=request_id))

    # -- handshakes -----------------------------------------------------------

    def _handshake(self, handle: _ShardHandle, connection, timeout: float) -> None:
        """Send the hello on a fresh link and check the shard's reply.

        The hello pins :data:`~repro.serve.protocol.PROTOCOL_VERSION` and
        assigns the shard its ring id for this session.  A refused or
        malformed handshake closes the link and raises
        :class:`~repro.errors.ServingError`; a transport failure closes it
        and re-raises the ``OSError``.
        """
        try:
            connection.settimeout(timeout)
            connection.send_bytes(
                protocol.encode_message(
                    protocol.HelloCall(
                        request_id=next(self._request_ids),
                        protocol_version=protocol.PROTOCOL_VERSION,
                        shard_id=handle.shard_id,
                    )
                )
            )
            reply = protocol.decode_message(connection.recv_bytes())
            connection.settimeout(None)
        except (EOFError, ProtocolError) as error:
            connection.close()
            raise ServingError(f"shard handshake failed: {error}") from error
        except OSError:
            connection.close()
            raise
        if isinstance(reply, protocol.ErrorReply):
            connection.close()
            raise ServingError(f"shard refused the handshake: {reply.message}")
        if not isinstance(reply, protocol.HelloReply):
            connection.close()
            raise ServingError(f"shard answered the hello with {type(reply).__name__}")
        if reply.protocol_version != protocol.PROTOCOL_VERSION:
            connection.close()
            raise ServingError(
                f"shard speaks protocol {reply.protocol_version}, "
                f"this supervisor speaks {protocol.PROTOCOL_VERSION}"
            )

    def _connect_remote_until(self, handle: _ShardHandle, timeout: float) -> None:
        """Dial a remote shard, retrying until ``timeout`` (startup races).

        Only connection-level failures (``OSError``: refused, timed out)
        are worth retrying; a *completed but refused* handshake — a protocol
        version skew, a malformed reply — is deterministic and fails
        construction immediately instead of burning the whole timeout on it.
        """
        deadline = time.monotonic() + timeout
        host, port = handle.address
        while True:
            try:
                self._connect_remote(handle)
                return
            except ServingError as error:
                raise ServingError(
                    f"remote shard {handle.shard_id} at {host}:{port} "
                    f"refused: {error}"
                ) from error
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise ServingError(
                        f"cannot reach remote shard {handle.shard_id} at "
                        f"{host}:{port}: {error}"
                    ) from error
                time.sleep(0.2)

    def _connect_remote(self, handle: _ShardHandle) -> None:
        """One TCP connect + hello to a remote shard, attached as its link."""
        sock = socket.create_connection(
            handle.address, timeout=_CONNECT_ATTEMPT_TIMEOUT_S
        )
        connection = protocol.StreamConnection(sock)
        self._handshake(handle, connection, _CONNECT_ATTEMPT_TIMEOUT_S)
        self._attach(handle, connection)

    # -- per-shard reader ---------------------------------------------------

    def _drain_replies(self, handle: _ShardHandle, connection) -> None:
        while True:
            try:
                data = connection.recv_bytes()
            except (EOFError, OSError, ValueError):
                # ValueError: the link was closed under a blocked read.
                return  # the monitor notices the dead shard and reroutes
            except ProtocolError:
                # A torn frame: the stream cannot be re-synchronized.
                self._poison(connection)
                return
            try:
                decode_started = time.perf_counter()
                message = protocol.decode_message(
                    data, allow_pickled=handle.allow_pickled
                )
                self._wire.record_receive(
                    len(data), time.perf_counter() - decode_started
                )
            except ProtocolError:
                # An undecodable reply means reply correlation on this link
                # is lost (we cannot know whose answer this was).  Poison
                # the connection: the monitor restores the shard and
                # re-routes every pending request — a recovery instead of a
                # silent hang.
                self._poison(connection)
                return
            request_id = getattr(message, "request_id", -1)
            if isinstance(message, protocol.ErrorReply) and request_id == -1:
                # The shard could not decode one of our calls — the same
                # lost-correlation situation, seen from the other side.
                self._poison(connection)
                return
            with handle.pending_lock:
                entry = handle.pending.pop(request_id, None)
            if entry is None:
                continue  # late reply for a request already re-routed
            _tenant, _, future, trace, _deadline = entry
            if trace is not None:
                # Wall start approximated from the measured duration: no
                # extra clock read on the (dominant) untraced path.
                decode_s = time.perf_counter() - decode_started
                trace.record(
                    "wire.decode",
                    time.time() - decode_s,
                    decode_s,
                    cat="wire",
                    bytes=len(data),
                )
            if isinstance(message, protocol.ServeReply):
                _resolve(future, result=message.result)
            elif isinstance(
                message,
                (protocol.StatsReply, protocol.PongReply),
            ):
                _resolve(future, result=message)
            elif isinstance(message, protocol.ErrorReply):
                _resolve(future, error=message.exception())

    @staticmethod
    def _poison(connection) -> None:
        try:
            connection.close()
        except OSError:
            pass

    # -- monitoring / restart ----------------------------------------------

    def _monitor_loop(self) -> None:
        """Recover every shard that is not live.

        Restoring a shard dials a TCP connection or spawns a process
        (seconds, worst case), so it runs outside the supervisor lock:
        ``submit()`` never waits on it.  Only this thread restores shards.
        """
        while not self._stopping.wait(_MONITOR_INTERVAL_S):
            for handle in list(self._handles.values()):
                if self._closed:
                    return
                if not handle.alive():
                    self._recover(handle)
                elif handle.restarts and time.monotonic() >= handle.next_restart_at + 60.0:
                    # A minute of health forgives the crash history, so the
                    # next incident starts from an immediate restore.
                    handle.restarts = 0

    def _take_down(self, handle: _ShardHandle) -> None:
        """Take a shard off the ring, close its link, kill its process.

        The kill matters for a hung local process: it never sees EOF, so
        it would never exit on its own.
        """
        self.router.remove_shard(handle.shard_id)
        handle.drop_link()
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def _recover(self, handle: _ShardHandle) -> None:
        """Take a dead shard off the ring, re-route its pending work,
        restore it on the backoff, and put it back on the ring.

        A local shard is restored by spawning a fresh process (which
        re-reads the database file), a remote one by re-dialing its
        address.  Restores
        follow :func:`_restart_backoff` (attempt 1 immediate, exponential to
        :data:`_RESTART_BACKOFF_MAX_S` after), so a shard that dies at
        startup — a corrupt environment, an import error — is retried at a
        bounded rate instead of in a tight loop.
        """
        link = handle.link
        if link is not None:
            _LOG.warning(
                "shard %d %s; rebalancing its keys to ring successors",
                handle.shard_id,
                "missed its ping deadline" if link.reader.is_alive() else "lost its link",
            )
        self._take_down(handle)
        self._reroute(handle, handle.take_pending())
        now = time.monotonic()
        if not self.restart or self._closed or now < handle.next_restart_at:
            return
        handle.restarts += 1
        handle.next_restart_at = now + _restart_backoff(handle.restarts + 1)
        try:
            if handle.address is None:
                self._open_local(handle, self._spawn(handle))
            else:
                self._connect_remote(handle)
        except (OSError, ServingError) as error:
            _LOG.warning("shard %d restore failed: %s", handle.shard_id, error)
            return  # still down; the monitor retries after the backoff
        if self._closed:  # close() gave up waiting for this restore
            self._take_down(handle)
            return
        _LOG.info("shard %d restored; re-joining the ring", handle.shard_id)
        self.router.add_shard(handle.shard_id)

    def _reroute(self, handle: _ShardHandle, pending) -> None:
        """Re-dispatch a dead shard's pending serves to ring successors."""
        for request_id, (tenant, request, future, trace, deadline_ms) in pending.items():
            if future.done():
                continue
            if request is None:  # stats/ping probes are not worth re-sending
                _resolve(
                    future,
                    error=ServingError(f"shard {handle.shard_id} died during a probe"),
                )
                continue
            try:
                # Rebalance-on-shard-loss: the ring successor takes the key.
                # The recovered shard (empty caches) rejoins for new traffic.
                # The deadline budget restarts on the successor shard — the
                # request already lost its first attempt through no fault
                # of the caller's.
                self._dispatch(
                    request,
                    future,
                    excluding=frozenset({handle.shard_id}),
                    trace=trace,
                    deadline_ms=deadline_ms,
                    tenant=tenant if tenant is not None else DEFAULT_TENANT,
                )
            except ServingError as error:
                _resolve(future, error=error)

    # -- front door ---------------------------------------------------------

    def _dispatch(
        self,
        request: ServeRequest,
        future: Future,
        excluding=frozenset(),
        trace: tracing.TraceHandle | None = None,
        deadline_ms: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        route_started = time.perf_counter()
        shard_id = self.router.route(request, excluding=excluding)
        route_s = time.perf_counter() - route_started
        handle = self._handles[shard_id]
        request_id = next(self._request_ids)
        encode_started = time.perf_counter()
        data = protocol.encode_message(
            protocol.ServeCall(
                request_id=request_id,
                request=request,
                # wire_field() is None for provisional (exemplar-candidate)
                # traces, which stay local — so this also covers them.
                trace=trace.wire_field() if trace is not None else None,
                deadline_ms=deadline_ms,
                tenant=tenant,
            )
        )
        encode_s = time.perf_counter() - encode_started
        if trace is not None:
            now = time.time()
            trace.record(
                "route", now - encode_s - route_s, route_s, cat="wire", shard=shard_id
            )
            trace.record(
                "wire.encode", now - encode_s, encode_s, cat="wire", bytes=len(data)
            )
        with handle.pending_lock:
            handle.pending[request_id] = (tenant, request, future, trace, deadline_ms)
        try:
            # The enqueue is the whole send from this thread's point of
            # view: the link's sender thread coalesces everything queued
            # since its last flush into one write.  A frame later lost to a
            # dying connection is still in ``pending``, so the monitor's
            # recovery re-routes it — same contract as the old direct send.
            handle.enqueue(data)
        except (OSError, ValueError):
            # The shard died between routing and writing.  If our pending
            # entry is still ours, re-route it past this shard ourselves; if
            # the monitor's recovery already swept it, it re-routes for us.
            with handle.pending_lock:
                entry = handle.pending.pop(request_id, None)
            if entry is not None:
                try:
                    self._dispatch(
                        request,
                        future,
                        excluding=excluding | {shard_id},
                        trace=trace,
                        deadline_ms=deadline_ms,
                        tenant=tenant,
                    )
                except ServingError as error:
                    _resolve(future, error=error)
            return
        self._wire.record_send(len(data), encode_s, route_s)
        with self._lock:
            self._routed[shard_id] = self._routed.get(shard_id, 0) + 1

    def submit(
        self,
        request: ServeRequest,
        deadline_ms: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Future:
        """Route a request to its shard; the future resolves to the result.

        ``tenant`` names the namespace the request is served under and the
        budget it is admitted against: a tenant with a registered
        :class:`~repro.tenancy.TenantConfig` whose rate or in-flight quota
        is exhausted gets a synchronous
        :class:`~repro.errors.QuotaExceededError` here — the request never
        reaches a shard.  Unregistered tenants (and the default tenant,
        unless explicitly configured) are admitted without limits.

        ``deadline_ms`` is the request's optional end-to-end latency
        budget: it rides the :class:`~repro.serve.protocol.ServeCall`'s
        additive envelope field, and a shard whose result becomes ready
        past the budget sheds it — the future then raises
        :class:`~repro.errors.DeadlineExceededError` instead of returning
        a result nobody is waiting for.

        A request for a device outside :attr:`devices` raises
        :class:`~repro.errors.ServingError` here.
        """
        if deadline_ms is not None and not deadline_ms > 0:
            raise ServingError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        validate_tenant(tenant)
        check_servable(request)
        if request.device not in self.devices:
            raise ServingError(
                f"device {request.device!r} is not served by this cluster "
                f"(devices: {', '.join(self.devices)})"
            )
        with self._lock:
            if self._closed:
                raise ServingError("shard supervisor is closed")
        # Admission control at the front door: raises QuotaExceededError
        # before any routing or wire work.  The matching release rides the
        # future's done-callback, so every completion path balances it.
        self.tenants.admit(tenant)
        future: Future = Future()
        future.add_done_callback(
            lambda _completed, _t=tenant: self.tenants.release(_t)
        )
        trace = self.tracer.begin(
            "cluster.request",
            kind=request.kind,
            bits=request.bits,
            **({"tenant": tenant} if tenant != DEFAULT_TENANT else {}),
        )
        if trace is not None:
            # The root span closes when the reply lands (or the request
            # fails), wherever that happens; finish() is idempotent.
            future.add_done_callback(lambda _completed, _t=trace: _t.finish())
        try:
            self._dispatch(
                request, future, trace=trace, deadline_ms=deadline_ms, tenant=tenant
            )
        except BaseException:
            # Routing failed before the request was in flight anywhere;
            # cancelling fires the done-callbacks, balancing the admit.
            if not future.done():
                future.cancel()
            raise
        return future

    def serve(
        self, request: ServeRequest, tenant: str = DEFAULT_TENANT
    ) -> ServeResult:
        """Serve one request through its shard, blocking for the result."""
        return self.submit(request, tenant=tenant).result()

    def routed_counts(self) -> dict[int, int]:
        """Requests routed per shard id since startup (supervisor-side)."""
        with self._lock:
            return dict(sorted(self._routed.items()))

    def kill_shard(self, shard_id: int) -> None:
        """Chaos-engineering hook: take one shard down mid-traffic.

        A local shard's process is terminated outright; a remote shard's
        connection is dropped (its listener stays up, so the monitor's
        re-dial brings it back).  Either way the normal failure machinery
        takes over: pending work re-routes to ring successors, and — with
        ``restart`` enabled — the shard respawns or reconnects on the
        backoff schedule.  This is exactly the path the traffic-replay
        harness's fault injection exercises; it is never called in normal
        operation.
        """
        with self._lock:
            if self._closed:
                raise ServingError("shard supervisor is closed")
            handle = self._handles.get(shard_id)
        if handle is None:
            raise ServingError(f"no shard with id {shard_id}")
        _LOG.warning("fault injection: killing shard %d", shard_id)
        if handle.process is not None:
            handle.process.terminate()
        else:
            connection = handle.connection
            if connection is not None:
                self._poison(connection)

    # -- probes / stats -----------------------------------------------------

    def _probe(self, handle: _ShardHandle, message_type, timeout: float):
        """Send one control-plane call built by ``message_type(request_id=...)``
        and block for its reply; ``message_type`` may be a message class or
        any factory (e.g. a ``functools.partial`` carrying extra fields).
        """
        request_id = next(self._request_ids)
        future: Future = Future()
        with handle.pending_lock:
            handle.pending[request_id] = (None, None, future, None, None)
        try:
            handle.enqueue(protocol.encode_message(message_type(request_id=request_id)))
        except OSError as error:
            with handle.pending_lock:
                handle.pending.pop(request_id, None)
            raise ServingError(f"shard {handle.shard_id} is unreachable") from error
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            with handle.pending_lock:
                handle.pending.pop(request_id, None)
            raise ServingError(
                f"shard {handle.shard_id} did not answer a "
                f"{getattr(message_type, '__name__', 'probe')} "
                f"within {timeout:g}s"
            ) from None

    def ping(self, timeout: float = 5.0) -> dict[int, protocol.PongReply]:
        """Liveness probe of every shard (shard id → pong)."""
        with self._lock:
            handles = [h for h in self._handles.values() if h.alive()]
        return {
            handle.shard_id: self._probe(handle, protocol.PingCall, timeout)
            for handle in handles
        }

    def stats(self, timeout: float = 10.0) -> ClusterStats:
        """Cross-shard aggregated metrics (see :class:`ClusterStats`)."""
        with self._lock:
            handles = [h for h in self._handles.values() if h.alive()]
        replies = [
            self._probe(handle, protocol.StatsCall, timeout) for handle in handles
        ]
        return aggregate_stats(
            tuple(reply.stats for reply in replies),
            wire=self.wire_snapshot(),
            admission=self.tenants.snapshot(),
        )

    def _maintenance_door(self) -> SimpleNamespace:
        """The front door warm-up and invalidation run through: the database
        file (empty without ``db``), this cluster's devices, and routing
        without tenant admission — maintenance is not traffic."""

        def submit(request: ServeRequest, tenant: str = DEFAULT_TENANT) -> Future:
            future: Future = Future()
            self._dispatch(request, future, tenant=tenant)
            return future

        return SimpleNamespace(
            db=TuningDatabase(self.db_path), devices=self.devices, submit=submit
        )

    def warmup(self, tenant: str | None = None) -> WarmupReport:
        """Serve every record of the database file once through the router.

        Every local shard opens the file, so the record's family compiles
        once, on the shard that serves its traffic — a remote shard
        included — and lands in that shard's resident table
        (:func:`~repro.serve.warmup.warm_server`).  ``tenant`` scopes the
        pass to one namespace, ``None`` warms them all.  These serves are
        not admitted against tenant quotas.
        """
        return warm_server(self._maintenance_door(), tenant=tenant)

    def invalidate(
        self, refresh: bool = False, tenant: str | None = None
    ) -> InvalidationReport:
        """Drop the database file's stale records, once for the cluster.

        One pass over the file (:func:`~repro.serve.invalidate.invalidate_stale`)
        tombstones its stale records in one save; each shard's own copy of
        them gives way to the tombstone at its next save.  With ``refresh``,
        each stale family is re-served once through the router (a fresh
        search on the shard that owns it, not admitted against tenant
        quotas).  ``tenant`` scopes the pass to one namespace.  A remote
        listener's own file is not touched: run ``--invalidate --db`` on
        that file.
        """
        return invalidate_stale(
            self._maintenance_door(), refresh=refresh, tenant=tenant
        )

    def wire_snapshot(self) -> WireSnapshot:
        """The supervisor-side wire-path profile without probing any shard,
        with the decoded-kernel counts of this process's decode memo."""
        memo = protocol.decoded_kernel_stats()
        return replace(
            self._wire.snapshot(),
            kernels_unpickled=memo.misses,
            kernels_reused=memo.hits,
            kernels_evicted=memo.evictions,
        )

    def drain_spans(self, timeout: float = 10.0) -> tuple[tracing.Span, ...]:
        """Merge cluster-wide trace spans: this process plus every shard.

        Drains the supervisor's own tracer and asks every live shard for its
        retained spans (a :class:`~repro.serve.protocol.StatsCall` with
        ``drain_spans`` set), returning one merged, time-ordered tuple ready for
        :func:`repro.obs.export.write_chrome_trace`.  A shard that died or
        ships a span this build cannot parse is skipped, never fatal.
        """
        spans = list(self.tracer.drain())
        with self._lock:
            handles = [h for h in self._handles.values() if h.alive()]
        drain_call = functools.partial(protocol.StatsCall, drain_spans=True)
        for handle in handles:
            try:
                reply = self._probe(handle, drain_call, timeout)
            except ServingError:
                continue
            for payload in getattr(reply, "spans", ()):
                try:
                    spans.append(tracing.Span.from_wire(payload))
                except ValueError:
                    continue
        spans.sort(key=lambda one: one.ts_us)
        return tuple(spans)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Drain and stop every local shard, disconnect from remote shards.

        Remote shards are **not** shut down — their lifecycle belongs to
        the operator who started their listeners; they keep their warm
        state and go back to accepting the next supervisor.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # A restore in flight finishes first, so no shard is spawned or
        # re-dialed behind close()'s back.
        self._stopping.set()
        self._monitor.join(timeout=_SHUTDOWN_GRACE_S)
        for handle in self._handles.values():
            if handle.process is None:
                continue  # disconnect only; a remote listener outlives us
            try:
                handle.enqueue(
                    protocol.encode_message(
                        protocol.ShutdownCall(request_id=next(self._request_ids))
                    )
                )
            except OSError:
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE_S
        for handle in self._handles.values():
            if handle.process is None:
                continue
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()  # a stopped process ignores SIGTERM
                handle.process.join(timeout=5.0)
        for handle in self._handles.values():
            for _tenant, _, future, _trace, _deadline in handle.take_pending().values():
                if not future.done():
                    _resolve(future, error=ServingError("shard supervisor closed"))
            handle.drop_link()

    def __enter__(self) -> ShardSupervisor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
