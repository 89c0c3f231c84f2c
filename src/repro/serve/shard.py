"""Shard-side machinery: consistent-hash routing and the shard process loop.

Three parts live here:

* :class:`ShardRouter` — maps a request's **(kernel-family fingerprint,
  device)** pair onto one of N shard ids with a consistent-hash ring.  Each
  shard owns :data:`VIRTUAL_NODES` points on the ring, so keys spread
  evenly; removing
  a shard (crash, drain) remaps *only the keys that lived on it* — every
  other family keeps its shard, keeping their resident tables warm.  Routing
  is deterministic across processes and runs: any router built over the same
  shard ids makes identical decisions.
* :func:`run_shard` — the local shard process entry point: one
  :class:`~repro.serve.KernelServer` wrapped in the wire protocol on the
  socketpair end its supervisor spawned it with.  It reads
  :class:`~repro.serve.protocol.ServeCall` / ``StatsCall`` / ``PingCall`` /
  ``ShutdownCall`` messages, dispatches serve calls onto the server's
  worker pool, and writes replies back **as they complete** (out of order;
  the ``request_id`` correlates them), so one slow cold request never
  blocks a shard's warm traffic.
* :func:`serve_shard_tcp` — the same serve loop behind a TCP listener, for
  shards on other machines.  The listener accepts **concurrent supervisor
  connections** (one session thread each over the shared server).  When a
  supervisor disconnects, the shard keeps its warm state and goes back to
  accepting, so a restarted supervisor reconnects to a hot shard.

Every session, local or remote, starts with a
:class:`~repro.serve.protocol.HelloCall` handshake that pins the protocol
version and the shard's ring id.  What a shard sends follows from how the
link was opened: a spawned shard answers its supervisor with executable
kernels, and a TCP listener downgrades every executable artifact to its
source text (see ``docs/wire-protocol.md``).  A shard never unpickles what
it receives.

Every local shard opens the supervisor's tuning-database file itself and
saves its winners into it through the database's merge-on-save, whose lock
holds across processes; a TCP listener keeps its own file, which
``python -m repro.serve --invalidate --db <file>`` invalidates while the
listener runs (a tombstone beats an older record whichever process saves
last).
"""

from __future__ import annotations

import bisect
import hashlib
import logging
import os
import socket
import threading
import time

from repro.errors import DeadlineExceededError, ProtocolError, ServingError
from repro.tune.db import TuningDatabase

# Imported as a module (not a package attribute) so this file is loadable at
# any point of repro.serve's own package initialization.
import repro.serve.protocol as protocol
from repro.serve.server import KernelServer, ServeRequest

__all__ = ["ShardRouter", "run_shard", "serve_shard_tcp"]

_LOG = logging.getLogger("repro.serve.shard")

#: How long a fresh link may take to complete its handshake before the
#: shard drops it.
HANDSHAKE_TIMEOUT_S = 10.0

#: Virtual nodes per shard on the hash ring.  More nodes smooth the key
#: distribution (the classic consistent-hashing trade-off against ring size).
VIRTUAL_NODES = 64


def _ring_position(key: str) -> int:
    """A stable 64-bit ring position for a string key."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


class ShardRouter:
    """Consistent-hash routing of kernel families onto shard ids.

    Args:
        shard_ids: the shard ids participating in routing.

    The routing key is ``fingerprint::device`` — the tuning database's own
    family key — so all traffic for one (kernel family, device) pair lands
    on one shard and enjoys that shard's resident table, in-flight dedup,
    and tuning micro-batches.  Fingerprints are memoized per workload (the
    fingerprint hashes the family's wide IR, which is not free to build), so
    steady-state routing is a dictionary lookup plus a ring bisect.
    """

    def __init__(self, shard_ids) -> None:
        self._shard_ids: set[int] = set()
        self._ring: list[tuple[int, int]] = []  # (position, shard_id), sorted
        self._fingerprints: dict[object, str] = {}
        self._lock = threading.Lock()
        for shard_id in shard_ids:
            self.add_shard(shard_id)
        if not self._shard_ids:
            raise ServingError("a shard router needs at least one shard")

    # -- membership ---------------------------------------------------------

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """The shard ids currently on the ring, sorted."""
        with self._lock:
            return tuple(sorted(self._shard_ids))

    def add_shard(self, shard_id: int) -> None:
        """Join a shard: only keys hashing onto its virtual nodes move."""
        with self._lock:
            if shard_id in self._shard_ids:
                return
            self._shard_ids.add(shard_id)
            for node in range(VIRTUAL_NODES):
                position = _ring_position(f"shard-{shard_id}#vnode-{node}")
                bisect.insort(self._ring, (position, shard_id))

    def remove_shard(self, shard_id: int) -> None:
        """Leave a shard: only the keys it owned remap (to their successors)."""
        with self._lock:
            if shard_id not in self._shard_ids:
                return
            self._shard_ids.discard(shard_id)
            self._ring = [entry for entry in self._ring if entry[1] != shard_id]

    # -- routing ------------------------------------------------------------

    def fingerprint_of(self, request: ServeRequest) -> str:
        """The request's kernel-family fingerprint, memoized per workload."""
        workload = request.workload()
        with self._lock:
            cached = self._fingerprints.get(workload)
        if cached is not None:
            return cached
        fingerprint = workload.fingerprint()  # builds IR; outside the lock
        with self._lock:
            self._fingerprints[workload] = fingerprint
        return fingerprint

    def route_key(self, key: str, excluding=frozenset()) -> int:
        """The shard owning ``key``: first live virtual node clockwise.

        ``excluding`` names shards to skip (dead or draining); the walk
        continues clockwise past them, which is the rebalance-on-shard-loss
        behaviour — keys of a lost shard redistribute to their ring
        successors while everything else stays put.
        """
        with self._lock:
            live = self._shard_ids - set(excluding)
            if not live:
                raise ServingError("no live shard to route to")
            index = bisect.bisect_right(self._ring, (_ring_position(key), -1))
            for offset in range(len(self._ring)):
                position, shard_id = self._ring[(index + offset) % len(self._ring)]
                if shard_id in live:
                    return shard_id
        raise ServingError("no live shard to route to")  # pragma: no cover

    def route(self, request: ServeRequest, excluding=frozenset()) -> int:
        """The shard serving ``request``: hash of (family fingerprint, device)."""
        return self.route_key(
            f"{self.fingerprint_of(request)}::{request.device}", excluding=excluding
        )


# -- the shard process -------------------------------------------------------


def _shard_stats(shard_id: int, server: KernelServer) -> protocol.ShardStats:
    """This shard's metrics snapshot (one lock acquisition) in the wire form."""
    return protocol.ShardStats(
        shard_id=shard_id, pid=os.getpid(), **vars(server.metrics_snapshot())
    )


def _serve_connection(
    connection,
    shard_id: int,
    server: KernelServer,
    source_only: bool,
) -> bool:
    """Serve one supervisor link until shutdown or disconnect.

    ``connection`` is a :class:`~repro.serve.protocol.StreamConnection`.
    Incoming frames are always decoded with ``allow_pickled=False``: a
    shard never unpickles what it receives.  ``source_only`` governs only
    what the shard sends: every outgoing executable artifact is downgraded
    to its source text (:func:`~repro.serve.protocol.source_only_result`).

    Returns ``True`` if a :class:`~repro.serve.protocol.ShutdownCall` asked
    the shard to exit, ``False`` if the supervisor merely went away (EOF or
    an unrecoverable frame), letting a TCP listener re-accept.
    """
    send_lock = threading.Lock()

    def reply_bytes(data: bytes) -> None:
        with send_lock:
            try:
                connection.send_bytes(data)
            except (OSError, ValueError):
                pass  # supervisor is gone; the loop will see EOF and exit

    def reply(message: protocol.Message) -> None:
        reply_bytes(protocol.encode_message(message))

    def finish(request_id: int, future, trace=None, deadline_at=None) -> None:
        try:
            result = future.result()
            if deadline_at is not None:
                # Honour the call's additive deadline_ms: a result that
                # became ready past its budget is shed here, not shipped —
                # the supervisor side sees a DeadlineExceededError reply.
                late_s = time.monotonic() - deadline_at
                if late_s > 0:
                    raise DeadlineExceededError(
                        f"result ready {late_s * 1e3:.1f} ms past its "
                        f"deadline; shedding"
                    )
            if source_only:
                result = protocol.source_only_result(result)
            message = protocol.ServeReply(request_id=request_id, result=result)
        except BaseException as error:  # noqa: BLE001 - relayed over the wire
            message = protocol.ErrorReply.from_exception(request_id, error)
        if trace is None:
            reply(message)
            return
        encode_started = time.perf_counter()
        data = protocol.encode_message(message)
        encode_s = time.perf_counter() - encode_started
        trace.record(
            "wire.encode",
            time.time() - encode_s,
            encode_s,
            cat="wire",
            shard_id=shard_id,
            bytes=len(data),
        )
        # Commit the trace *before* the reply leaves: once the supervisor
        # has the result it may immediately drain this shard's spans.
        trace.finish()
        reply_bytes(data)

    while True:
        try:
            data = connection.recv_bytes()
        except (EOFError, OSError):
            return False
        except ValueError:
            # "read of closed file": a concurrent shutdown closed this
            # socket while the session blocked in recv — same as an EOF.
            return False
        except ProtocolError:
            # A torn or corrupt frame: the stream cannot be re-synchronized,
            # so this connection is over (the peer re-connects if it wants).
            return False
        decode_started = time.perf_counter()
        try:
            message = protocol.decode_message(data)
        except ProtocolError as error:
            reply(protocol.ErrorReply.from_exception(-1, error))
            continue
        decode_s = time.perf_counter() - decode_started
        if isinstance(message, protocol.ServeCall):
            request_id = message.request_id
            # The budget starts at *this shard's* decode of the call, so it
            # never depends on clock agreement with the supervisor.
            deadline_at = (
                time.monotonic() + message.deadline_ms / 1e3
                if message.deadline_ms is not None
                else None
            )
            trace = (
                server.tracer.begin(
                    "shard.serve", wire=message.trace, shard_id=shard_id
                )
                if message.trace is not None
                else None
            )
            try:
                if trace is not None:
                    trace.record(
                        "wire.decode",
                        time.time() - decode_s,
                        decode_s,
                        cat="wire",
                        shard_id=shard_id,
                        bytes=len(data),
                    )
                    with trace.activate():
                        future = server.submit(message.request, tenant=message.tenant)
                else:
                    future = server.submit(message.request, tenant=message.tenant)
            except Exception as error:  # noqa: BLE001 - bad request
                if trace is not None:
                    trace.finish(error=type(error).__name__)
                reply(protocol.ErrorReply.from_exception(request_id, error))
                continue
            future.add_done_callback(
                lambda completed, request_id=request_id, trace=trace, deadline_at=deadline_at: finish(
                    request_id, completed, trace, deadline_at
                )
            )
        elif isinstance(message, protocol.StatsCall):
            spans = (
                tuple(one.to_wire() for one in server.tracer.drain())
                if message.drain_spans
                else ()
            )
            reply(
                protocol.StatsReply(
                    request_id=message.request_id,
                    stats=_shard_stats(shard_id, server),
                    spans=spans,
                )
            )
        elif isinstance(message, protocol.PingCall):
            reply(
                protocol.PongReply(
                    request_id=message.request_id, shard_id=shard_id, pid=os.getpid()
                )
            )
        elif isinstance(message, protocol.ShutdownCall):
            return True
        else:  # a reply type sent the wrong way; report and keep serving
            reply(
                protocol.ErrorReply(
                    request_id=-1,
                    error_type="ProtocolError",
                    message=f"unexpected message {type(message).__name__}",
                )
            )


def run_shard(
    sock,
    shard_id: int,
    devices: tuple[str, ...],
    db_path=None,
    workers: int = 4,
) -> None:
    """The local shard process main loop (the supervisor's spawn target).

    ``sock`` is this process's end of the socketpair the supervisor
    spawned it with.  Owns one :class:`KernelServer` over the cluster's
    devices and the tuning-database file at ``db_path`` (``None`` keeps it
    in memory), which every local shard of the cluster opens: each saves
    its winners into the file through merge-on-save, so a shard restarted
    over it starts with every winner the cluster has tuned.

    The server is built *before* the hello is answered, so the supervisor's
    liveness deadline never counts start-up.  The supervisor spawned this
    very process and alone holds the other end of the socketpair, so
    executable artifacts cross as pickles.  A
    :class:`~repro.serve.protocol.ShutdownCall` — or the supervisor closing
    its end — drains the server and exits.
    """
    connection = protocol.StreamConnection(sock)
    server = KernelServer(db=TuningDatabase(db_path), devices=devices, workers=workers)
    try:
        _serve_session(connection, shard_id, server, source_only=False)
    finally:
        server.close()
        connection.close()


def _accept_handshake(connection, default_shard_id: int) -> int:
    """Validate a fresh link's hello; returns the session's shard id.

    The first frame must be a :class:`~repro.serve.protocol.HelloCall`
    pinning :data:`~repro.serve.protocol.PROTOCOL_VERSION`; anything else —
    a stale supervisor, a port scanner, a version-skewed build — raises
    :class:`~repro.errors.ProtocolError` here.
    """
    message = protocol.decode_message(connection.recv_bytes())
    if not isinstance(message, protocol.HelloCall):
        raise ProtocolError(
            f"expected a hello handshake, got {type(message).__name__}"
        )
    if message.protocol_version != protocol.PROTOCOL_VERSION:
        raise ProtocolError(
            f"handshake pins protocol version {message.protocol_version}, "
            f"this shard speaks {protocol.PROTOCOL_VERSION}"
        )
    shard_id = message.shard_id if message.shard_id >= 0 else default_shard_id
    connection.send_bytes(
        protocol.encode_message(
            protocol.HelloReply(
                request_id=message.request_id,
                shard_id=shard_id,
                pid=os.getpid(),
                protocol_version=protocol.PROTOCOL_VERSION,
            )
        )
    )
    return shard_id


def _serve_session(connection, shard_id: int, server: KernelServer, source_only: bool) -> bool:
    """Handshake a fresh link within :data:`HANDSHAKE_TIMEOUT_S`, then serve it.

    A refused handshake gets a best-effort
    :class:`~repro.serve.protocol.ErrorReply` and ends only this session.
    Returns what :func:`_serve_connection` returns (``False`` when the
    handshake failed).
    """
    try:
        connection.settimeout(HANDSHAKE_TIMEOUT_S)
        session_id = _accept_handshake(connection, shard_id)
        connection.settimeout(None)
    except ProtocolError as error:
        _LOG.warning("shard %d refused a handshake: %s", shard_id, error)
        try:
            connection.send_bytes(
                protocol.encode_message(protocol.ErrorReply.from_exception(-1, error))
            )
        except (OSError, ValueError):
            pass
        return False
    except (EOFError, OSError):
        return False
    _LOG.info("shard %d accepted a supervisor session", session_id)
    return _serve_connection(connection, session_id, server, source_only)


def serve_shard_tcp(
    host: str = "127.0.0.1",
    port: int = 0,
    shard_id: int = 0,
    devices: tuple[str, ...] = ("rtx4090",),
    db_path=None,
    workers: int = 4,
    on_bound=None,
    metrics_port: int | None = None,
) -> None:
    """Serve one shard over a TCP listener (the ``--listen`` entry point).

    One :class:`KernelServer` (with its own tuning database at ``db_path``;
    an unreadable file raises :class:`~repro.errors.TuningError`) lives for
    the whole listener lifetime, so its resident
    table and kernel cache stay warm across supervisor reconnects.  The
    listener accepts **concurrent supervisor connections** — each runs its
    own session thread over the shared server.  Each accepted socket must
    complete a :func:`handshake <_accept_handshake>` within
    :data:`HANDSHAKE_TIMEOUT_S` (pinning the protocol version and adopting
    the supervisor-assigned ring id).  Every reply is source-only, so
    serving over TCP never ships executable pickles.  A failed handshake
    or a supervisor disconnect ends only that session; a
    :class:`~repro.serve.protocol.ShutdownCall` on *any* session closes
    the listener, drains every session, and exits.

    ``port=0`` binds an ephemeral port; ``on_bound`` (if given) is called
    with the listener's ``(host, port)`` once accepting — how tests and the
    CLI learn the address.

    ``metrics_port`` (if given) additionally serves this shard's own
    Prometheus-style exposition and retained trace spans over HTTP for the
    listener's lifetime — the ``--metrics-port`` flag in ``--listen`` mode.
    """
    server = KernelServer(db=TuningDatabase(db_path), devices=devices, workers=workers)
    metrics_endpoint = None
    if metrics_port is not None:
        # Imported lazily so the shard hot path never touches the HTTP
        # machinery unless the operator asked for a scrape surface.
        from repro.obs.http import MetricsEndpoint
        from repro.obs.promtext import render_server_metrics

        metrics_endpoint = MetricsEndpoint(
            metrics_port,
            lambda: render_server_metrics(server.metrics_snapshot()),
            trace_fn=server.tracer.snapshot,
        ).start()
        _LOG.info(
            "shard %d metrics endpoint on http://%s:%d/metrics",
            shard_id,
            metrics_endpoint.address[0],
            metrics_endpoint.port,
        )
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    shutdown = threading.Event()
    sessions_lock = threading.Lock()
    active: list = []  # StreamConnections with a live session thread
    threads: list = []
    bound_address: list = []  # [(host, port)] once bound

    def close_listener() -> None:
        shutdown.set()
        try:
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if bound_address:
            # A thread blocked in accept() does not reliably notice a
            # cross-thread close on every platform; a self-connection
            # always wakes it (the loop re-checks ``shutdown`` and exits).
            try:
                wake = socket.create_connection(bound_address[0], timeout=1.0)
                wake.close()
            except OSError:
                pass
        try:
            listener.close()
        except OSError:
            pass

    def session(connection) -> None:
        asked_to_stop = _serve_session(connection, shard_id, server, source_only=True)
        connection.close()
        if asked_to_stop:
            # Unblock the accept loop; it tears everything else down.
            close_listener()

    try:
        listener.bind((host, port))
        listener.listen(16)
        bound_address.append(listener.getsockname()[:2])
        _LOG.info(
            "shard %d listening on %s:%d",
            shard_id,
            bound_address[0][0],
            bound_address[0][1],
        )
        if on_bound is not None:
            on_bound(bound_address[0])
        while not shutdown.is_set():
            try:
                sock, _peer = listener.accept()
            except OSError:
                break  # a shutdown session closed the listener
            if shutdown.is_set():
                sock.close()  # the close_listener wake-up connection
                break
            connection = protocol.StreamConnection(sock)
            thread = threading.Thread(
                target=session,
                args=(connection,),
                name=f"shard-{shard_id}-session",
                daemon=True,
            )
            with sessions_lock:
                active.append(connection)
                threads.append(thread)
            thread.start()
    finally:
        shutdown.set()
        close_listener()
        with sessions_lock:
            for connection in active:
                connection.close()  # unblocks sessions mid-recv
            pending = list(threads)
        for thread in pending:
            thread.join(timeout=5.0)
        if metrics_endpoint is not None:
            metrics_endpoint.close()
        server.close()
