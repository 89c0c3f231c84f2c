"""The shard tier over real localhost TCP sockets, end to end.

The acceptance properties of the network transport live here: a supervisor
serves requests through ≥2 shards over TCP, the handshake pins the protocol
version, a TCP link carries source text only (source round-trips, and a
pickled artifact from a listener is refused unopened), a shard never
unpickles what it receives, killing a remote shard's connection re-routes
its keys to ring successors without hanging in-flight futures, and a
listener survives a supervisor disconnect (re-accept) and a bad handshake.

TCP shards run as in-process listener threads (each owns a real
``KernelServer``): the bytes cross real sockets exactly as they would
between machines, without per-test process spawn cost.
"""

import dataclasses
import json
import pickle
import queue
import socket
import threading
import time

import pytest

from repro.core.codegen.python_exec import CompiledKernel
from repro.errors import ProtocolError, ReproError, ServingError
from repro.serve import ServeRequest, ShardSupervisor, serve_shard_tcp
from repro.serve import protocol

SIZE = 16

#: Distinct kernel families, enough to all but surely spread over 2 shards.
FAMILY_MIX = [
    ServeRequest(kind="ntt", bits=64, size=SIZE),
    ServeRequest(kind="ntt", bits=128, size=SIZE),
    ServeRequest(kind="ntt", bits=128, size=SIZE, operation="gentleman_sande"),
    ServeRequest(kind="ntt", bits=256, size=SIZE),
    ServeRequest(kind="blas", bits=64, operation="vadd"),
    ServeRequest(kind="blas", bits=128, operation="vmul"),
    ServeRequest(kind="blas", bits=256, operation="axpy"),
]


def start_listener(shard_id=0, workers=2):
    """One TCP shard in a daemon thread; returns (address, thread)."""
    bound: queue.Queue = queue.Queue()
    thread = threading.Thread(
        target=serve_shard_tcp,
        kwargs=dict(
            host="127.0.0.1",
            port=0,
            shard_id=shard_id,
            workers=workers,
            on_bound=bound.put,
        ),
        daemon=True,
    )
    thread.start()
    return bound.get(timeout=30), thread


def hello(connection, shard_id=-1):
    """Open a raw session the way a supervisor does; returns the reply."""
    connection.send_bytes(
        protocol.encode_message(
            protocol.HelloCall(
                request_id=1,
                protocol_version=protocol.PROTOCOL_VERSION,
                shard_id=shard_id,
            )
        )
    )
    return protocol.decode_message(connection.recv_bytes())


def shut_down_listener(address, thread):
    """Stop a listener the way an operator would: hello, then shutdown."""
    try:
        sock = socket.create_connection(address, timeout=5)
    except OSError:
        return  # already gone
    connection = protocol.StreamConnection(sock)
    try:
        hello(connection)
        connection.send_bytes(
            protocol.encode_message(protocol.ShutdownCall(request_id=2))
        )
    except (OSError, EOFError):
        pass
    finally:
        connection.close()
    thread.join(timeout=60)


@pytest.fixture(scope="module")
def tcp_cluster():
    """Two TCP shard listeners and one supervisor connected to both."""
    listeners = [start_listener(shard_id=i) for i in range(2)]
    supervisor = ShardSupervisor(
        shards=0,
        devices=("rtx4090",),
        connect=tuple(address for address, _ in listeners),
    )
    results = [supervisor.serve(request) for request in FAMILY_MIX]
    yield supervisor, results
    supervisor.close()
    for address, thread in listeners:
        shut_down_listener(address, thread)


class TestServingOverTcp:
    def test_all_families_served(self, tcp_cluster):
        _, results = tcp_cluster
        assert len(results) == len(FAMILY_MIX)
        for request, result in zip(FAMILY_MIX, results):
            assert result.request == request
            assert result.tuning is not None

    def test_traffic_crossed_both_shards(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        routed = supervisor.routed_counts()
        assert sum(routed.values()) >= len(FAMILY_MIX)
        assert set(routed) == {0, 1}, f"all traffic landed on {set(routed)}"

    def test_source_only_artifacts_round_trip(self, tcp_cluster):
        # A TCP link carries source text only: executable kernels arrive as
        # their generated source, never as pickles.
        _, results = tcp_cluster
        for result in results:
            assert isinstance(result.artifact, str)
            assert "def " in result.artifact

    def test_repeat_requests_are_warm(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        for request in FAMILY_MIX[:3]:
            assert supervisor.serve(request).warm

    def test_stats_aggregate_across_tcp_shards(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        stats = supervisor.stats()
        assert len(stats.shards) == 2
        assert stats.requests >= len(FAMILY_MIX)
        assert stats.cold_serves >= len(FAMILY_MIX)

    def test_ping_reaches_every_shard(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        assert set(supervisor.ping()) == {0, 1}

    def test_shard_side_failure_raises_here(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        bad = ServeRequest(kind="ntt", bits=128, size=SIZE, target="no-such-target")
        with pytest.raises(ReproError):
            supervisor.serve(bad)

    def test_every_remote_shard_holds_one_source_only_link(self, tcp_cluster):
        supervisor, _ = tcp_cluster
        for handle in supervisor._handles.values():
            assert handle.address is not None and handle.process is None
            assert handle.allow_pickled is False
            assert isinstance(handle.connection, protocol.StreamConnection)
        assert supervisor.wire_snapshot().messages_sent >= len(FAMILY_MIX)


class TestHandshake:
    def test_version_mismatch_is_refused(self):
        address, thread = start_listener()
        try:
            sock = socket.create_connection(address, timeout=5)
            connection = protocol.StreamConnection(sock)
            try:
                connection.send_bytes(
                    protocol.encode_message(
                        protocol.HelloCall(
                            request_id=1,
                            protocol_version=protocol.PROTOCOL_VERSION + 1,
                            shard_id=0,
                        )
                    )
                )
                reply = protocol.decode_message(connection.recv_bytes())
                assert isinstance(reply, protocol.ErrorReply)
                assert "protocol version" in reply.message
            finally:
                connection.close()
            # The listener survives the refusal and accepts a proper peer.
            supervisor = ShardSupervisor(
                shards=0, devices=("rtx4090",), connect=(address,)
            )
            try:
                assert 0 in supervisor.ping()
            finally:
                supervisor.close()
        finally:
            shut_down_listener(address, thread)

    def test_non_hello_first_frame_is_refused(self):
        address, thread = start_listener()
        try:
            sock = socket.create_connection(address, timeout=5)
            connection = protocol.StreamConnection(sock)
            try:
                connection.send_bytes(
                    protocol.encode_message(protocol.PingCall(request_id=1))
                )
                reply = protocol.decode_message(connection.recv_bytes())
                assert isinstance(reply, protocol.ErrorReply)
                assert "hello" in reply.message
            finally:
                connection.close()
        finally:
            shut_down_listener(address, thread)

    def test_unreachable_remote_fails_construction(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            free_port = placeholder.getsockname()[1]
        with pytest.raises(ServingError, match="cannot reach"):
            ShardSupervisor(
                shards=0,
                devices=("rtx4090",),
                connect=(f"127.0.0.1:{free_port}",),
                connect_timeout=0.5,
            )

    def test_bad_addresses_rejected(self):
        with pytest.raises(ServingError, match="host:port"):
            ShardSupervisor(shards=0, devices=("rtx4090",), connect=("nocolon",))
        with pytest.raises(ServingError, match="port"):
            ShardSupervisor(shards=0, devices=("rtx4090",), connect=("host:zap",))


class TestDisconnectRebalance:
    def test_lost_connection_reroutes_to_ring_successor(self):
        # Killing a remote shard's connection must re-route its keys to the
        # surviving shard — in-flight futures resolve, nothing hangs.
        listeners = [start_listener(shard_id=i) for i in range(2)]
        supervisor = ShardSupervisor(
            shards=0,
            devices=("rtx4090",),
            connect=tuple(address for address, _ in listeners),
            restart=False,  # no re-dial: the loss must be absorbed by the ring
        )
        try:
            request = ServeRequest(kind="ntt", bits=128, size=SIZE)
            supervisor.serve(request)
            victim = supervisor.router.route(request)
            survivor = 1 - victim

            in_flight = supervisor.submit(
                ServeRequest(kind="ntt", bits=256, size=SIZE)
            )
            supervisor._handles[victim].connection.close()

            # In-flight work resolves (re-routed if it was on the victim).
            assert in_flight.result(timeout=120).request.bits == 256

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and victim in supervisor.router.shard_ids:
                time.sleep(0.05)
            assert supervisor.router.shard_ids == (survivor,)

            # The victim's family now routes to — and is served by — the
            # ring successor.
            assert supervisor.router.route(request) == survivor
            assert supervisor.serve(request).request == request
        finally:
            supervisor.close()
            for address, thread in listeners:
                shut_down_listener(address, thread)

    def test_supervisor_reconnects_after_connection_loss(self):
        # With restart enabled the monitor re-dials the listener (which has
        # gone back to accept) and the shard re-joins the ring.
        address, thread = start_listener()
        supervisor = ShardSupervisor(
            shards=0, devices=("rtx4090",), connect=(address,)
        )
        try:
            supervisor.serve(ServeRequest(kind="ntt", bits=64, size=SIZE))
            supervisor._handles[0].connection.close()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                handle = supervisor._handles[0]
                if handle.alive() and 0 in supervisor.router.shard_ids:
                    break
                time.sleep(0.05)
            assert supervisor._handles[0].alive()
            assert supervisor.router.shard_ids == (0,)
            # The listener kept its server warm across the reconnect.
            assert supervisor.serve(ServeRequest(kind="ntt", bits=64, size=SIZE)).warm
        finally:
            supervisor.close()
            shut_down_listener(address, thread)


class _OpensAFile:
    """A pickle payload that creates a file when unpickled."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def pickled_result_frame(marker, request_id=5) -> bytes:
    """A ``result`` message whose artifact is a pickle creating ``marker``."""
    payload = {
        "request_id": request_id,
        "result": {
            "request": dataclasses.asdict(ServeRequest(kind="ntt", bits=64, size=SIZE)),
            "artifact": {"encoding": "pickled_kernel", "frame": 0},
        },
    }
    body = pickle.dumps(_OpensAFile(str(marker)))
    head = json.dumps(
        {"moma-serve": 2, "type": "result", "payload": payload, "frames": [len(body)]}
    ).encode("utf-8")
    return (
        protocol.FRAME_MAGIC
        + len(head).to_bytes(4, "big")
        + head
        + len(body).to_bytes(4, "big")
        + body
    )


class TestTcpLinkIsSourceOnly:
    def test_a_listener_replies_with_source_text(self):
        # The listener downgrades every result before it is sent, whoever
        # dialled it: the reply's artifact frame is source text.
        address, thread = start_listener()
        try:
            connection = protocol.StreamConnection(
                socket.create_connection(address, timeout=5)
            )
            try:
                hello(connection, shard_id=0)
                connection.send_bytes(
                    protocol.encode_message(
                        protocol.ServeCall(
                            request_id=2,
                            request=ServeRequest(kind="ntt", bits=64, size=SIZE),
                        )
                    )
                )
                data = connection.recv_bytes()
            finally:
                connection.close()
        finally:
            shut_down_listener(address, thread)
        offset = len(protocol.FRAME_MAGIC)
        length = int.from_bytes(data[offset : offset + 4], "big")
        head = json.loads(data[offset + 4 : offset + 4 + length])
        artifact = head["payload"]["result"]["artifact"]
        assert artifact["encoding"] == protocol.SOURCE_ENCODING
        reply = protocol.decode_message(data)
        assert isinstance(reply, protocol.ServeReply)
        assert "def " in reply.result.artifact

    def test_pickled_frame_from_a_listener_is_refused_unopened(self, tmp_path):
        # A TCP link carries source text only, whatever the peer claims to
        # be: a listener answering a serve call with a pickled kernel gets
        # its link poisoned before anything is unpickled.
        marker = tmp_path / "unpickled"
        bound: queue.Queue = queue.Queue()

        def rogue_listener():
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
                listener.bind(("127.0.0.1", 0))
                listener.listen(1)
                bound.put(listener.getsockname()[:2])
                sock, _ = listener.accept()
                connection = protocol.StreamConnection(sock)
                try:
                    call = protocol.decode_message(connection.recv_bytes())
                    connection.send_bytes(
                        protocol.encode_message(
                            protocol.HelloReply(
                                request_id=call.request_id,
                                shard_id=call.shard_id,
                                pid=1,
                                protocol_version=protocol.PROTOCOL_VERSION,
                            )
                        )
                    )
                    while True:
                        message = protocol.decode_message(connection.recv_bytes())
                        if isinstance(message, protocol.ServeCall):
                            connection.send_bytes(
                                pickled_result_frame(marker, message.request_id)
                            )
                except (EOFError, OSError, ProtocolError):
                    pass  # the supervisor poisoned the link
                finally:
                    connection.close()

        thread = threading.Thread(target=rogue_listener, daemon=True)
        thread.start()
        supervisor = ShardSupervisor(
            shards=0,
            devices=("rtx4090",),
            connect=(bound.get(timeout=30),),
            restart=False,
        )
        try:
            with pytest.raises(ReproError):
                supervisor.serve(ServeRequest(kind="ntt", bits=64, size=SIZE))
            assert supervisor.router.shard_ids == ()
        finally:
            supervisor.close()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not marker.exists()


class TestShardNeverUnpickles:
    def test_pickled_artifact_sent_to_a_shard_is_refused_unopened(self, tmp_path):
        # A shard decodes every frame with pickles refused: a result frame
        # whose artifact is a pickle is refused before anything is
        # unpickled.
        marker = tmp_path / "unpickled"
        frame = pickled_result_frame(marker)
        address, thread = start_listener()
        try:
            connection = protocol.StreamConnection(
                socket.create_connection(address, timeout=5)
            )
            try:
                hello(connection, shard_id=0)
                connection.send_bytes(frame)
                reply = protocol.decode_message(connection.recv_bytes())
            finally:
                connection.close()
        finally:
            shut_down_listener(address, thread)
        assert isinstance(reply, protocol.ErrorReply)
        assert "unpickle" in reply.message
        assert not marker.exists()


class TestShardRefusesNativeTarget:
    def test_native_request_from_a_remote_caller_runs_no_compiler(self, monkeypatch):
        # A peer that skips the supervisor's check still gets a typed
        # refusal from the shard, which never builds and keeps serving.
        import repro.core.codegen.native as native

        def compiler_must_not_run(*args, **kwargs):  # pragma: no cover - the failure
            raise AssertionError("the shard ran the C compiler")

        monkeypatch.setattr(native, "_compile", compiler_must_not_run)
        request = ServeRequest(kind="blas", bits=128, operation="vadd", tune=False)
        address, thread = start_listener()
        try:
            connection = protocol.StreamConnection(socket.create_connection(address, timeout=5))
            try:
                hello(connection)
                replies = []
                for request_id, target in ((5, "native"), (6, "cuda")):
                    connection.send_bytes(
                        protocol.encode_message(
                            protocol.ServeCall(
                                request_id=request_id,
                                request=dataclasses.replace(request, target=target),
                            )
                        )
                    )
                    replies.append(protocol.decode_message(connection.recv_bytes()))
            finally:
                connection.close()
        finally:
            shut_down_listener(address, thread)
        refused, served = replies
        assert isinstance(refused, protocol.ErrorReply)
        assert refused.error_type == "ServingError" and "native" in refused.message
        assert isinstance(served, protocol.ServeReply)
        assert "__global__" in served.result.artifact


class TestMixedRing:
    def test_local_and_remote_shards_share_one_ring(self):
        address, thread = start_listener(shard_id=0)
        supervisor = ShardSupervisor(
            shards=1,  # one spawned local shard...
            devices=("rtx4090",),
            connect=(address,),  # ...plus one remote: ring ids 0 (local), 1 (remote)
            workers=2,
        )
        try:
            artifacts = {}
            for request in FAMILY_MIX:
                result = supervisor.serve(request)
                assert result.request == request
                artifacts[supervisor.router.route(request)] = result.artifact
            routed = supervisor.routed_counts()
            assert set(routed) == {0, 1}, f"all traffic landed on {set(routed)}"
            pongs = supervisor.ping()
            assert set(pongs) == {0, 1}
            # The spawned shard's socketpair carries executable kernels
            # while the TCP shard's link carries source text.
            assert isinstance(artifacts[0], CompiledKernel)
            assert isinstance(artifacts[1], str)
            stats = supervisor.stats()
            assert len(stats.shards) == 2
        finally:
            supervisor.close()
            shut_down_listener(address, thread)
