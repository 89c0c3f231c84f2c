"""Wire-protocol round trips: every message type, framing, version gates.

The property under test is that a message survives the wire *exactly* —
including a pickled executable kernel artifact that must compute the same
results after crossing — and that every malformed input (wrong version,
unknown type, truncated frame, untrusted pickle) is rejected with
:class:`ProtocolError`, never half-decoded.
"""

import dataclasses
import io
import random
import socket
import threading
import time

import pytest

from repro.errors import ProtocolError, ServingError, TuningError
from repro.core.codegen.python_exec import CompiledKernel
from repro.serve import KernelServer, ServeRequest
from repro.serve import protocol

from tests.serve.test_protocol_v2 import join_container, split_container

BITS = 128
SIZE = 16


@pytest.fixture(scope="module")
def served():
    """One cold-served result (executable artifact + tuning provenance)."""
    with KernelServer(devices=("rtx4090",)) as server:
        yield server.serve(ServeRequest(kind="ntt", bits=BITS, size=SIZE))


def round_trip(message, allow_pickled=False):
    return protocol.decode_message(
        protocol.encode_message(message), allow_pickled=allow_pickled
    )


class TestMessageRoundTrips:
    def test_serve_call(self):
        message = protocol.ServeCall(
            request_id=7, request=ServeRequest(kind="blas", bits=256, operation="vmul")
        )
        assert round_trip(message) == message

    def test_serve_reply_with_pickled_kernel(self, served):
        message = protocol.ServeReply(request_id=9, result=served)
        decoded = round_trip(message, allow_pickled=True)
        assert decoded.request_id == 9
        result = decoded.result
        assert result.request == served.request
        assert result.config == served.config
        assert result.fingerprint == served.fingerprint
        assert result.warm == served.warm
        # The tuning provenance crosses (minus the trial list, by design).
        assert result.tuning.candidate == served.tuning.candidate
        assert result.tuning.workload == served.tuning.workload
        assert result.tuning.trials == ()
        # The executable artifact computes identically after the wire.
        assert isinstance(result.artifact, CompiledKernel)
        limbs = tuple(range(len(served.artifact.kernel.params)))
        assert result.artifact.call_limbs(*limbs) == served.artifact.call_limbs(*limbs)

    def test_serve_reply_with_source_artifact(self, served):
        source_result = dataclasses.replace(
            served, request=dataclasses.replace(served.request, target="cuda"),
            artifact="__global__ void k() {}",
        )
        decoded = round_trip(
            protocol.ServeReply(request_id=1, result=source_result)
        )
        assert decoded.result.artifact == "__global__ void k() {}"

    def test_error_reply_rebuilds_repro_errors(self):
        message = protocol.ErrorReply.from_exception(3, TuningError("bad workload"))
        decoded = round_trip(message)
        assert decoded == message
        error = decoded.exception()
        assert isinstance(error, TuningError)
        assert "bad workload" in str(error)

    def test_error_reply_degrades_unknown_types_to_serving_error(self):
        decoded = round_trip(protocol.ErrorReply.from_exception(3, TypeError("boom")))
        error = decoded.exception()
        assert isinstance(error, ServingError)
        assert "TypeError" in str(error)

    def test_stats_round_trip(self):
        stats = protocol.ShardStats(
            shard_id=1,
            pid=1234,
            requests=10,
            warm_serves=6,
            cold_serves=3,
            dedup_hits=1,
            errors=0,
            tune_batches=2,
            batched_tunes=3,
            queue_depth=0,
            resident_kernels=3,
            warm_histogram=(0, 4, 2, 0),
            cold_histogram=(0, 0, 1, 2),
        )
        message = protocol.StatsReply(request_id=11, stats=stats)
        assert round_trip(message) == message

    @pytest.mark.parametrize(
        "message",
        [
            protocol.StatsCall(request_id=2),
            protocol.PingCall(request_id=4),
            protocol.PongReply(request_id=4, shard_id=0, pid=77),
            protocol.ShutdownCall(request_id=5),
        ],
    )
    def test_simple_messages(self, message):
        assert round_trip(message) == message


class TestArtifactEncoding:
    def test_pickled_kernel_requires_trust(self, served):
        frames = []
        payload = protocol.encode_artifact(served.artifact, frames)
        assert payload == {"encoding": "pickled_kernel", "frame": 0}
        with pytest.raises(ProtocolError, match="untrusted"):
            # allow_pickled defaults to False
            protocol.decode_artifact(payload, frames=tuple(frames))

    def test_source_passes_untrusted(self):
        frames = []
        payload = protocol.encode_artifact("void k();", frames)
        assert frames == [b"void k();"]
        assert protocol.decode_artifact(payload, frames=tuple(frames)) == "void k();"

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ProtocolError, match="unknown artifact encoding"):
            protocol.decode_artifact(
                {"encoding": "dll", "frame": 0}, allow_pickled=True, frames=(b"",)
            )

    def test_unencodable_artifact_rejected(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            protocol.encode_artifact(object(), [])

    def test_corrupt_pickle_rejected(self):
        payload = {"encoding": "pickled_kernel", "frame": 0}
        with pytest.raises(ProtocolError, match="corrupt"):
            protocol.decode_artifact(
                payload, allow_pickled=True, frames=(b"not a pickle!",)
            )

    def test_inline_artifact_data_rejected(self):
        # Bodies only ever travel in frames; an inline "data" body is malformed.
        with pytest.raises(ProtocolError, match="malformed artifact"):
            protocol.decode_artifact({"encoding": "source", "data": "void k();"})


def ping_head(**overrides):
    head, _ = split_container(protocol.encode_message(protocol.PingCall(request_id=1)))
    head.update(overrides)
    return head


class TestVersionAndShape:
    def test_unknown_version_rejected(self):
        data = join_container(ping_head(**{"moma-serve": protocol.PROTOCOL_VERSION + 1}))
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            protocol.decode_message(data)

    def test_unknown_message_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            protocol.decode_message(join_container(ping_head(type="warp")))

    def test_non_json_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_message(b"\x00\x01binary")

    def test_bare_json_envelope_rejected(self):
        # A JSON envelope outside the container is not a message.
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_message(
                b'{"moma-serve": 2, "type": "ping", "payload": {"request_id": 1}}'
            )

    def test_foreign_envelope_rejected(self):
        with pytest.raises(ProtocolError, match="not a moma-serve envelope"):
            protocol.decode_message(join_container({"jsonrpc": "2.0"}))

    def test_missing_request_id_rejected(self):
        with pytest.raises(ProtocolError, match="request_id"):
            protocol.decode_message(join_container(ping_head(payload={})))

    def test_unknown_payload_keys_are_ignored(self):
        # Additive optional fields may ride within a protocol version.
        head = ping_head(payload={"request_id": 8, "future_field": True})
        decoded = protocol.decode_message(join_container(head))
        assert decoded == protocol.PingCall(request_id=8)


class TestDeadlineField:
    CALL = protocol.ServeCall(
        request_id=7, request=ServeRequest(kind="ntt", bits=BITS, size=SIZE)
    )

    def test_no_deadline_sends_no_key(self):
        head, _ = split_container(protocol.encode_message(self.CALL))
        assert "deadline_ms" not in head["payload"]

    def test_deadline_round_trips(self):
        call = dataclasses.replace(self.CALL, deadline_ms=250.0)
        assert round_trip(call).deadline_ms == 250.0

    @pytest.mark.parametrize("value", [0, -5, "soon", True, None])
    def test_malformed_deadline_decodes_as_no_deadline(self, value):
        head, tail = split_container(protocol.encode_message(self.CALL))
        head["payload"]["deadline_ms"] = value
        assert protocol.decode_message(join_container(head, tail)).deadline_ms is None


def framed(message) -> bytes:
    """One message as it crosses a socket: a 4-byte length, then the bytes."""
    data = protocol.encode_message(message)
    return len(data).to_bytes(4, "big") + data


def read_message(stream):
    """Read one frame and decode it; ``None`` on clean EOF at a boundary."""
    frame = protocol.read_frame(stream)
    return None if frame is None else protocol.decode_message(frame)


class TestFraming:
    def test_stream_round_trip_preserves_order(self):
        left, right = socket.socketpair()
        sender = protocol.StreamConnection(left)
        receiver = protocol.StreamConnection(right)
        messages = [
            protocol.PingCall(request_id=1),
            protocol.StatsCall(request_id=2),
            protocol.ShutdownCall(request_id=3),
        ]
        try:
            sender.send_bytes(protocol.encode_message(messages[0]))
            sender.send_many([protocol.encode_message(one) for one in messages[1:]])
            sender.close()
            received = [protocol.decode_message(receiver.recv_bytes()) for _ in messages]
            assert received == messages
            with pytest.raises(EOFError):  # clean EOF at a frame boundary
                receiver.recv_bytes()
        finally:
            receiver.close()

    def test_truncated_frame_rejected(self):
        data = framed(protocol.PingCall(request_id=1))
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.read_frame(io.BytesIO(data[:-3]))

    def test_short_length_prefix_rejected(self):
        with pytest.raises(ProtocolError, match="short length prefix"):
            protocol.read_frame(io.BytesIO(b"\x00\x01"))

    def test_implausible_length_rejected(self):
        prefix = (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="implausible"):
            protocol.read_frame(io.BytesIO(prefix + b"x"))


class TestHandshakeMessages:
    def test_hello_round_trip(self):
        message = protocol.HelloCall(
            request_id=1,
            protocol_version=protocol.PROTOCOL_VERSION,
            shard_id=3,
        )
        assert round_trip(message) == message

    def test_hello_reply_round_trip(self):
        message = protocol.HelloReply(
            request_id=1,
            shard_id=3,
            pid=4242,
            protocol_version=protocol.PROTOCOL_VERSION,
        )
        assert round_trip(message) == message

    def test_a_trust_claim_in_a_hello_reply_grants_nothing(self):
        # What a link carries follows from how it was opened; a peer that
        # still names a trust level in its reply changes nothing.
        message = protocol.HelloReply(
            request_id=1,
            shard_id=3,
            pid=4242,
            protocol_version=protocol.PROTOCOL_VERSION,
        )
        head, tail = split_container(protocol.encode_message(message))
        head["payload"]["trust"] = "pickled"
        assert protocol.decode_message(join_container(head, tail)) == message

    def test_source_only_result_downgrades_kernels(self, served):
        downgraded = protocol.source_only_result(served)
        assert downgraded.artifact == served.artifact.source
        assert downgraded.request == served.request
        # Source-text artifacts pass through untouched.
        assert protocol.source_only_result(downgraded) is downgraded


class TestSocketFuzz:
    """Malformed frames over a real socketpair must always fail cleanly.

    Every outcome of feeding truncated / oversized / garbage bytes into
    :func:`protocol.read_frame` and :func:`protocol.decode_message` must be
    a :class:`ProtocolError` (or a clean-EOF ``None``) — never a hang, an
    ``OverflowError``, or a ``MemoryError`` from trusting a corrupt length
    prefix.  The reader side uses an *unbuffered* socket file, so
    ``stream.read(n)`` legally returns short — exactly the case the
    ``_read_exact`` loop exists for.
    """

    @staticmethod
    def feed(payload: bytes):
        """Deliver ``payload`` then EOF; return/raise the decoded outcome."""
        writer, reader_sock = socket.socketpair()
        with writer, reader_sock:
            reader_sock.settimeout(30.0)  # a hang fails loudly, not forever
            reader = reader_sock.makefile("rb", buffering=0)
            if payload:
                writer.sendall(payload)
            writer.shutdown(socket.SHUT_WR)
            return read_message(reader)

    def test_empty_stream_is_clean_eof(self):
        assert self.feed(b"") is None

    def test_every_truncation_of_a_valid_frame_is_rejected(self):
        frame = framed(protocol.PingCall(request_id=9))
        for cut in range(1, len(frame)):
            with pytest.raises(ProtocolError):
                self.feed(frame[:cut])

    def test_oversized_length_prefix_never_allocates(self):
        for length in (protocol.MAX_FRAME_BYTES + 1, 0xFFFFFFFF):
            with pytest.raises(ProtocolError, match="implausible"):
                self.feed(length.to_bytes(4, "big") + b"tiny")

    def test_zero_length_frame_rejected(self):
        with pytest.raises(ProtocolError, match="implausible"):
            self.feed(b"\x00\x00\x00\x00")

    def test_max_length_prefix_with_short_body_is_truncation(self):
        # A plausible (in-bounds) length the peer never finishes writing.
        prefix = (1 << 20).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="truncated"):
            self.feed(prefix + b"only this much arrived")

    def test_garbage_bytes_never_escape_protocol_error(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(64):
            payload = rng.randbytes(rng.randrange(1, 64))
            try:
                self.feed(payload)
            except ProtocolError:
                pass  # the only acceptable exception
            # The same garbage behind a valid prefix reaches the decoder.
            with pytest.raises(ProtocolError):
                self.feed(len(payload).to_bytes(4, "big") + payload)

    def test_valid_frame_survives_dribbled_delivery(self):
        # One byte at a time across the socket: _read_exact must reassemble.
        frame = framed(protocol.StatsCall(request_id=5))
        writer, reader_sock = socket.socketpair()
        with writer, reader_sock:
            reader_sock.settimeout(30.0)
            reader = reader_sock.makefile("rb", buffering=0)

            def dribble():
                for index in range(len(frame)):
                    writer.sendall(frame[index : index + 1])
                    time.sleep(0.001)
                writer.shutdown(socket.SHUT_WR)

            feeder = threading.Thread(target=dribble, daemon=True)
            feeder.start()
            assert read_message(reader) == protocol.StatsCall(request_id=5)
            feeder.join(timeout=10)
