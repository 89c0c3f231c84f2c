"""The binary container: payload frames and frame fuzzing.

The acceptance properties of the wire container live here: every message
round-trips through it (artifact bodies as raw length-prefixed frames — no
base64, no JSON string-escaping), a kernel reply is its raw pickle plus a
small head, and every malformed container — truncated frames, head/frame
length disagreements, garbage, trailing bytes — fails with
:class:`ProtocolError`, never a hang or a bad allocation.
"""

import dataclasses
import json
import pickle
import socket

import pytest

from repro.core.codegen.python_exec import CompiledKernel
from repro.errors import ProtocolError
from repro.serve import KernelServer, ServeRequest
from repro.serve import protocol

BITS = 128
SIZE = 16

V2 = protocol.PROTOCOL_VERSION_2


def split_container(blob: bytes) -> tuple[dict, bytes]:
    """The JSON head of an encoded message and the frame bytes after it."""
    offset = len(protocol.FRAME_MAGIC)
    length = int.from_bytes(blob[offset : offset + 4], "big")
    head = json.loads(blob[offset + 4 : offset + 4 + length].decode("utf-8"))
    return head, blob[offset + 4 + length :]


def join_container(head: dict, tail: bytes = b"") -> bytes:
    """An encoded message rebuilt around ``head``; ``tail`` (the frames) verbatim."""
    data = json.dumps(head, sort_keys=True).encode("utf-8")
    return protocol.FRAME_MAGIC + len(data).to_bytes(4, "big") + data + tail


@pytest.fixture(scope="module")
def served():
    """One cold-served result (executable artifact + tuning provenance)."""
    with KernelServer(devices=("rtx4090",)) as server:
        yield server.serve(ServeRequest(kind="ntt", bits=BITS, size=SIZE))


def round_trip_v2(message, allow_pickled=False):
    return protocol.decode_message(
        protocol.encode_message(message, version=V2), allow_pickled=allow_pickled
    )


class TestV2RoundTrips:
    def test_calls_round_trip(self):
        for message in (
            protocol.ServeCall(
                request_id=7,
                request=ServeRequest(kind="blas", bits=256, operation="vmul"),
            ),
            protocol.StatsCall(request_id=8),
            protocol.PingCall(request_id=9),
            protocol.ShutdownCall(request_id=10),
        ):
            assert round_trip_v2(message) == message

    def test_v2_blob_starts_with_magic(self):
        data = protocol.encode_message(protocol.PingCall(request_id=1), version=V2)
        assert data[: len(protocol.FRAME_MAGIC)] == protocol.FRAME_MAGIC

    def test_pickled_kernel_round_trips_through_a_binary_frame(self, served):
        message = protocol.ServeReply(request_id=9, result=served)
        decoded = round_trip_v2(message, allow_pickled=True)
        result = decoded.result
        assert result.request == served.request
        assert isinstance(result.artifact, CompiledKernel)
        limbs = tuple(range(len(served.artifact.kernel.params)))
        assert result.artifact.call_limbs(*limbs) == served.artifact.call_limbs(*limbs)

    def test_source_artifact_crosses_as_raw_utf8(self, served):
        source = "__global__ void k() {\n  /* newlines stay raw */\n}\n"
        source_result = dataclasses.replace(
            served,
            request=dataclasses.replace(served.request, target="cuda"),
            artifact=source,
        )
        data = protocol.encode_message(
            protocol.ServeReply(request_id=1, result=source_result), version=V2
        )
        # Zero-copy into the payload frame: the raw bytes appear verbatim,
        # un-escaped (a JSON string would escape every newline as \\n).
        assert source.encode("utf-8") in data
        decoded = protocol.decode_message(data)
        assert decoded.result.artifact == source

    def test_kernel_reply_is_its_raw_pickle_plus_a_head(self, served):
        # No base64 (+33%) and no escaping: the pickle is the frame.
        data = protocol.encode_message(protocol.ServeReply(request_id=9, result=served))
        head, tail = split_container(data)
        body = pickle.dumps(served.artifact)
        assert tail == len(body).to_bytes(4, "big") + body
        assert head["frames"] == [len(body)]

    def test_pickled_frame_is_trust_gated(self, served):
        data = protocol.encode_message(
            protocol.ServeReply(request_id=9, result=served), version=V2
        )
        with pytest.raises(ProtocolError, match="unpickle"):
            protocol.decode_message(data, allow_pickled=False)

    def test_unknown_encode_version_rejected(self):
        for version in (1, 3):
            with pytest.raises(ProtocolError, match="version"):
                protocol.encode_message(protocol.PingCall(request_id=1), version=version)

    def test_the_version_has_one_value_under_two_names(self):
        assert protocol.PROTOCOL_VERSION == V2 == 2


def v2_blob(message=None):
    """A valid v2 wire blob carrying at least one payload frame."""
    if message is None:
        message = protocol.ServeReply(
            request_id=3,
            result=_SOURCE_RESULT,
        )
    return protocol.encode_message(message, version=V2)


def tamper(blob: bytes, **envelope_overrides) -> bytes:
    """Rebuild a blob with its JSON head fields overridden.

    The frame bytes after the head are preserved verbatim, so a mismatch
    between what the head *declares* and what the frames *are* can be
    manufactured precisely.
    """
    head, tail = split_container(blob)
    head.update(envelope_overrides)
    return join_container(head, tail)


_SOURCE_RESULT = None  # populated by the fixture below


@pytest.fixture(autouse=True, scope="module")
def _source_result(served):
    global _SOURCE_RESULT
    _SOURCE_RESULT = dataclasses.replace(
        served,
        request=dataclasses.replace(served.request, target="cuda"),
        artifact="def kernel(x):\n    return x\n",
    )
    yield
    _SOURCE_RESULT = None


class TestV2Fuzz:
    """Malformed containers over a real socketpair: always ProtocolError.

    The bytes travel through the real stream framing (4-byte prefix +
    body over an unbuffered socket file) exactly as they would between a
    supervisor and a TCP shard, so short reads and mid-frame EOF are
    exercised too, not just the in-memory decoder.
    """

    @staticmethod
    def feed(payload: bytes, allow_pickled: bool = False):
        """Deliver one stream frame around ``payload``; decode its message."""
        writer, reader_sock = socket.socketpair()
        with writer, reader_sock:
            reader_sock.settimeout(30.0)  # a hang fails loudly, not forever
            reader = reader_sock.makefile("rb", buffering=0)
            writer.sendall(len(payload).to_bytes(4, "big") + payload)
            writer.shutdown(socket.SHUT_WR)
            return protocol.decode_message(
                protocol.read_frame(reader), allow_pickled=allow_pickled
            )

    def test_valid_blob_survives_the_stream(self):
        decoded = self.feed(v2_blob())
        assert decoded.result.artifact == _SOURCE_RESULT.artifact

    def test_every_truncation_is_rejected(self):
        blob = v2_blob()
        for cut in range(len(protocol.FRAME_MAGIC), len(blob)):
            with pytest.raises(ProtocolError):
                self.feed(blob[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="trailing"):
            self.feed(v2_blob() + b"xx")

    def test_envelope_frame_length_mismatch_rejected(self):
        blob = v2_blob()
        declared = tamper(blob)  # identity rebuild, sanity
        assert protocol.decode_message(declared).request_id == 3
        lengths = split_container(blob)[0]["frames"]
        assert lengths, "the fixture blob must carry a payload frame"
        for delta in (-1, 1, 1000):
            wrong = [lengths[0] + delta] + lengths[1:]
            if wrong[0] < 0:
                continue
            with pytest.raises(ProtocolError, match="mismatch|truncated|trailing"):
                self.feed(tamper(blob, frames=wrong))

    def test_garbage_after_magic_rejected(self):
        for garbage in (b"", b"\x00", b"\xff" * 64, b'{"not":"frames"}'):
            with pytest.raises(ProtocolError):
                self.feed(protocol.FRAME_MAGIC + garbage)

    def test_huge_declared_frame_never_allocates(self):
        blob = v2_blob()
        with pytest.raises(ProtocolError, match="malformed|truncated"):
            self.feed(tamper(blob, frames=[protocol.MAX_FRAME_BYTES + 1]))

    def test_malformed_frame_tables_rejected(self):
        blob = v2_blob()
        for bad in ({"a": 1}, [True], [-1], ["4"], [None]):
            with pytest.raises(ProtocolError, match="malformed"):
                self.feed(tamper(blob, frames=bad))

    def test_wrong_envelope_version_inside_container_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            self.feed(tamper(v2_blob(), **{"moma-serve": 1}))

    def test_bad_frame_reference_rejected(self):
        # The payload references frame 0; an envelope declaring no frames
        # (and shipping none) leaves the reference dangling.
        head, _ = split_container(v2_blob())
        head["frames"] = []
        with pytest.raises(ProtocolError, match="frame index"):
            self.feed(join_container(head))

    def test_undecodable_source_frame_rejected(self):
        # A source-text frame whose bytes are not UTF-8 must fail decode,
        # not surface mojibake as kernel source.
        blob = v2_blob()
        body = _SOURCE_RESULT.artifact.encode("utf-8")
        swapped = blob.replace(
            len(body).to_bytes(4, "big") + body,
            len(body).to_bytes(4, "big") + b"\xff" * len(body),
        )
        assert swapped != blob
        with pytest.raises(ProtocolError, match="UTF-8|utf-8|undecodable"):
            self.feed(swapped)


class TestStreamConnectionFastPath:
    def test_send_many_is_one_flush_of_many_frames(self):
        left, right = socket.socketpair()
        sender = protocol.StreamConnection(left)
        receiver = protocol.StreamConnection(right)
        try:
            payloads = [b"alpha", b"bravo" * 100, b"c"]
            sender.send_many(payloads)
            for expected in payloads:
                assert receiver.recv_bytes() == expected
        finally:
            sender.close()
            receiver.close()

    def test_send_many_of_nothing_is_a_no_op(self):
        left, right = socket.socketpair()
        sender = protocol.StreamConnection(left)
        try:
            sender.send_many([])
        finally:
            sender.close()
            right.close()

    def test_tcp_nodelay_is_set_on_tcp_sockets(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.create_connection(listener.getsockname()[:2], timeout=5)
        server_side, _ = listener.accept()
        try:
            for sock in (client, server_side):
                connection = protocol.StreamConnection(sock)
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        finally:
            client.close()
            server_side.close()
            listener.close()

    def test_unix_sockets_survive_the_nodelay_attempt(self):
        left, right = socket.socketpair()  # AF_UNIX: no Nagle to disable
        connection = protocol.StreamConnection(left)
        try:
            connection.send_bytes(b"ok")
        finally:
            connection.close()
            right.close()
