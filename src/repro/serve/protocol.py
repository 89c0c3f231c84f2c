"""The wire protocol between a shard supervisor and its shards.

Every message, in both directions and on every link, is one binary
container:

.. code-block:: text

    b"\\x93MS2"            4-byte magic (:data:`FRAME_MAGIC`)
    u32 BE                 head length
    head JSON              {"moma-serve": 2, "type": ..., "payload": ...,
                           "frames": [len0, len1, ...]}
    per frame: u32 BE length (must match the head's declared length)
               + the raw bytes

Payload fields reference bulk bodies by frame index (``{"encoding":
"source", "frame": 0}``), so kernel source crosses as raw UTF-8 and
pickled kernels as raw pickle bytes — no base64, no escaping — and decode
slices the container with memoryviews instead of copying.  On a socket each
container travels behind a 4-byte big-endian length (:class:`StreamConnection`).

Message types (each a frozen dataclass):

* :class:`ServeCall` / :class:`ServeReply` — one kernel request and its
  served result.  Requests and results are correlated by ``request_id``, so
  a shard may answer out of order (its worker pool finishes warm requests
  long before cold ones).
* :class:`ErrorReply` — a failed request: the error's repro exception class
  name plus its message; :meth:`ErrorReply.exception` rebuilds a raisable
  error on the caller's side.
* :class:`StatsCall` / :class:`StatsReply` — one shard's counters and
  fixed-bucket latency histograms, cumulative since it started
  (:class:`ShardStats`); histograms add bucket by bucket, which is how the
  supervisor merges p50/p95 across shards.
* :class:`PingCall` / :class:`PongReply` — liveness probe used by the
  supervisor's monitor.
* :class:`HelloCall` / :class:`HelloReply` — the handshake every link opens
  with: the supervisor's first frame pins the protocol version and assigns
  the shard its ring id for the session.
* :class:`ShutdownCall` — asks the shard to drain and exit cleanly.

Maintenance never crosses the wire: warm-up and invalidation run in the
process that owns the tuning-database file, and reach shards only as
routed serves.

**Artifact encodings.**  A served artifact crosses the wire in one of two
forms (:func:`encode_artifact` / :func:`decode_artifact`): ``"source"``
(backend source text, the ``cuda`` / ``c99`` targets) or
``"pickled_kernel"`` (an executable ``python_exec``
:class:`~repro.core.codegen.python_exec.CompiledKernel`; the callable is
re-exec'd from its source on arrival).  Both ends do the pickle work once
per kernel, not once per reply: a live kernel object is pickled once and
its bytes reused, and a decode that allows pickles keeps the last
:data:`DECODED_KERNELS` distinct frames' kernels, so a warm reply whose
frame was seen before is a lookup, not an unpickle.

Unpickling executes code, so ``decode_artifact`` only accepts
``"pickled_kernel"`` payloads when the caller passes ``allow_pickled=True``.
Which links carry executable kernels is fixed by how the link was opened,
so neither end asks the other: the supervisor allows pickles only on the
socketpair to a shard it spawned itself.  A TCP link is **source-only**:
the listener downgrades executable artifacts to their generated source
text before the wire (:func:`source_only_result`), and the supervisor
rejects pickled payloads on arrival.  Shards never unpickle what they
receive.

Optional payload fields are additive: ``trace``, ``deadline_ms`` and
``tenant`` on a call, and ``tenants`` and ``spans`` on a stats reply, are
not sent at their defaults, and decoders ignore payload keys they do not
know.
"""

from __future__ import annotations

import dataclasses
import io
import json
import pickle
import socket
import weakref
from dataclasses import dataclass

from repro import errors
from repro.errors import ProtocolError
from repro.core.codegen.python_exec import CompiledKernel
from repro.core.driver.cache import CacheStats, ContentAddressedCache
from repro.kernels.config import KernelConfig
from repro.tenancy import DEFAULT_TENANT, validate_tenant
from repro.tune.space import Candidate, Workload
from repro.tune.tuner import TuningResult
from repro.serve.metrics import MetricsSnapshot
from repro.serve.server import ServeRequest, ServeResult

__all__ = [
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSION_2",
    "FRAME_MAGIC",
    "MAX_FRAME_BYTES",
    "ServeCall",
    "ServeReply",
    "ErrorReply",
    "StatsCall",
    "StatsReply",
    "ShardStats",
    "PingCall",
    "PongReply",
    "HelloCall",
    "HelloReply",
    "ShutdownCall",
    "encode_artifact",
    "decode_artifact",
    "decoded_kernel_stats",
    "source_only_result",
    "encode_message",
    "decode_message",
    "read_frame",
    "StreamConnection",
]

#: The container version: a JSON head for control fields, bulk bodies as
#: length-prefixed byte frames.  Bumped on every *incompatible* wire change.
PROTOCOL_VERSION = 2

#: A second name for :data:`PROTOCOL_VERSION`, which callers such as the
#: ``perfbench`` harness pass to :func:`encode_message`.
PROTOCOL_VERSION_2 = PROTOCOL_VERSION

#: First bytes of every message.
FRAME_MAGIC = b"\x93MS2"

_ENVELOPE_KEY = "moma-serve"

#: Upper bound on one frame (a generous multiple of the largest kernels the
#: backends emit); guards a stream decoder against a corrupt length prefix.
MAX_FRAME_BYTES = 64 * 1024 * 1024


# -- artifact encodings ------------------------------------------------------

SOURCE_ENCODING = "source"
PICKLED_KERNEL_ENCODING = "pickled_kernel"

#: Executable kernels kept by :func:`decode_artifact`, each under the exact
#: frame it was unpickled from (least recently used evicted first).
DECODED_KERNELS = 32

# The pickle of each live executable kernel, by its id: a resident kernel
# served again is not pickled again.  The weak reference drops the entry
# with the kernel, whose id may then be reused; concurrent first encodes of
# one kernel at worst pickle it twice.
_PICKLED: dict[int, tuple[weakref.ref, bytes]] = {}

# Executable kernels decoded where pickles are allowed, by frame bytes: an
# identical frame returns the kernel decoded earlier, without an unpickle or
# an exec.
_DECODED = ContentAddressedCache(DECODED_KERNELS)


def _pickled(kernel: CompiledKernel) -> bytes:
    key = id(kernel)
    entry = _PICKLED.get(key)
    if entry is not None and entry[0]() is kernel:
        return entry[1]
    data = pickle.dumps(kernel)
    alive = weakref.ref(kernel, lambda _, key=key: _PICKLED.pop(key, None))
    _PICKLED[key] = (alive, data)
    return data


def _unpickled(body) -> CompiledKernel:
    # Memoryviews compare item by item, and a hit compares the whole frame;
    # a bytes copy hashes and compares at memory speed, and is the key kept.
    frame = bytes(body)
    kernel = _DECODED.get(frame)
    if kernel is not None:
        return kernel
    try:
        kernel = pickle.loads(frame)
    except Exception as error:  # noqa: BLE001 - any unpickle failure is protocol-level
        raise ProtocolError(f"corrupt pickled kernel artifact: {error}") from None
    if not isinstance(kernel, CompiledKernel):
        raise ProtocolError(
            f"pickled artifact is a {type(kernel).__name__}, expected CompiledKernel"
        )
    _DECODED.put(frame, kernel)
    return kernel


def decoded_kernel_stats() -> CacheStats:
    """Counters of this process's decoded-kernel memo: ``misses`` are the
    frames unpickled, ``hits`` the frames answered by a kernel decoded
    earlier, ``evictions`` the kernels dropped for room."""
    return _DECODED.stats()


def encode_artifact(artifact: object, frames: list) -> dict:
    """One served artifact in its wire form.

    The body goes **out of band**: its raw bytes — UTF-8 source, or the
    pickle of an executable kernel — are appended to ``frames`` and the
    returned ``{"encoding", "frame"}`` pair references that frame by index.
    An executable kernel is pickled once while it lives; later encodes of
    the same object reuse those bytes.
    """
    if isinstance(artifact, str):
        frames.append(artifact.encode("utf-8"))
        return {"encoding": SOURCE_ENCODING, "frame": len(frames) - 1}
    if isinstance(artifact, CompiledKernel):
        frames.append(_pickled(artifact))
        return {"encoding": PICKLED_KERNEL_ENCODING, "frame": len(frames) - 1}
    raise ProtocolError(
        f"cannot encode artifact of type {type(artifact).__name__} for the wire"
    )


def decode_artifact(payload: dict, allow_pickled: bool = False, frames=()) -> object:
    """Rebuild an artifact from its wire form and the message's ``frames``.

    ``allow_pickled`` gates the ``pickled_kernel`` encoding: unpickling
    executes code, so it must only be enabled on the socketpair to a shard
    the caller spawned itself.  That check comes first; only then is
    the frame looked up among the last :data:`DECODED_KERNELS` distinct
    frames decoded, and an identical one returns the same kernel object.
    A frame that fails to unpickle to a kernel is never kept.
    """
    if not isinstance(payload, dict) or "encoding" not in payload or "frame" not in payload:
        raise ProtocolError(f"malformed artifact payload: {payload!r}")
    index = payload["frame"]
    if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < len(frames):
        raise ProtocolError(
            f"artifact frame index {index!r} out of range (message has {len(frames)} frames)"
        )
    body = frames[index]
    encoding = payload["encoding"]
    if encoding == SOURCE_ENCODING:
        try:
            return str(body, "utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"source artifact frame is not UTF-8: {error}") from None
    if encoding == PICKLED_KERNEL_ENCODING:
        if not allow_pickled:
            raise ProtocolError(
                "refusing to unpickle a kernel artifact from an untrusted "
                "transport (only a spawned shard's socketpair may carry one)"
            )
        return _unpickled(body)
    raise ProtocolError(f"unknown artifact encoding {encoding!r}")


def source_only_result(result: ServeResult) -> ServeResult:
    """``result`` with any executable artifact downgraded to source text.

    What a TCP listener applies to every reply: the receiver gets the
    kernel's generated source (inspectable, compilable on its own side)
    instead of an executable pickle it would have to trust.
    Source-text artifacts pass through unchanged.
    """
    if isinstance(result.artifact, CompiledKernel):
        return dataclasses.replace(result, artifact=result.artifact.source)
    return result


# -- dataclass payload helpers ----------------------------------------------


def _rebuild(cls, payload: dict, context: str):
    """Build dataclass ``cls`` from a wire payload, ignoring unknown keys."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"malformed {context} payload: {payload!r}")
    names = {field.name for field in dataclasses.fields(cls)}
    try:
        return cls(**{name: payload[name] for name in names if name in payload})
    except (TypeError, errors.ReproError) as error:
        raise ProtocolError(f"malformed {context} payload: {error}") from None


def _encode_tuning(tuning: TuningResult | None) -> dict | None:
    if tuning is None:
        return None
    payload = dataclasses.asdict(tuning)
    # Trials are search provenance (every scored candidate); they are local
    # diagnostics, not serving state, and can dominate the message size.
    payload.pop("trials", None)
    return payload


def _decode_tuning(payload: dict | None) -> TuningResult | None:
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ProtocolError(f"malformed tuning payload: {payload!r}")
    fields = dict(payload)
    fields["workload"] = _rebuild(Workload, fields.get("workload"), "workload")
    fields["candidate"] = _rebuild(Candidate, fields.get("candidate"), "candidate")
    fields["config"] = _rebuild(KernelConfig, fields.get("config"), "kernel config")
    fields["trials"] = ()
    return _rebuild(TuningResult, fields, "tuning result")


def _encode_request(request: ServeRequest) -> dict:
    return dataclasses.asdict(request)


def _decode_request(payload: dict) -> ServeRequest:
    return _rebuild(ServeRequest, payload, "serve request")


def _encode_result(result: ServeResult, frames: list) -> dict:
    return {
        "request": _encode_request(result.request),
        "artifact": encode_artifact(result.artifact, frames),
        "config": dataclasses.asdict(result.config),
        "fingerprint": result.fingerprint,
        "tuning": _encode_tuning(result.tuning),
        "warm": result.warm,
        "latency_s": result.latency_s,
    }


def _decode_result(payload: dict, allow_pickled: bool, frames) -> ServeResult:
    if not isinstance(payload, dict):
        raise ProtocolError(f"malformed serve result payload: {payload!r}")
    fields = dict(payload)
    fields["request"] = _decode_request(fields.get("request"))
    fields["artifact"] = decode_artifact(
        fields.get("artifact"), allow_pickled=allow_pickled, frames=frames
    )
    fields["config"] = _rebuild(KernelConfig, fields.get("config"), "kernel config")
    fields["tuning"] = _decode_tuning(fields.get("tuning"))
    return _rebuild(ServeResult, fields, "serve result")


# -- messages ----------------------------------------------------------------


@dataclass(frozen=True)
class ServeCall:
    """One kernel request bound for a shard.

    ``trace`` is the **additive** distributed-tracing field: when the
    supervisor samples a request it attaches the trace context
    (:meth:`repro.obs.trace.TraceHandle.wire_field` — trace id, parent span
    id, sampled flag) so the shard's spans join the same trace.  Absent ⇒
    untraced.

    ``deadline_ms`` is a second additive field: the request's end-to-end
    latency budget in milliseconds.  A shard that finishes the request
    after the budget has elapsed (measured from its own decode of the
    call) sheds the result and answers with a
    :class:`~repro.errors.DeadlineExceededError` instead — the reply the
    traffic-replay harness counts as a deadline miss.  Absent ⇒ no
    deadline.

    ``tenant`` is a third additive field: the tenant namespace the request
    is served under (resident-table keys, tuning-db lookups, per-tenant
    metrics).  Absent ⇒ :data:`~repro.tenancy.DEFAULT_TENANT` — and the
    field is only *emitted* when non-default, so an untenanted call is
    byte-identical to the pre-tenant wire format.  Unlike the tolerant
    trace/deadline fields, a
    *present but invalid* tenant id (empty, ``::``/``/``/whitespace) is a
    hard :class:`~repro.errors.ProtocolError` at decode time: a corrupt
    tenant id would silently poison every key it scopes.
    """

    request_id: int
    request: ServeRequest
    trace: dict | None = None
    deadline_ms: float | None = None
    tenant: str = DEFAULT_TENANT


@dataclass(frozen=True)
class ServeReply:
    """One successfully served result, correlated by ``request_id``."""

    request_id: int
    result: ServeResult


@dataclass(frozen=True)
class ErrorReply:
    """A failed request: the repro error class name and its message."""

    request_id: int
    error_type: str
    message: str

    @classmethod
    def from_exception(cls, request_id: int, error: BaseException) -> ErrorReply:
        """Wrap an exception for the wire (non-repro errors degrade to base)."""
        return cls(
            request_id=request_id,
            error_type=type(error).__name__,
            message=str(error),
        )

    def exception(self) -> Exception:
        """A raisable exception mirroring the shard-side failure.

        Known :mod:`repro.errors` classes are rebuilt as themselves; anything
        else (a shard-side ``TypeError``, say) surfaces as a
        :class:`~repro.errors.ServingError` carrying the original class name.
        """
        error_class = getattr(errors, self.error_type, None)
        if isinstance(error_class, type) and issubclass(error_class, errors.ReproError):
            return error_class(self.message)
        return errors.ServingError(f"shard error ({self.error_type}): {self.message}")


@dataclass(frozen=True)
class StatsCall:
    """Ask a shard for its :class:`ShardStats`.

    ``drain_spans`` additionally asks the shard to drain its tracer's span
    buffer into the reply (``StatsReply.spans``) so the supervisor can merge
    cluster-wide traces.
    """

    request_id: int
    drain_spans: bool = False


@dataclass(frozen=True, kw_only=True)
class ShardStats(MetricsSnapshot):
    """One shard's :class:`~repro.serve.metrics.MetricsSnapshot` plus its
    identity: the stats wire form.

    The counters and the two fixed-bucket latency histograms are cumulative
    since the shard started, so a supervisor merges shards by adding them
    (:func:`~repro.serve.metrics.merge_counts`) and reads global
    percentiles off the summed histograms.

    ``tenants`` is the **additive** per-tenant breakdown: tenant id →
    ``{"requests", "warm_serves", "cold_serves", "dedup_hits", "errors",
    "warm_histogram", "cold_histogram"}``.  Emitted only when non-empty
    and decoded tolerantly (a malformed or absent breakdown degrades to
    ``{}``), so pre-tenant peers interoperate and a newer peer's schema
    cannot break the stats path.
    """

    shard_id: int
    pid: int


@dataclass(frozen=True)
class StatsReply:
    """A shard's stats, correlated by ``request_id``.

    ``spans`` carries drained trace spans in their wire-dict form
    (:meth:`repro.obs.trace.Span.to_wire`) when the call asked for them —
    the protocol layer stays decoupled from :mod:`repro.obs` by never
    interpreting them.  Empty for plain stats calls.
    """

    request_id: int
    stats: ShardStats
    spans: tuple = ()


@dataclass(frozen=True)
class PingCall:
    """Liveness probe."""

    request_id: int


@dataclass(frozen=True)
class PongReply:
    """Liveness acknowledgement (the shard id doubles as a sanity check)."""

    request_id: int
    shard_id: int
    pid: int


@dataclass(frozen=True)
class HelloCall:
    """The supervisor's first frame on every fresh link.

    Pins the protocol version explicitly (a version mismatch must fail
    *before* any payload is trusted) and assigns the shard the ring id it
    answers as for this session.
    """

    request_id: int
    protocol_version: int
    shard_id: int


@dataclass(frozen=True)
class HelloReply:
    """The shard's acceptance: its identity and protocol version.

    The reply is the shard's first answer, so the supervisor's liveness
    deadline runs from it.
    """

    request_id: int
    shard_id: int
    pid: int
    protocol_version: int


@dataclass(frozen=True)
class ShutdownCall:
    """Ask the shard to drain in-flight work and exit; no reply follows."""

    request_id: int


# -- envelope encode/decode --------------------------------------------------


def _encode_stats(message: StatsReply) -> dict:
    stats = dataclasses.asdict(message.stats)
    # Additive per-tenant breakdown: emitted only when non-empty, so the
    # untenanted stats reply stays byte-identical to the pre-tenant wire.
    if not stats["tenants"]:
        del stats["tenants"]
    payload = {"request_id": message.request_id, "stats": stats}
    if message.spans:
        payload["spans"] = [dict(span) for span in message.spans]
    return payload


def _decode_tenant_breakdown(value) -> dict:
    """Tolerantly decode a stats reply's per-tenant breakdown.

    Like spans, the breakdown is reporting freight: anything structurally
    off — a non-dict, a tenant id that would not validate, a non-dict
    block — is dropped rather than rejected, so a newer peer's schema can
    never break the stats path.
    """
    if not isinstance(value, dict):
        return {}
    breakdown = {}
    for tenant, block in value.items():
        if not isinstance(tenant, str) or not isinstance(block, dict):
            continue
        try:
            validate_tenant(tenant)
        except ValueError:
            continue
        breakdown[tenant] = dict(block)
    return breakdown


def _decode_stats(payload: dict, allow_pickled: bool) -> StatsReply:
    if not isinstance(payload, dict) or not isinstance(payload.get("stats"), dict):
        raise ProtocolError(f"malformed stats payload: {payload!r}")
    fields = dict(payload["stats"])
    for name in ("warm_histogram", "cold_histogram"):
        value = fields.get(name)
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(count, int) for count in value
        ):
            raise ProtocolError(f"malformed stats histogram {name!r}: {value!r}")
        fields[name] = tuple(value)
    fields["tenants"] = _decode_tenant_breakdown(fields.get("tenants"))
    return StatsReply(
        request_id=_request_id(payload),
        stats=_rebuild(ShardStats, fields, "shard stats"),
        spans=_decode_spans(payload.get("spans")),
    )


def _decode_spans(value) -> tuple:
    """Tolerantly decode drained span dicts (absent / malformed ⇒ dropped).

    Spans are diagnostic freight: a peer speaking a newer span schema must
    not be able to break the stats path, so anything non-dict is discarded
    rather than rejected.
    """
    if not isinstance(value, (list, tuple)):
        return ()
    return tuple(span for span in value if isinstance(span, dict))


def _decode_trace_field(value) -> dict | None:
    """The envelope's additive ``trace`` field: a small dict or nothing."""
    return value if isinstance(value, dict) else None


def _decode_deadline_field(value) -> float | None:
    """The envelope's additive ``deadline_ms`` field: a positive number.

    Tolerant like the trace field — diagnostic-adjacent freight from a
    newer peer must degrade to "no deadline", never break the serve path.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0:
        return float(value)
    return None


def _decode_tenant_field(value) -> str:
    """The envelope's additive ``tenant`` field: a validated id or default.

    Absent (``None``) means :data:`~repro.tenancy.DEFAULT_TENANT`.  A
    *present* value is validated
    **strictly**: unlike the tolerant trace/deadline fields, a corrupt
    tenant id cannot degrade to default, because it would silently reroute
    one tenant's traffic (and tuning writes) into another's namespace.
    """
    if value is None:
        return DEFAULT_TENANT
    if not isinstance(value, str):
        raise ProtocolError(f"tenant field must be a string, got {value!r}")
    try:
        return validate_tenant(value)
    except ValueError as error:
        raise ProtocolError(f"invalid tenant id on the wire: {error}") from None


def _validate_hello(message):
    """Shared field validation for both handshake directions."""
    for name in ("request_id", "protocol_version", "shard_id"):
        if not isinstance(getattr(message, name), int):
            raise ProtocolError(f"handshake field {name!r} must be an integer")
    return message


def _request_id(payload: dict) -> int:
    value = payload.get("request_id")
    if not isinstance(value, int):
        raise ProtocolError(f"message carries no integer request_id: {payload!r}")
    return value


#: type tag -> (message class, payload encoder, payload decoder).
#: Encoders take ``(message, frames)`` — ``frames`` is a list to append
#: out-of-band byte frames to.  Decoders take ``(payload, allow_pickled,
#: frames)`` symmetrically.
_MESSAGE_TYPES = {
    "serve": (
        ServeCall,
        lambda m, frames: {
            "request_id": m.request_id,
            "request": _encode_request(m.request),
            **({"trace": m.trace} if m.trace is not None else {}),
            **(
                {"deadline_ms": m.deadline_ms}
                if m.deadline_ms is not None
                else {}
            ),
            **(
                {"tenant": m.tenant}
                if m.tenant != DEFAULT_TENANT
                else {}
            ),
        },
        lambda p, allow, frames: ServeCall(
            request_id=_request_id(p),
            request=_decode_request(p.get("request")),
            trace=_decode_trace_field(p.get("trace")),
            deadline_ms=_decode_deadline_field(p.get("deadline_ms")),
            tenant=_decode_tenant_field(p.get("tenant")),
        ),
    ),
    "result": (
        ServeReply,
        lambda m, frames: {
            "request_id": m.request_id,
            "result": _encode_result(m.result, frames),
        },
        lambda p, allow, frames: ServeReply(
            request_id=_request_id(p),
            result=_decode_result(p.get("result"), allow_pickled=allow, frames=frames),
        ),
    ),
    "error": (
        ErrorReply,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, allow, frames: _rebuild(ErrorReply, p, "error reply"),
    ),
    "stats": (
        StatsCall,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, allow, frames: StatsCall(
            request_id=_request_id(p),
            drain_spans=bool(p.get("drain_spans", False)),
        ),
    ),
    "stats-result": (
        StatsReply,
        lambda m, frames: _encode_stats(m),
        lambda p, allow, frames: _decode_stats(p, allow),
    ),
    "ping": (
        PingCall,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, allow, frames: PingCall(request_id=_request_id(p)),
    ),
    "pong": (
        PongReply,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, allow, frames: _rebuild(PongReply, p, "pong reply"),
    ),
    "hello": (
        HelloCall,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, allow, frames: _validate_hello(_rebuild(HelloCall, p, "hello")),
    ),
    "hello-reply": (
        HelloReply,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, allow, frames: _validate_hello(_rebuild(HelloReply, p, "hello reply")),
    ),
    "shutdown": (
        ShutdownCall,
        lambda m, frames: dataclasses.asdict(m),
        lambda p, allow, frames: ShutdownCall(request_id=_request_id(p)),
    ),
}

_TYPE_OF_CLASS = {cls: tag for tag, (cls, _, _) in _MESSAGE_TYPES.items()}

#: Every message dataclass the protocol understands.
Message = (
    ServeCall
    | ServeReply
    | ErrorReply
    | StatsCall
    | StatsReply
    | PingCall
    | PongReply
    | HelloCall
    | HelloReply
    | ShutdownCall
)


def encode_message(message: Message, version: int = PROTOCOL_VERSION) -> bytes:
    """One message in its wire form: magic, length-prefixed JSON head, then
    the message's out-of-band payload frames, each length-prefixed and
    declared in the head's ``"frames"`` list.

    ``version`` must be :data:`PROTOCOL_VERSION`, the only container there is.
    """
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"cannot encode protocol version {version!r}")
    tag = _TYPE_OF_CLASS.get(type(message))
    if tag is None:
        raise ProtocolError(f"cannot encode message of type {type(message).__name__}")
    _, encode, _ = _MESSAGE_TYPES[tag]
    frames: list[bytes] = []
    payload = encode(message, frames)
    envelope = {
        _ENVELOPE_KEY: PROTOCOL_VERSION,
        "type": tag,
        "payload": payload,
        "frames": [len(frame) for frame in frames],
    }
    head = json.dumps(envelope, sort_keys=True).encode("utf-8")
    parts = [FRAME_MAGIC, len(head).to_bytes(4, "big"), head]
    for frame in frames:
        parts.append(len(frame).to_bytes(4, "big"))
        parts.append(frame)
    return b"".join(parts)


def decode_message(data: bytes, allow_pickled: bool = False) -> Message:
    """Rebuild a message from its encoded bytes.

    Every structural violation — a missing magic, a truncated head, a
    payload frame whose length prefix disagrees with the head's
    declaration, a truncated or over-long final frame, trailing garbage,
    an unknown version or message type — raises
    :class:`~repro.errors.ProtocolError`.  Frames are handed to payload
    decoders as memoryview slices, so no byte of an artifact body is copied
    until its consumer asks for it.  ``allow_pickled`` is forwarded to
    :func:`decode_artifact` for result messages.
    """
    view = memoryview(data)
    offset = len(FRAME_MAGIC)
    if bytes(view[:offset]) != FRAME_MAGIC:
        raise ProtocolError("undecodable wire message: not a moma-serve container")
    if len(view) < offset + 4:
        raise ProtocolError("truncated message: missing head length")
    head_length = int.from_bytes(view[offset : offset + 4], "big")
    offset += 4
    if head_length == 0 or head_length > MAX_FRAME_BYTES:
        raise ProtocolError(f"implausible head length {head_length}")
    if len(view) < offset + head_length:
        raise ProtocolError("truncated message: head shorter than declared")
    try:
        envelope = json.loads(str(view[offset : offset + head_length], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable message head: {error}") from None
    offset += head_length
    if not isinstance(envelope, dict) or _ENVELOPE_KEY not in envelope:
        raise ProtocolError("message head is not a moma-serve envelope")
    version = envelope[_ENVELOPE_KEY]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this build speaks "
            f"{PROTOCOL_VERSION})"
        )
    declared = envelope.get("frames", [])
    if not isinstance(declared, list) or not all(
        isinstance(length, int) and not isinstance(length, bool) and 0 <= length <= MAX_FRAME_BYTES
        for length in declared
    ):
        raise ProtocolError(f"malformed frame table: {declared!r}")
    frames = []
    for index, length in enumerate(declared):
        if len(view) < offset + 4:
            raise ProtocolError(f"truncated message: missing frame {index} length")
        prefixed = int.from_bytes(view[offset : offset + 4], "big")
        offset += 4
        if prefixed != length:
            raise ProtocolError(
                f"frame {index} length mismatch: head declares {length}, "
                f"frame prefix says {prefixed}"
            )
        if len(view) < offset + length:
            raise ProtocolError(f"truncated message: frame {index} shorter than declared")
        frames.append(view[offset : offset + length])
        offset += length
    if offset != len(view):
        raise ProtocolError(
            f"message carries {len(view) - offset} trailing bytes after its frames"
        )
    tag = envelope.get("type")
    if tag not in _MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {tag!r}")
    _, _, decode = _MESSAGE_TYPES[tag]
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise ProtocolError(f"message {tag!r} carries no payload object")
    return decode(payload, allow_pickled, tuple(frames))


# -- stream framing ----------------------------------------------------------


def _read_exact(stream, count: int) -> bytes:
    """Up to ``count`` bytes, looping over short reads; shorter only at EOF.

    A buffered socket file usually returns the full count in one call, but
    a raw stream may legally return fewer bytes per call — a single
    ``stream.read(n)`` is **not** a protocol-safe read.
    """
    data = b""
    while len(data) < count:
        chunk = stream.read(count - len(data))
        if not chunk:  # b"" (EOF) or None (a non-blocking stream ran dry)
            break
        data += chunk  # the first chunk is taken as is, not copied
    return data


def read_frame(stream: io.BufferedIOBase) -> bytes | None:
    """Read one length-prefixed frame's body; ``None`` on clean EOF.

    A short read inside a frame (the peer died mid-write) and an impossible
    length prefix both raise :class:`~repro.errors.ProtocolError`.  The
    length gate runs *before* any body allocation, so a corrupt prefix can
    never trigger a giant allocation.
    """
    prefix = _read_exact(stream, 4)
    if not prefix:
        return None
    if len(prefix) < 4:
        raise ProtocolError("truncated frame: short length prefix")
    length = int.from_bytes(prefix, "big")
    if length == 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError(f"implausible frame length {length}")
    data = _read_exact(stream, length)
    if len(data) < length:
        raise ProtocolError(
            f"truncated frame: expected {length} bytes, got {len(data)}"
        )
    return data


class StreamConnection:
    """One link between a supervisor and a shard: a framed, connected socket.

    Every link is one of these — a TCP socket to a remote listener, or one
    end of a ``socket.socketpair()`` to a spawned local shard.  Frames are
    the stream framing above; ``recv_bytes`` raises ``EOFError`` on a clean
    close and :class:`~repro.errors.ProtocolError` on a torn or corrupt
    frame.

    ``send_bytes`` / ``send_many`` and ``recv_bytes`` are each
    single-caller (writers hold the caller's send lock, one reader thread).
    """

    def __init__(self, sock) -> None:
        self._socket = sock
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # AF_UNIX / socketpair transports have no Nagle to disable
        self._reader = sock.makefile("rb")
        self._writer = sock.makefile("wb")

    def settimeout(self, timeout: float | None) -> None:
        """Bound blocking reads/writes (used to fence the handshake)."""
        self._socket.settimeout(timeout)

    def send_bytes(self, data: bytes) -> None:
        """Write ``data`` as one frame; ``OSError``/``ValueError`` if closed."""
        self._writer.write(len(data).to_bytes(4, "big") + data)
        self._writer.flush()

    def send_many(self, payloads) -> None:
        """Write every payload as its own frame in one buffered flush.

        The coalescing fast path: many pending messages become one
        ``write``/``flush`` pair (one syscall burst, one TCP segment train)
        instead of one flush per message.  The receiver still sees ordinary
        individual frames — this changes only the write-side batching.
        """
        chunks = []
        for data in payloads:
            chunks.append(len(data).to_bytes(4, "big"))
            chunks.append(data)
        if not chunks:
            return
        self._writer.write(b"".join(chunks))
        self._writer.flush()

    def recv_bytes(self) -> bytes:
        """One frame's body; ``EOFError`` on clean close."""
        frame = read_frame(self._reader)
        if frame is None:
            raise EOFError("stream connection closed by peer")
        return frame

    def close(self) -> None:
        """Close both directions, unblocking any thread mid-``recv_bytes``."""
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        for closeable in (self._reader, self._writer, self._socket):
            try:
                closeable.close()
            except OSError:
                pass
