"""Executable kernels on the wire cost their pickle work once per kernel.

A shard pickles each live kernel object once and reuses the bytes for
every later reply that carries it; a trusted decoder keeps the last
``DECODED_KERNELS`` distinct frames' kernels, so a warm reply whose frame
it has seen is a lookup, not an unpickle plus an exec.  The frame stays the
kernel's exact pickle, the trust check still runs before any lookup, and a
frame that does not unpickle to a kernel is refused every time and never
kept.
"""

import dataclasses
import gc
import itertools
import pickle
import sys
import threading
import weakref

import pytest

from repro.arith.barrett import BarrettParams
from repro.core.codegen.python_exec import CompiledKernel
from repro.core.driver.cache import ContentAddressedCache
from repro.errors import ProtocolError
from repro.serve import KernelServer, ServeRequest, ShardSupervisor
from repro.serve import protocol

SIZE = 16
CT = ServeRequest(kind="ntt", bits=128, size=SIZE, tune=False)
GS = dataclasses.replace(CT, operation="gentleman_sande")

#: A 124-bit modulus (the 128-bit kernels' Barrett width) and its mu.
Q = (1 << 124) - 159
MU = BarrettParams.create(Q, 128).mu


@pytest.fixture(scope="module")
def results():
    """A served Cooley-Tukey and a Gentleman-Sande butterfly, executable."""
    with KernelServer(devices=("rtx4090",)) as server:
        yield server.serve(CT), server.serve(GS)


@pytest.fixture(autouse=True)
def memo(monkeypatch):
    """A fresh, empty decode memo for each test."""
    fresh = ContentAddressedCache(protocol.DECODED_KERNELS)
    monkeypatch.setattr(protocol, "_DECODED", fresh)
    return fresh


def clone(kernel: CompiledKernel, name: str | None = None) -> CompiledKernel:
    """A new kernel object equal to ``kernel`` (renamed when ``name`` is given)."""
    copy = pickle.loads(pickle.dumps(kernel))
    if name is not None:
        copy = dataclasses.replace(copy, kernel=dataclasses.replace(copy.kernel, name=name))
    return copy


def decode(frame: bytes, allow_pickled: bool = True) -> object:
    """``frame`` decoded as a kernel artifact, arriving as a message slice."""
    payload = {"encoding": protocol.PICKLED_KERNEL_ENCODING, "frame": 0}
    return protocol.decode_artifact(payload, allow_pickled, (memoryview(frame),))


def agrees_with_bigints(kernel: CompiledKernel) -> bool:
    """The butterfly on every triple of edge operands equals bigints."""
    edges = (0, 1, Q - 1)
    for x, y, w in itertools.product(edges, repeat=3):
        out = kernel(x=x, y=y, w=w, q=Q, mu=MU)
        if "cooley_tukey" in kernel.kernel.name:
            expected = ((x + w * y) % Q, (x - w * y) % Q)
        else:
            expected = ((x + y) % Q, (x - y) * w % Q)
        if (out["x_out"], out["y_out"]) != expected:
            return False
    return True


class TestEncodeMemo:
    def test_the_frame_is_the_pickle_byte_for_byte(self, results):
        kernel = clone(results[0].artifact)
        frames = []
        for _ in range(2):
            protocol.encode_artifact(kernel, frames)
        assert frames[0] == frames[1] == pickle.dumps(kernel)

    def test_a_second_encode_of_one_object_does_not_pickle(self, results, monkeypatch):
        kernel, twin = clone(results[0].artifact), clone(results[0].artifact)
        calls = []
        dumps = pickle.dumps
        monkeypatch.setattr(
            protocol.pickle, "dumps", lambda *args, **kw: calls.append(1) or dumps(*args, **kw)
        )
        frames = []
        for _ in range(3):
            protocol.encode_artifact(kernel, frames)
        assert len(calls) == 1
        assert frames[0] is frames[1] is frames[2]
        # An equal kernel that is another object is pickled for itself.
        protocol.encode_artifact(twin, frames)
        assert len(calls) == 2
        assert frames[3] == frames[0]

    def test_an_entry_left_by_another_object_is_not_reused(self, results, monkeypatch):
        kernel, other = clone(results[0].artifact), clone(results[1].artifact)
        monkeypatch.setitem(protocol._PICKLED, id(kernel), (weakref.ref(other), b"stale"))
        frames = []
        protocol.encode_artifact(kernel, frames)
        assert frames[0] == pickle.dumps(kernel)

    def test_a_dead_artifact_leaves_no_entry(self, results):
        kernel = clone(results[0].artifact)
        key = id(kernel)
        protocol.encode_artifact(kernel, [])
        assert protocol._PICKLED[key][0]() is kernel
        del kernel
        gc.collect()
        assert key not in protocol._PICKLED


class TestDecodeMemo:
    def test_identical_frames_unpickle_once_and_share_one_kernel(
        self, results, memo, monkeypatch
    ):
        frame = pickle.dumps(results[0].artifact)
        calls = []
        loads = pickle.loads
        monkeypatch.setattr(
            protocol.pickle, "loads", lambda *args, **kw: calls.append(1) or loads(*args, **kw)
        )
        first = decode(frame)
        second = decode(bytes(bytearray(frame)))  # equal bytes, another buffer
        assert len(calls) == 1
        assert second is first
        assert (memo.stats().misses, memo.stats().hits) == (1, 1)
        assert agrees_with_bigints(first)

    def test_a_different_frame_gives_a_different_kernel(self, results):
        ct, gs = (decode(pickle.dumps(result.artifact)) for result in results)
        assert ct is not gs
        assert "cooley_tukey" in ct.kernel.name
        assert "gentleman_sande" in gs.kernel.name
        assert agrees_with_bigints(ct) and agrees_with_bigints(gs)

    def test_a_frame_decoded_under_trust_is_still_refused_without_it(self, results, memo):
        data = protocol.encode_message(protocol.ServeReply(request_id=1, result=results[0]))
        trusted = protocol.decode_message(data, allow_pickled=True)
        assert isinstance(trusted.result.artifact, CompiledKernel)
        lookups = memo.stats()
        for _ in range(2):
            with pytest.raises(ProtocolError, match="unpickle"):
                protocol.decode_message(data, allow_pickled=False)
            with pytest.raises(ProtocolError, match="unpickle"):
                decode(pickle.dumps(results[0].artifact), allow_pickled=False)
        after = memo.stats()
        assert (after.hits, after.misses) == (lookups.hits, lookups.misses)

    @pytest.mark.parametrize(
        "frame, error",
        [
            (b"\x80\x05 not a pickle", "corrupt pickled kernel"),
            (pickle.dumps({"kernel": "source"}), "is a dict, expected CompiledKernel"),
        ],
        ids=["corrupt", "not-a-kernel"],
    )
    def test_a_bad_frame_raises_every_time_and_is_never_kept(self, memo, frame, error):
        for attempt in range(1, 4):
            with pytest.raises(ProtocolError, match=error):
                decode(frame)
            assert memo.stats().misses == attempt
            assert len(memo) == 0
        assert memo.stats().hits == 0

    def test_a_frame_past_the_bound_is_evicted_and_unpickled_again(self, results, memo):
        base = results[0].artifact
        frames = [
            pickle.dumps(clone(base, name=f"{base.kernel.name}_{index}"))
            for index in range(protocol.DECODED_KERNELS + 1)
        ]
        assert len(set(frames)) == len(frames)
        first = decode(frames[0])
        for frame in frames[1:]:
            decode(frame)
        stats = memo.stats()
        assert (stats.misses, stats.evictions, stats.currsize) == (33, 1, 32)
        assert decode(frames[-1]) is decode(frames[-1])  # still kept
        again = decode(frames[0])
        assert memo.stats().misses == 34
        assert again is not first
        assert agrees_with_bigints(again)

    def test_concurrent_round_trips_all_get_working_kernels(self, results):
        # Fresh objects, so the threads race on both memos' first entries.
        kernels = [clone(result.artifact) for result in results]
        pickles = [pickle.dumps(kernel) for kernel in kernels]
        names = [kernel.kernel.name for kernel in kernels]
        decoded, errors = [], []

        def worker(offset: int) -> None:
            try:
                for step in range(25):
                    which = (offset + step) % 2
                    frames = []
                    payload = protocol.encode_artifact(kernels[which], frames)
                    if frames[0] != pickles[which]:
                        raise AssertionError(f"frame of kernel {which} is not its pickle")
                    view = (memoryview(frames[0]),)
                    decoded.append((which, protocol.decode_artifact(payload, True, view)))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(decoded) == 100
        for which, kernel in decoded:
            assert isinstance(kernel, CompiledKernel)
            assert kernel.kernel.name == names[which]
        distinct = {id(kernel): kernel for _, kernel in decoded}
        assert all(agrees_with_bigints(kernel) for kernel in distinct.values())


class TestWarmReplies:
    def test_warm_replies_of_one_family_unpickle_once(self, memo):
        with ShardSupervisor(shards=1, devices=("rtx4090",), workers=1) as supervisor:
            supervisor.serve(CT)  # cold: compiled in the shard
            memo.clear()
            before = supervisor.wire_snapshot()
            served = [supervisor.serve(CT) for _ in range(20)]
            window = supervisor.wire_snapshot().delta(before)
            totals = supervisor.stats().wire
        assert all(result.warm for result in served)
        assert (window.kernels_unpickled, window.kernels_reused) == (1, 19)
        assert window.kernels_evicted == 0
        counts = memo.stats()
        assert (totals.kernels_unpickled, totals.kernels_reused) == (counts.misses, counts.hits)
        assert all(result.artifact is served[0].artifact for result in served)
        assert agrees_with_bigints(served[-1].artifact)
