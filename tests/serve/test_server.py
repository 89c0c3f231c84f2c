"""KernelServer behaviour: dedup, warm serving, batching, lifecycle.

The acceptance property of the serving subsystem lives here: a warm server
answers a tuned kernel request with **zero** compilations and **zero**
tuning-database accesses, while N concurrent identical requests share
exactly one compilation.
"""

import threading

import pytest

from repro.errors import ServingError, TuningError
from repro.serve import KernelServer, ServeRequest

BITS = 128
SIZE = 16


def _request(**kwargs):
    defaults = dict(kind="ntt", bits=BITS, size=SIZE)
    defaults.update(kwargs)
    return ServeRequest(**defaults)


@pytest.fixture
def server():
    with KernelServer(devices=("rtx4090",)) as instance:
        yield instance


class TestColdAndWarmServing:
    def test_cold_serve_tunes_and_compiles(self, server):
        result = server.serve(_request())
        assert not result.warm
        assert result.tuning is not None
        assert not result.from_database  # first tune of the family searches
        assert result.artifact is not None
        assert result.config.bits == BITS
        snapshot = server.metrics_snapshot()
        assert snapshot.cold_serves == 1
        assert snapshot.resident_kernels == 1

    def test_warm_serve_is_free(self, server):
        """Acceptance: zero compilations, zero tuning-db searches per request."""
        server.serve(_request())
        compilations_before = server.session.stats().compilations
        cache_before = server.session.cache_info()
        db_before = server.db.stats()

        result = server.serve(_request())

        assert result.warm
        assert server.session.stats().compilations == compilations_before
        cache_after = server.session.cache_info()
        # Not even a cache lookup: the resident table answers before the
        # session or the database are consulted.
        assert cache_after.hits == cache_before.hits
        assert cache_after.misses == cache_before.misses
        db_after = server.db.stats()
        assert db_after.hits == db_before.hits
        assert db_after.misses == db_before.misses
        assert server.metrics_snapshot().warm_serves == 1

    def test_warm_result_reuses_artifact_and_tuning(self, server):
        cold = server.serve(_request())
        warm = server.serve(_request())
        assert warm.artifact is cold.artifact
        assert warm.config == cold.config
        assert warm.tuning == cold.tuning

    def test_distinct_requests_are_distinct_entries(self, server):
        server.serve(_request())
        server.serve(_request(bits=256))
        server.serve(_request(target="cuda"))
        assert server.resident_count == 3

    def test_pinned_request_skips_tuning(self, server):
        result = server.serve(
            _request(tune=False, multiplication="karatsuba", word_bits=32)
        )
        assert result.tuning is None
        assert result.config.multiplication == "karatsuba"
        assert result.config.word_bits == 32
        assert server.metrics_snapshot().batched_tunes == 0

    def test_cuda_target_serves_source(self, server):
        result = server.serve(_request(target="cuda"))
        assert "__device__" in str(result.artifact)


class TestDeduplication:
    def test_n_threads_one_compilation(self):
        """Acceptance: concurrent identical requests share one compilation."""
        n = 12
        with KernelServer(devices=("rtx4090",), workers=n) as server:
            barrier = threading.Barrier(n)
            results = [None] * n

            def worker(index):
                barrier.wait()
                results[index] = server.serve(_request())

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert all(result is not None for result in results)
            artifacts = {id(result.artifact) for result in results}
            assert len(artifacts) == 1

            snapshot = server.metrics_snapshot()
            assert snapshot.requests == n
            # Exactly one request went through the full path; the rest either
            # attached to it in flight or (late arrivals) were answered warm.
            assert snapshot.cold_serves == 1
            assert snapshot.dedup_hits + snapshot.warm_serves == n - 1
            assert snapshot.errors == 0
            # Exactly one tuning search ran for the family.
            assert snapshot.batched_tunes == 1


class TestTuneBatching:
    def test_concurrent_cold_requests_share_a_batch(self):
        with KernelServer(
            devices=("rtx4090",), workers=4, tune_batch_window_s=0.5
        ) as server:
            futures = [
                server.submit(_request(bits=bits)) for bits in (64, 128, 192)
            ]
            for future in futures:
                future.result()
            snapshot = server.metrics_snapshot()
            assert snapshot.batched_tunes == 3
            # The batch window groups the three families into one micro-batch
            # (one database save), not three.
            assert snapshot.tune_batches == 1


class TestLifecycleAndErrors:
    def test_invalid_request_raises_before_dispatch(self, server):
        with pytest.raises(TuningError):
            server.serve(_request(size=3))  # not a power of two
        assert server.metrics_snapshot().cold_serves == 0

    def test_native_target_refused_before_any_compile(self, server):
        # A loaded shared library can neither cross the wire nor be built
        # for a caller: the request fails synchronously at the front door.
        with pytest.raises(ServingError, match="native"):
            server.submit(_request(target="native", tune=False))
        assert server.session.stats().records == []
        assert server.metrics_snapshot().requests == 0
        assert server.serve(_request(tune=False)).request.target == "python_exec"

    def test_closed_server_rejects_requests(self):
        server = KernelServer(devices=("rtx4090",))
        server.close()
        with pytest.raises(ServingError):
            server.serve(_request())

    def test_close_is_idempotent(self):
        server = KernelServer(devices=("rtx4090",))
        server.close()
        server.close()

    def test_server_requires_devices_and_workers(self):
        with pytest.raises(ServingError):
            KernelServer(devices=())
        with pytest.raises(ServingError):
            KernelServer(workers=0)

    def test_resident_table_is_bounded(self):
        with KernelServer(devices=("rtx4090",), resident_capacity=2) as server:
            for bits in (64, 128, 192):
                server.serve(_request(bits=bits, tune=False))
            # LRU bound: the oldest family fell out; the newest two are warm.
            assert server.resident_count == 2
            assert server.serve(_request(bits=192, tune=False)).warm
            assert not server.serve(_request(bits=64, tune=False)).warm

    def test_failed_request_is_not_resident(self, server):
        # A request that validates but cannot compile: pinned word width
        # wider than the operand fails inside the worker.
        with pytest.raises(Exception):
            server.serve(_request(bits=64, tune=False, word_bits=128))
        assert server.resident_count == 0
        assert server.metrics_snapshot().errors == 1
        # The key is no longer in flight: a valid retry path exists.
        assert server.queue_depth == 0
