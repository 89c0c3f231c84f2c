"""Tests for the unified compiler driver (targets, cache, session, stats)."""

import pytest

from repro.errors import DriverError, UnknownTargetError
from repro.core.driver import (
    CompileRecord,
    CompilerSession,
    CompileStats,
    ContentAddressedCache,
    PassRecord,
    Target,
    emit,
    get_default_session,
    get_target,
    list_targets,
    register_target,
    reset_default_session,
    set_default_session,
)
from repro.core.ir.fingerprint import kernel_digest
from repro.core.passes import DEFAULT_MAX_ROUNDS
from repro.core.rewrite import kernel_is_machine_legal
from repro.kernels import KernelConfig, build_blas_kernel, build_butterfly_kernel


@pytest.fixture
def config():
    return KernelConfig(bits=128)


@pytest.fixture
def session():
    return CompilerSession()


class TestTargetRegistry:
    def test_seed_backends_are_registered(self):
        assert {"c99", "cuda", "python_exec"} <= set(list_targets())

    def test_get_target_passes_instances_through(self):
        target = get_target("cuda")
        assert get_target(target) is target

    def test_unknown_target_raises(self):
        with pytest.raises(UnknownTargetError, match="ptx"):
            get_target("ptx")

    def test_session_compile_unknown_target_raises(self, session, config):
        kernel = build_butterfly_kernel(config)
        with pytest.raises(UnknownTargetError):
            session.compile(kernel, target="ptx", options=config.rewrite_options())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DriverError, match="already registered"):
            register_target(Target(name="cuda", description="dup", emit=lambda k: ""))

    def test_word_width_mismatch_rejected(self, session, config):
        kernel = session.lower(build_butterfly_kernel(config), options=config.rewrite_options())
        narrow = Target(name="w8", description="", emit=lambda k: "", word_bits=(8,))
        with pytest.raises(DriverError, match="machine"):
            emit(kernel, narrow)


class TestContentAddressedCache:
    def test_hit_miss_counters(self):
        cache = ContentAddressedCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_bound(self):
        cache = ContentAddressedCache(maxsize=2)
        for index in range(5):
            cache.put(index, index)
        stats = cache.stats()
        assert stats.currsize == 2
        assert stats.evictions == 3
        # Least-recently-used entries were dropped, newest survive.
        assert 4 in cache and 0 not in cache

    def test_invalid_maxsize(self):
        with pytest.raises(DriverError):
            ContentAddressedCache(maxsize=0)

    def test_get_refreshes_lru_order(self):
        cache = ContentAddressedCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "a" becomes most recent, so "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_put_overwrite_refreshes_lru_order_without_evicting(self):
        cache = ContentAddressedCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite: refreshes recency, no eviction
        assert cache.stats().evictions == 0
        cache.put("c", 3)
        assert cache.get("a") == 10 and "b" not in cache

    def test_eviction_is_lru_not_fifo(self):
        cache = ContentAddressedCache(maxsize=3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")  # insertion order a,b,c but recency order b,c,a
        cache.put("d", "d")
        assert "b" not in cache
        assert all(key in cache for key in "acd")

    def test_counters_under_interleaved_lower_compile(self, config):
        # cache_size=3 holds at most three of {A_low, A_art, B_low, B_art};
        # the trace below interleaves lower/compile so both recency refreshes
        # (hits) and LRU evictions occur, and checks every counter exactly.
        session = CompilerSession(cache_size=3)
        options = config.rewrite_options()
        kernel_a = build_blas_kernel("vadd", config)
        kernel_b = build_blas_kernel("vsub", config)

        session.lower(kernel_a, options=options)  # miss; cache [A_low]
        session.compile(kernel_a, options=options)  # art miss + lower hit; [A_low, A_art]
        session.lower(kernel_b, options=options)  # miss; [A_low, A_art, B_low]
        # art miss + lower hit, then the artifact insert evicts A_low (LRU):
        session.compile(kernel_b, options=options)  # [A_art, B_low, B_art]
        info = session.cache_info()
        assert (info.hits, info.misses, info.evictions) == (2, 4, 1)
        assert info.currsize == 3

        # A's lowering was evicted: re-lowering misses and evicts A_art.
        session.lower(kernel_a, options=options)  # miss; [B_low, B_art, A_low]
        # ... so recompiling A misses its artifact but reuses the fresh
        # lowering, evicting B_low on insert.
        session.compile(kernel_a, options=options)  # [B_art, A_low, A_art]
        info = session.cache_info()
        assert (info.hits, info.misses, info.evictions) == (3, 6, 3)

        # Recency check: A survived (hit), B's lowering did not (miss).
        session.lower(kernel_a, options=options)
        session.lower(kernel_b, options=options)
        info = session.cache_info()
        assert (info.hits, info.misses, info.evictions) == (4, 7, 4)
        assert info.currsize == 3


class TestSessionCaching:
    def test_lower_hits_cache_on_identical_ir(self, session, config):
        options = config.rewrite_options()
        first = session.lower(build_butterfly_kernel(config), options=options)
        second = session.lower(build_butterfly_kernel(config), options=options)
        assert second is first
        info = session.cache_info()
        assert info.hits == 1 and info.misses == 1

    def test_different_options_miss(self, session, config):
        karatsuba = KernelConfig(bits=128, multiplication="karatsuba")
        session.lower(build_butterfly_kernel(config), options=config.rewrite_options())
        session.lower(build_butterfly_kernel(config), options=karatsuba.rewrite_options())
        assert session.cache_info().hits == 0

    def test_targets_cached_independently_share_lowering(self, session, config):
        kernel = build_butterfly_kernel(config)
        options = config.rewrite_options()
        session.compile(kernel, target="cuda", options=options)
        hits_after_cuda = session.cache_info().hits
        session.compile(kernel, target="c99", options=options)
        # The c99 emission misses its own artifact entry but reuses the
        # lowered kernel.
        assert session.cache_info().hits == hits_after_cuda + 1

    def test_compile_returns_cached_artifact(self, session, config):
        kernel = build_blas_kernel("vadd", config)
        options = config.rewrite_options()
        first = session.compile(kernel, target="python_exec", options=options)
        second = session.compile(kernel, target="python_exec", options=options)
        assert second is first

    def test_eviction_bound_applies_to_session(self, config):
        session = CompilerSession(cache_size=2)
        options = config.rewrite_options()
        for operation in ("vadd", "vsub", "vmul"):
            session.lower(build_blas_kernel(operation, config), options=options)
        info = session.cache_info()
        assert info.currsize == 2
        assert info.evictions == 1

    def test_default_session_is_shared_and_resettable(self):
        original = get_default_session()
        assert get_default_session() is original
        try:
            fresh = reset_default_session()
            assert get_default_session() is fresh
            assert fresh is not original
        finally:
            # Restore the shared session (and its warm kernel cache) so the
            # rest of the suite keeps its hits.
            set_default_session(original)


class TestDeterminism:
    def test_emitted_code_identical_across_sessions(self, config):
        options = config.rewrite_options()
        artifacts = []
        for _ in range(2):
            session = CompilerSession()
            artifacts.append(
                session.compile(build_butterfly_kernel(config), target="cuda", options=options)
            )
        assert artifacts[0] == artifacts[1]

    def test_digest_stable_for_equal_ir(self, config):
        first = kernel_digest(build_butterfly_kernel(config))
        second = kernel_digest(build_butterfly_kernel(config))
        assert first == second

    def test_digest_differs_for_different_ir(self, config):
        butterfly = kernel_digest(build_butterfly_kernel(config))
        blas = kernel_digest(build_blas_kernel("vadd", config))
        assert butterfly != blas

    def test_lowered_kernels_are_machine_legal(self, session, config):
        lowered = session.lower(build_butterfly_kernel(config), options=config.rewrite_options())
        assert kernel_is_machine_legal(lowered, config.word_bits)


class TestCompileStats:
    def test_pass_deltas_sum_to_total(self, session, config):
        session.lower(build_butterfly_kernel(config), options=config.rewrite_options())
        records = session.stats().records
        assert len(records) == 1
        record = records[0]
        assert record.passes, "instrumentation recorded no passes"
        assert record.deltas_consistent()
        assert sum(p.delta for p in record.passes) == (
            record.statements_final - record.statements_legalized
        )

    def test_statement_counts_monotone_sensible(self, session, config):
        session.lower(build_butterfly_kernel(config), options=config.rewrite_options())
        record = session.stats().records[0]
        assert record.statements_wide < record.statements_legalized
        assert record.statements_final <= record.statements_legalized
        assert record.seconds >= record.legalize_seconds >= 0.0

    def test_cache_hits_counted_in_stats(self, session, config):
        options = config.rewrite_options()
        session.lower(build_butterfly_kernel(config), options=options)
        session.lower(build_butterfly_kernel(config), options=options)
        stats = session.stats()
        assert stats.compilations == 1
        assert stats.cache_hits == 1

    def test_report_mentions_passes_and_kernel(self, session, config):
        session.lower(build_butterfly_kernel(config), options=config.rewrite_options())
        report = session.stats().report()
        assert "ntt_butterfly" in report
        assert "eliminate_dead_code" in report

    def test_lowering_reports_its_rounds(self, session):
        # Limb pruning at 384 bits leaves duplicate chains; CSE collapses
        # them in round 0 and round 1 only confirms the fixed point.
        config = KernelConfig(bits=384)
        session.lower(build_butterfly_kernel(config), options=config.rewrite_options())
        record = session.stats().records[0]
        assert record.rounds == 2
        assert len(record.passes) == record.rounds * len(session.pipeline) == 10
        assert f"{record.statements_final} optimized in 2 rounds\n" in session.stats().report()

    def test_report_marks_lowering_at_round_limit(self):
        stats = CompileStats()
        passes = tuple(
            PassRecord("simplify", index, 0.0, 9, 9) for index in range(DEFAULT_MAX_ROUNDS)
        )
        stats.record(CompileRecord("k", "key", None, 0.0, 0.0, 3, 9, 9, passes))
        assert stats.records[0].rounds == DEFAULT_MAX_ROUNDS
        assert f"in {DEFAULT_MAX_ROUNDS} rounds (limit: may be unconverged)" in stats.report()

    def test_run_passes_false_records_no_passes(self, session, config):
        session.lower(
            build_butterfly_kernel(config), options=config.rewrite_options(), run_passes=False
        )
        record = session.stats().records[0]
        assert record.passes == ()
        assert record.rounds == 0
        assert record.statements_final == record.statements_legalized
