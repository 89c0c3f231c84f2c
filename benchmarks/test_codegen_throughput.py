"""Benchmarks of the code generator itself (legalization + optimization).

The paper's artifact notes that "code generation time increases exponentially
with the input bit-width"; the first benchmark measures the rewrite system's
throughput on the butterfly kernel at the evaluation bit-widths and checks
that the generated kernel is machine legal.

The second benchmark measures what the driver's content-addressed kernel
cache buys: compiling the Figure 3 NTT kernel set (128/256/384/768-bit
butterflies) cold versus recompiling it warm through the same session.  Warm
recompiles only re-fingerprint the small wide-typed IR and hit the cache, so
they must be at least an order of magnitude faster.
"""

import time

import pytest

from repro.core.driver import CompilerSession
from repro.core.rewrite import kernel_is_machine_legal
from repro.kernels import KernelConfig, build_butterfly_kernel, compile_butterfly_kernel
from repro.evaluation.fig3_ntt import NTT_BIT_WIDTHS


@pytest.mark.parametrize("bits", [128, 256, 384, 768])
def test_butterfly_codegen_throughput(benchmark, bits):
    config = KernelConfig(bits=bits)
    wide = build_butterfly_kernel(config)
    session = CompilerSession()

    def generate():
        return session.lower(wide, options=config.rewrite_options())

    kernel = benchmark.pedantic(generate, rounds=1, iterations=1)
    assert kernel_is_machine_legal(kernel, 64)
    print(f"\n# {bits}-bit butterfly: {len(kernel.body)} machine statements")


def _compile_fig3_kernel_set(session):
    return [
        compile_butterfly_kernel(KernelConfig(bits=bits), session=session)
        for bits in NTT_BIT_WIDTHS
    ]


#: Warm-cache recompiles must beat cold compilation by at least this much.
REQUIRED_CACHE_SPEEDUP = 10.0


@pytest.mark.perf_floor
def test_kernel_cache_cold_vs_warm(benchmark, floor_scale):
    """Warm-cache recompiles of the fig3 kernel set are >= 10x faster than cold."""
    session = CompilerSession()

    started = time.perf_counter()
    cold_kernels = _compile_fig3_kernel_set(session)
    cold_seconds = time.perf_counter() - started
    assert session.cache_info().hits == 0

    def warm_recompile():
        warm_started = time.perf_counter()
        kernels = _compile_fig3_kernel_set(session)
        return kernels, time.perf_counter() - warm_started

    warm_kernels, warm_seconds = benchmark.pedantic(warm_recompile, rounds=1, iterations=1)

    # Warm compiles return the cached artifacts themselves.
    assert all(warm is cold for warm, cold in zip(warm_kernels, cold_kernels))
    assert session.cache_info().hits == len(NTT_BIT_WIDTHS)

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    floor = REQUIRED_CACHE_SPEEDUP * floor_scale
    benchmark.extra_info["cache_speedup"] = speedup
    benchmark.extra_info["floor_speedup"] = floor
    print(f"\n# cold {cold_seconds * 1e3:.1f} ms, warm {warm_seconds * 1e3:.3f} ms, "
          f"speedup {speedup:.0f}x")
    assert speedup >= floor, (
        f"kernel cache speedup {speedup:.1f}x below the {floor:g}x bar "
        f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s)"
    )
