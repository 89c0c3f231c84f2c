"""Wall-clock micro-benchmarks of the executable engines on this machine.

These complement the cost-model figures: they measure the actual runtime of
(i) the MoMA-generated machine-word kernels, run natively (the c99 unit
built with the host ``cc``) and through the ``python_exec`` reference
backend, (ii) Python's arbitrary-precision integers (the GMP stand-in), and
(iii) the RNS/GRNS-style baseline.

``test_native_ntt_beats_bigint`` is the wall-clock counterpart of Fig. 2 and
Fig. 3: it records ns per element of ``vmul`` and ns per butterfly of a
whole forward NTT, for bigint, ``python_exec`` and native at 128 to 1,024
bits, and holds the paper's claims as floors.  Native ``vmul`` runs through
``MomaBlasEngine.vmul``, so its time includes checking, packing and
unpacking every element; it must beat ``BigIntBaseline.vmul`` at every
width.  A whole native NTT must beat bigints at 256 bits and above.
"""

import random
import shutil
import time

import pytest

from repro.baselines import BigIntBaseline, GrnsBaseline
from repro.kernels import KernelConfig, compile_blas_kernel
from repro.ntheory import find_ntt_prime
from repro.ntt.generated import GeneratedNTT
from repro.ntt.iterative import ntt_forward
from repro.ntt.planner import make_plan
from repro.poly import MomaBlasEngine

BITS = 128
LENGTH = 64
Q = find_ntt_prime(BITS - 4, 64)

#: The Fig. 2/3 widths recorded per engine.
WIDTHS = (128, 256, 384, 768, 1024)
#: Widths the native NTT must beat bigints at.
FLOOR_WIDTHS = (256, 384, 768, 1024)
#: Required bigint/native time ratio of a whole NTT (before floor_scale).
REQUIRED_NTT_SPEEDUP = 2.0
#: Required bigint/native time ratio of vmul at every width (before floor_scale).
REQUIRED_VMUL_SPEEDUP = 1.0
#: Vector and transform lengths: native and bigint run the long ones;
#: python_exec, thousands of times slower per unit, the short ones.
ELEMENTS = 1024
NTT_SIZE = 256
PYTHON_EXEC_ELEMENTS = 64
PYTHON_EXEC_NTT_SIZE = 16


def _vectors(seed=0):
    rng = random.Random(seed)
    x = [rng.randrange(Q) for _ in range(LENGTH)]
    y = [rng.randrange(Q) for _ in range(LENGTH)]
    return x, y


@pytest.fixture(scope="module")
def engines():
    return {
        "moma": MomaBlasEngine(KernelConfig(bits=BITS)),
        "bigint": BigIntBaseline(),
        "grns": GrnsBaseline(BITS - 4),
    }


@pytest.mark.parametrize("engine_name", ["moma", "bigint", "grns"])
def test_vmul_wallclock(benchmark, engines, engine_name):
    engine = engines[engine_name]
    x, y = _vectors()
    result = benchmark(engine.vmul, x, y, Q)
    assert result == [(a * b) % Q for a, b in zip(x, y)]


@pytest.mark.parametrize("engine_name", ["moma", "bigint", "grns"])
def test_vadd_wallclock(benchmark, engines, engine_name):
    engine = engines[engine_name]
    x, y = _vectors(1)
    result = benchmark(engine.vadd, x, y, Q)
    assert result == [(a + b) % Q for a, b in zip(x, y)]


def _fastest(call, repeats):
    """Fastest of ``repeats`` timed calls, in seconds, and the last result."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - started)
    return best, result


def _measure_width(bits):
    """ns per element of the vmul kernel and per butterfly of a whole
    forward NTT, per engine, at one width."""
    config = KernelConfig(bits=bits)
    rng = random.Random(bits)
    ntt = GeneratedNTT(NTT_SIZE, config)
    assert ntt.backend == "native"
    plan, q = ntt.plan, ntt.modulus
    bigint = BigIntBaseline()
    x = [rng.randrange(q) for _ in range(ELEMENTS)]
    y = [rng.randrange(q) for _ in range(ELEMENTS)]
    expected = [(a * b) % q for a, b in zip(x, y)]
    kernel = compile_blas_kernel("vmul", config)
    engine = MomaBlasEngine(config)
    assert engine.backend == "native"
    few = PYTHON_EXEC_ELEMENTS

    vmul = {}
    vmul["bigint"], _ = _fastest(lambda: bigint.vmul(x, y, q), 5)
    vmul["native"], result = _fastest(lambda: engine.vmul(x, y, q), 5)
    assert result == expected
    vmul["python_exec"], result = _fastest(
        lambda: [kernel(x=a, y=b, q=q, mu=plan.mu)["z"] for a, b in zip(x[:few], y[:few])], 1
    )
    assert result == expected[:few]
    per_element = {
        engine: seconds / (few if engine == "python_exec" else ELEMENTS) * 1e9
        for engine, seconds in vmul.items()
    }

    values = [rng.randrange(q) for _ in range(NTT_SIZE)]
    butterflies = NTT_SIZE // 2 * plan.stages
    ntt_times = {}
    ntt_times["bigint"], spectrum = _fastest(lambda: bigint.ntt(values, plan), 3)
    ntt_times["native"], result = _fastest(lambda: ntt.forward(values), 5)
    assert result == spectrum
    small_plan = make_plan(PYTHON_EXEC_NTT_SIZE, plan.modulus_bits, modulus=q)
    small_values = [rng.randrange(small_plan.modulus) for _ in range(small_plan.size)]

    def butterfly(a, b, twiddle, _plan):
        out = ntt.compiled_kernel(x=a, y=b, w=twiddle, q=_plan.modulus, mu=_plan.mu)
        return out["x_out"], out["y_out"]

    ntt_times["python_exec"], result = _fastest(
        lambda: ntt_forward(small_values, small_plan, butterfly), 1
    )
    assert result == bigint.ntt(small_values, small_plan)
    small_butterflies = small_plan.size // 2 * small_plan.stages
    per_butterfly = {
        engine: seconds / (small_butterflies if engine == "python_exec" else butterflies) * 1e9
        for engine, seconds in ntt_times.items()
    }
    return per_element, per_butterfly


@pytest.mark.perf_floor
@pytest.mark.skipif(shutil.which("cc") is None, reason="the native target needs `cc`")
def test_native_ntt_beats_bigint(run_once, benchmark, floor_scale):
    measured = run_once(lambda: {bits: _measure_width(bits) for bits in WIDTHS})
    floor = REQUIRED_NTT_SPEEDUP * floor_scale
    vmul_floor = REQUIRED_VMUL_SPEEDUP * floor_scale
    print()
    for bits, (per_element, per_butterfly) in measured.items():
        for engine in ("bigint", "python_exec", "native"):
            benchmark.extra_info[f"vmul_ns_per_elem_{engine}_{bits}"] = per_element[engine]
            benchmark.extra_info[f"ns_per_butterfly_{engine}_{bits}"] = per_butterfly[engine]
        print(
            f"# {bits:>5} bits  vmul ns/elem: bigint {per_element['bigint']:8.0f}  "
            f"python_exec {per_element['python_exec']:10.0f}  native {per_element['native']:8.0f}"
            f"  |  ns/butterfly: bigint {per_butterfly['bigint']:8.0f}  "
            f"python_exec {per_butterfly['python_exec']:10.0f}  native {per_butterfly['native']:8.0f}"
        )
    benchmark.extra_info["floor_ntt_speedup"] = floor
    benchmark.extra_info["floor_vmul_speedup"] = vmul_floor
    for bits in WIDTHS:
        per_element = measured[bits][0]
        speedup = per_element["bigint"] / per_element["native"]
        benchmark.extra_info[f"vmul_speedup_{bits}"] = speedup
        assert speedup >= vmul_floor, (
            f"native {bits}-bit vmul is only {speedup:.2f}x as fast as bigints; "
            f"expected at least {vmul_floor:g}x ({REQUIRED_VMUL_SPEEDUP}x x {floor_scale:g})"
        )
    for bits in FLOOR_WIDTHS:
        per_butterfly = measured[bits][1]
        speedup = per_butterfly["bigint"] / per_butterfly["native"]
        benchmark.extra_info[f"ntt_speedup_{bits}"] = speedup
        assert speedup >= floor, (
            f"the native {bits}-bit NTT is only {speedup:.2f}x faster than bigints; "
            f"expected at least {floor:g}x ({REQUIRED_NTT_SPEEDUP}x x {floor_scale:g})"
        )
