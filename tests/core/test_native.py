"""The native target: the c99 unit built with ``cc`` and loaded with ctypes.

Differential tests run every kernel three ways on the same operands — the
native library, the ``python_exec`` reference backend and Python bigints —
and require identical outputs.  The sweep covers every width, both
multiplication algorithms and both word widths, but not their full cross
product: ``gcc -O2`` alone takes about 24 s and 400 MB on the 1,024-bit
Karatsuba ``vmul`` with 32-bit words.  Cache tests build into a private
``XDG_CACHE_HOME``; the rest share the user's cache, so a second run is warm.
"""

import random
import shutil
import subprocess
import threading

import pytest

import repro.core.codegen.native as native
from repro.arith.barrett import BarrettParams
from repro.core.driver import CompilerSession, get_target
from repro.errors import ArithmeticDomainError, CodegenError, KernelError
from repro.kernels import KernelConfig, build_blas_kernel, compile_blas_kernel
from repro.ntt.generated import GeneratedNTT
from repro.ntt.iterative import ntt_forward, ntt_inverse
from repro.poly.blas import MomaBlasEngine

pytestmark = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")

ALL = ("vadd", "vsub", "vmul", "axpy")
MUL = ("vmul", "axpy")
ADD = ("vadd", "vsub")

#: (bits, multiplication, word_bits, operations).  Karatsuba changes only
#: the multiplications, so additions run schoolbook only.
BLAS_CASES = [
    (128, "schoolbook", 64, ALL),
    (128, "schoolbook", 32, ALL),
    (128, "karatsuba", 64, MUL),
    (128, "karatsuba", 32, MUL),
    (256, "schoolbook", 64, ALL),
    (256, "schoolbook", 32, ALL),
    (256, "karatsuba", 64, MUL),
    (384, "schoolbook", 64, ALL),
    (384, "karatsuba", 64, ("vmul",)),
    (768, "schoolbook", 64, ("vadd", "vsub", "vmul")),
    (768, "schoolbook", 32, ADD),
    (1024, "schoolbook", 64, ADD),
    (1024, "schoolbook", 32, ADD),
]


@pytest.fixture(scope="module")
def session():
    return CompilerSession()


def _moduli(config, rng):
    """All-ones (every kept limb of q - 1 is all-ones but the lowest bit) and a drawn one."""
    bits = config.effective_modulus_bits
    return [(1 << bits) - 1, rng.randrange(1 << (bits - 1), 1 << bits) | 1]


def _edges(q, word_bits):
    """0, 1, q - 1, all-ones below q's top limb, and q's top limb minus one
    over all-ones limbs: every carry and borrow chain at its longest."""
    shift = word_bits * ((q.bit_length() - 1) // word_bits)
    return [0, 1, q - 1, (1 << shift) - 1, ((q >> shift) << shift) - 1]


def _operands(q, word_bits, rng):
    edges = [value for value in _edges(q, word_bits) if value < q]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(8)]
    return [a for a, _ in pairs], [b for _, b in pairs]


def _bigint(operation, x, y, scalars):
    q = scalars["q"]
    scale = scalars.get("a", 0)
    compute = {
        "vadd": lambda a, b: (a + b) % q,
        "vsub": lambda a, b: (a - b) % q,
        "vmul": lambda a, b: (a * b) % q,
        "axpy": lambda a, b: (scale * a + b) % q,
    }[operation]
    return [compute(a, b) for a, b in zip(x, y)]


@pytest.mark.parametrize(
    "bits, multiplication, word_bits, operations",
    BLAS_CASES,
    ids=[f"{bits}{m[0]}w{w}" for bits, m, w, _ in BLAS_CASES],
)
def test_blas_matches_python_exec_and_bigints(session, bits, multiplication, word_bits, operations):
    config = KernelConfig(bits=bits, word_bits=word_bits, multiplication=multiplication)
    rng = random.Random(bits * word_bits)
    modulus_bits = config.effective_modulus_bits
    for operation in operations:
        reference = compile_blas_kernel(operation, config, session=session)
        built = native.compile_native(reference.kernel)
        for q in _moduli(config, rng):
            x, y = _operands(q, word_bits, rng)
            scalars = {"q": q}
            if operation in MUL:
                scalars["mu"] = BarrettParams.create(q, modulus_bits + 4, modulus_bits).mu
            if operation == "axpy":
                scalars["a"] = q - 1
            expected = _bigint(operation, x, y, scalars)
            assert built.batch({"x": x, "y": y}, scalars)["z"] == expected, (operation, q)
            assert [reference(x=a, y=b, **scalars)["z"] for a, b in zip(x, y)] == expected


@pytest.mark.parametrize("bits", [128, 384])
@pytest.mark.parametrize("size", [2, 16, 256])
def test_ntt_round_trips_match_python_exec(session, bits, size):
    transform = GeneratedNTT(size, KernelConfig(bits=bits), session=session)
    assert transform.backend == "native"
    q = transform.modulus
    rng = random.Random(size + bits)
    values = ([0, 1, q - 1] + [rng.randrange(q) for _ in range(size)])[:size]
    kernel = transform.compiled_kernel

    def butterfly(x, y, twiddle, plan):
        out = kernel(x=x, y=y, w=twiddle, q=plan.modulus, mu=plan.mu)
        return out["x_out"], out["y_out"]

    spectrum = transform.forward(values)
    assert spectrum == ntt_forward(values, transform.plan)
    assert spectrum == ntt_forward(values, transform.plan, butterfly)
    assert transform.inverse(spectrum) == values
    assert transform.inverse(values) == ntt_inverse(values, transform.plan, butterfly)


class TestBoundaryChecks:
    """Every input check of the python_exec path still runs, same error types."""

    @pytest.fixture(scope="class")
    def engines(self):
        config = KernelConfig(bits=128)
        return MomaBlasEngine(config), _without_compiler(lambda: MomaBlasEngine(config))

    def test_both_engines_run_their_backends(self, engines):
        assert [engine.backend for engine in engines] == ["native", "python_exec"]

    @pytest.mark.parametrize(
        "call",
        [
            lambda e, q: e.vadd([q], [0], q),
            lambda e, q: e.vsub([0, 1], [0], q),
            lambda e, q: e.vmul([-1], [0], q),
            lambda e, q: e.axpy(q, [0], [0], q),
            lambda e, q: e.vadd([0], [0], 2),
        ],
    )
    def test_unreduced_or_mismatched_input(self, engines, call):
        q = (1 << 123) + 1
        for engine in engines:
            with pytest.raises(ArithmeticDomainError):
                call(engine, q)

    def test_modulus_wider_than_the_kernel(self, engines):
        q = (1 << 130) + 1
        for engine in engines:
            with pytest.raises(CodegenError):
                engine.vadd([1], [2], q)
            assert engine.vadd([], [], q) == []

    def test_transform_length_and_range(self, session):
        transform = GeneratedNTT(16, KernelConfig(bits=128), session=session)
        assert transform.backend == "native"
        with pytest.raises(KernelError):
            transform.forward([0] * 8)
        with pytest.raises(KernelError):
            transform.inverse([transform.modulus] + [0] * 15)


def _without_compiler(build):
    """Run ``build`` with no ``cc`` to be found and no process spawnable."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PATH", "")
        patch.setattr(subprocess, "Popen", _no_process)
        return build()


def _no_process(*args, **kwargs):
    raise AssertionError(f"spawned a process: {args}")


def test_no_compiler_falls_back_to_python_exec_without_a_process(session):
    config = KernelConfig(bits=128)
    q = (1 << 123) + 1
    x, y = _operands(q, 64, random.Random(0))
    native_engine = MomaBlasEngine(config, session=session)
    native_ntt = GeneratedNTT(16, config, session=session)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PATH", "")
        patch.setattr(subprocess, "Popen", _no_process)
        fallback = MomaBlasEngine(config, session=session)
        fallback_ntt = GeneratedNTT(16, config, session=session)
        assert (fallback.backend, fallback_ntt.backend) == ("python_exec", "python_exec")
        for operation in ("vadd", "vsub", "vmul"):
            assert getattr(fallback, operation)(x, y, q) == getattr(native_engine, operation)(x, y, q)
        assert fallback.axpy(3, x, y, q) == native_engine.axpy(3, x, y, q)
        values = list(range(16))
        assert fallback_ntt.forward(values) == native_ntt.forward(values)
        assert fallback_ntt.inverse(values) == native_ntt.inverse(values)


# -- the build cache -------------------------------------------------------------


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_LOADED", {})
    return tmp_path / "repro" / "native"


@pytest.fixture(scope="module")
def small_kernel():
    return compile_blas_kernel("vadd", KernelConfig(bits=128), session=CompilerSession()).kernel


def _count_compiles(monkeypatch):
    compiles = []
    real_compile = native._compile

    def counting(*args):
        compiles.append(args)
        return real_compile(*args)

    monkeypatch.setattr(native, "_compile", counting)
    return compiles


def _check_vadd(built):
    q = (1 << 123) + 1
    assert built.batch({"x": [q - 1, 5], "y": [q - 1, 7]}, {"q": q})["z"] == [q - 2, 12]


class TestBuildCache:
    def test_location_follows_xdg_then_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert native.cache_directory() == tmp_path / "xdg" / "repro" / "native"
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert native.cache_directory() == tmp_path / "home" / ".cache" / "repro" / "native"

    def test_registered_target_builds_through_the_session(self, private_cache):
        target = get_target("native")
        assert target.artifact == "library" and target.word_bits == (32, 64)
        built = CompilerSession().compile(
            build_blas_kernel("vadd", KernelConfig(bits=128)), target="native"
        )
        assert isinstance(built, native.NativeKernel)
        _check_vadd(built)
        assert len(list(private_cache.glob("*.so"))) == 1

    def test_warm_cache_spawns_no_compiler(self, private_cache, small_kernel, monkeypatch):
        native.compile_native(small_kernel)
        monkeypatch.setattr(native, "_LOADED", {})
        monkeypatch.setattr(subprocess, "Popen", _no_process)
        _check_vadd(native.compile_native(small_kernel))

    def test_truncated_entry_is_rebuilt(self, private_cache, small_kernel, monkeypatch):
        native.compile_native(small_kernel)
        [entry] = private_cache.glob("*.so")
        data = entry.read_bytes()
        # A new file, not an in-place truncation: the loaded copy stays mapped.
        entry.unlink()
        entry.write_bytes(data[: len(data) // 2])
        monkeypatch.setattr(native, "_LOADED", {})
        compiles = _count_compiles(monkeypatch)
        _check_vadd(native.compile_native(small_kernel))
        assert len(compiles) == 1
        assert native._intact(entry)

    def test_concurrent_first_builds_compile_once(self, private_cache, small_kernel, monkeypatch):
        compiles = _count_compiles(monkeypatch)
        barrier = threading.Barrier(4)
        built, errors = [], []

        def build():
            barrier.wait(timeout=10)
            try:
                built.append(native.compile_native(small_kernel))
            except Exception as error:  # noqa: BLE001 - the failure mode
                errors.append(error)

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(built) == 4
        assert len(compiles) == 1
        assert [path for path in private_cache.iterdir() if path.name.endswith(".tmp")] == []

    def test_failing_compiler_raises_codegen_error_with_its_stderr(
        self, private_cache, small_kernel, tmp_path, monkeypatch
    ):
        fake = tmp_path / "bin" / "cc"
        fake.parent.mkdir()
        fake.write_text(
            "#!/bin/sh\n"
            'echo "fatal: refusing to compile" >&2\n'
            "exit 3\n"
        )
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", str(fake.parent))
        with pytest.raises(CodegenError, match="refusing to compile") as raised:
            native.compile_native(small_kernel)
        assert "status 3" in str(raised.value)
        assert list(private_cache.glob("*.so")) == []
