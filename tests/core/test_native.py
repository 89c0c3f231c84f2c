"""The native target: the c99 unit built with ``cc`` and loaded with ctypes.

Differential tests run every kernel three ways on the same operands — the
native library, the ``python_exec`` reference backend and Python bigints —
and require identical outputs.  The sweep covers every width, both
multiplication algorithms and both word widths, but not their full cross
product: ``gcc -O2`` alone takes about 24 s and 400 MB on the 1,024-bit
Karatsuba ``vmul`` with 32-bit words.  Cache tests build into a private
``XDG_CACHE_HOME``; the rest share the user's cache, so a second run is warm.
The conversion helper is built against the interpreter's headers, so the
module also needs ``Python.h``.
"""

import random
import shutil
import subprocess
import sys
import sysconfig
import threading
import tracemalloc

import pytest

import repro.core.codegen.native as native
from repro.arith.barrett import BarrettParams
from repro.core.driver import CompilerSession, get_target
from repro.errors import ArithmeticDomainError, CodegenError, KernelError
from repro.kernels import KernelConfig, build_blas_kernel, compile_blas_kernel
from repro.ntt.generated import GeneratedNTT
from repro.ntt.iterative import ntt_forward, ntt_inverse
from repro.poly.blas import MomaBlasEngine

pytestmark = [
    pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH"),
    pytest.mark.skipif(native._python_headers() is None, reason="no Python.h for this interpreter"),
]

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
    """Every input check of the python_exec path still runs on the native
    path, with the same error types and, for range faults, messages."""

    @pytest.fixture(scope="class")
    def engines(self, session):
        config = KernelConfig(bits=128)
        return (
            MomaBlasEngine(config, session=session),
            _without_compiler(lambda: MomaBlasEngine(config, session=session)),
        )

    @pytest.fixture(scope="class")
    def transforms(self, session):
        config = KernelConfig(bits=128)
        return (
            GeneratedNTT(16, config, session=session),
            _without_compiler(lambda: GeneratedNTT(16, config, session=session)),
        )

    def test_both_engines_run_their_backends(self, engines, transforms):
        for pair in (engines, transforms):
            assert [one.backend for one in pair] == ["native", "python_exec"]

    @pytest.mark.parametrize(
        "call",
        [
            lambda e, q: e.vadd([q], [0], q),
            lambda e, q: e.vsub([0, 1], [0], q),
            lambda e, q: e.vmul([-1], [0], q),
            lambda e, q: e.vmul([0, 1 << 128], [0, 0], q),
            lambda e, q: e.axpy(1, [0, 1], [0, q + 1], q),
            lambda e, q: e.axpy(q, [0], [0], q),
            lambda e, q: e.vadd([0], [0], 2),
            lambda e, q: e.vmul([0], [0], 2),
        ],
    )
    def test_unreduced_or_mismatched_input(self, engines, call):
        q = (1 << 123) + 1
        messages = []
        for engine in engines:
            with pytest.raises(ArithmeticDomainError) as raised:
                call(engine, q)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "call",
        [
            lambda e, q: e.vadd([1.5], [0], q),
            lambda e, q: e.vmul([0, 1], [0, 2.0], q),
            lambda e, q: e.axpy(1, [0], [0.5], q),
        ],
    )
    def test_element_that_is_not_an_int(self, engines, call):
        q = (1 << 123) + 1
        for engine in engines:
            with pytest.raises(CodegenError):
                call(engine, q)

    def test_modulus_wider_than_the_kernel(self, engines):
        q = (1 << 130) + 1
        for engine in engines:
            with pytest.raises(CodegenError):
                engine.vadd([1], [2], q)
            assert engine.vadd([], [], q) == []

    def test_transform_length_and_range(self, transforms):
        q = transforms[0].modulus
        for transform in transforms:
            with pytest.raises(KernelError, match="expected 16 coefficients, got 8"):
                transform.forward([0] * 8)
            with pytest.raises(KernelError, match="coefficient 3 is not reduced"):
                transform.inverse([0, 1, 2, q] + [0] * 12)
            with pytest.raises(KernelError, match="coefficient 5 is not reduced"):
                transform.forward([0] * 5 + [-1] + [0] * 10)
            with pytest.raises(CodegenError):
                transform.forward([1.5] + [0] * 15)
            with pytest.raises(CodegenError):
                transform.inverse([0] * 15 + [0.5])


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


def test_no_headers_fall_back_to_python_exec_without_a_process(session, tmp_path, monkeypatch):
    config = KernelConfig(bits=128)
    kernel = compile_blas_kernel("vadd", config, session=session).kernel
    get_path = sysconfig.get_path
    monkeypatch.setattr(
        sysconfig,
        "get_path",
        lambda name, *args, **kwargs: str(tmp_path) if name == "include" else get_path(name, *args, **kwargs),
    )
    monkeypatch.setattr(subprocess, "Popen", _no_process)
    assert MomaBlasEngine(config, session=session).backend == "python_exec"
    assert GeneratedNTT(16, config, session=session).backend == "python_exec"
    assert native.native_build(kernel) is None
    with pytest.raises(CodegenError, match="Python.h"):
        native.compile_native(kernel)


# -- the conversion helper ---------------------------------------------------------

#: (bits, word_bits) of the vadd kernels the conversion tests pack for: both
#: word widths, and the 384-bit operand whose 512-bit container prunes its
#: top two 64-bit (four 32-bit) limbs.
CONVERTER_CASES = [(128, 64), (128, 32), (384, 64), (384, 32)]


@pytest.fixture(scope="module", params=CONVERTER_CASES, ids=[f"{b}w{w}" for b, w in CONVERTER_CASES])
def packer(request, session):
    """A vadd kernel's library, its configuration and its ``x`` limb counts
    (kept, and the full container)."""
    config = KernelConfig(bits=request.param[0], word_bits=request.param[1])
    built = native.compile_native(compile_blas_kernel("vadd", config, session=session).kernel)
    layout = built.kernel.metadata["param_layout"]["x"]
    return built, config, sum(limb is not None for limb in layout), len(layout)


def _limbs(value, limbs, word_bits):
    """``value``'s ``limbs`` words, most significant first: the reference layout."""
    mask = (1 << word_bits) - 1
    return [(value >> (word_bits * (limbs - 1 - index))) & mask for index in range(limbs)]


class _Index:
    """Not an ``int``, though ``__index__`` would give one."""

    def __index__(self):
        return 1


class TestConverter:
    def test_round_trips_at_kept_limbs_and_full_container(self, packer):
        built, config, kept, container = packer
        word_bits = config.word_bits
        for limbs in (kept, container):
            values = [0, 1, (1 << word_bits) - 1, 1 << word_bits, (1 << limbs * word_bits) - 1]
            for q in _moduli(config, random.Random(limbs)):
                values += _edges(q, word_bits)
            data = built._pack(values, limbs)
            assert data.tolist() == [
                limb for value in values for limb in _limbs(value, limbs, word_bits)
            ]
            assert built._unpack(data, limbs) == values

    def test_refusals_name_the_first_bad_index(self, packer):
        built, config, kept, _ = packer
        q = _moduli(config, random.Random(0))[1]
        too_wide = 1 << kept * config.word_bits
        for bad, bound in [
            (-1, None),
            (-1, q),
            (too_wide, None),
            (too_wide, q),
            (q, q),
            (1.5, q),
            (_Index(), None),
        ]:
            with pytest.raises(CodegenError, match=r"^element 2 = "):
                built._pack([0, q - 1, bad, bad, 1], kept, bound)

    def test_a_tuple_packs_like_a_list(self, packer):
        built, config, kept, _ = packer
        q = _moduli(config, random.Random(0))[1]
        values = [0, 1, q - 2, q - 1]
        assert built._pack(tuple(values), kept, q) == built._pack(values, kept, q)
        with pytest.raises(CodegenError, match=r"^element 1 = "):
            built._pack((0, q, 1), kept, q)

    def test_no_leaks(self, packer):
        built, config, kept, _ = packer
        q = _moduli(config, random.Random(0))[1]
        rng = random.Random(1)
        values = [rng.randrange(q) for _ in range(1024)]
        refused = values[:-1] + [1.5]
        counts = [sys.getrefcount(values), *map(sys.getrefcount, values)]
        assert built._unpack(built._pack(values, kept, q), kept) == values
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                built._unpack(built._pack(values, kept, q), kept)
                with pytest.raises(CodegenError):
                    built._pack(refused, kept, q)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 64 * 1024
        assert [sys.getrefcount(values), *map(sys.getrefcount, values)] == counts


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
    """A list that records, per ``cc`` run, what it built: "kernel" or "converter"."""
    compiles = []
    real_compile = native._compile

    def counting(compiler, source, *args):
        compiles.append("converter" if source == native._CONVERTER_SOURCE else "kernel")
        return real_compile(compiler, source, *args)

    monkeypatch.setattr(native, "_compile", counting)
    return compiles


def _entries(cache):
    """The cache's entries: (kernel libraries, conversion helpers)."""
    entries = sorted(cache.glob("*.so"))
    converters = [path for path in entries if path.name.startswith("convert-")]
    return [path for path in entries if path not in converters], converters


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
        kernels, converters = _entries(private_cache)
        assert (len(kernels), len(converters)) == (1, 1)

    def test_warm_cache_spawns_no_compiler(self, private_cache, small_kernel, monkeypatch):
        native.compile_native(small_kernel)
        monkeypatch.setattr(native, "_LOADED", {})
        monkeypatch.setattr(subprocess, "Popen", _no_process)
        _check_vadd(native.compile_native(small_kernel))

    def test_converter_entry_is_keyed_by_the_interpreter(self, private_cache, small_kernel, monkeypatch):
        native.compile_native(small_kernel)
        monkeypatch.setattr(native, "_LOADED", {})
        get_config_var = sysconfig.get_config_var
        monkeypatch.setattr(
            sysconfig,
            "get_config_var",
            lambda name: "other-abi" if name == "SOABI" else get_config_var(name),
        )
        compiles = _count_compiles(monkeypatch)
        _check_vadd(native.compile_native(small_kernel))
        assert compiles == ["converter"]
        kernels, converters = _entries(private_cache)
        assert (len(kernels), len(converters)) == (1, 2)

    def test_truncated_entry_is_rebuilt(self, private_cache, small_kernel, monkeypatch):
        native.compile_native(small_kernel)
        [entry], _ = _entries(private_cache)
        data = entry.read_bytes()
        # A new file, not an in-place truncation: the loaded copy stays mapped.
        entry.unlink()
        entry.write_bytes(data[: len(data) // 2])
        monkeypatch.setattr(native, "_LOADED", {})
        compiles = _count_compiles(monkeypatch)
        _check_vadd(native.compile_native(small_kernel))
        assert compiles == ["kernel"]
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
        assert sorted(compiles) == ["converter", "kernel"]
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
