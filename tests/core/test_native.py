"""The native target: the kernel's C unit built with ``cc`` and loaded with ctypes.

Differential tests run every kernel three ways on the same operands — the
native library, the ``python_exec`` reference backend and Python bigints —
and require identical outputs, on both native paths in turn: the lane unit
(eight elements per call, on hosts with AVX-512F and AVX-512DQ; skipped
elsewhere) and the scalar ``c99`` unit, forced by replacing the CPU probe.  The sweep
covers every width, both multiplication algorithms and both word widths,
but not their full cross product: ``gcc -O2`` alone takes about 24 s and
400 MB on the 1,024-bit Karatsuba ``vmul`` with 32-bit words.  Cache tests
build into a private ``XDG_CACHE_HOME``; the rest share the user's cache, so
a second run is warm.  The conversion helper is built against the
interpreter's headers, so the module also needs ``Python.h``.
"""

import gc
import random
import shutil
import subprocess
import sys
import sysconfig
import threading
import tracemalloc
from array import array

import pytest

import repro.core.codegen.native as native
from repro.arith.barrett import BarrettParams
from repro.core.codegen.lanes import LANES
from repro.core.codegen.python_exec import compile_kernel
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.types import IntType, u1
from repro.core.ir.values import Const, Group, Var
from repro.core.driver import CompilerSession, get_target
from repro.errors import ArithmeticDomainError, CodegenError, KernelError
from repro.kernels import KernelConfig, build_blas_kernel, compile_blas_kernel
from repro.ntt.generated import GeneratedNTT
from repro.ntt.iterative import ntt_forward, ntt_inverse
from repro.ntt.planner import bit_reverse_permutation, make_plan
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


HAS_LANES = native._host_lanes() == LANES


def _native_paths(monkeypatch):
    """Each native path in turn, as its lanes per call: the lane unit where
    the CPU has AVX-512F and AVX-512DQ (skipped elsewhere), then the scalar
    unit, forced by replacing the CPU probe for the rest of the test."""
    if HAS_LANES:
        yield LANES
    monkeypatch.setattr(native, "_host_lanes", lambda: 1)
    yield 1


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


def _scalars(operation, config, q):
    modulus_bits = config.effective_modulus_bits
    scalars = {"q": q}
    if operation in MUL:
        scalars["mu"] = BarrettParams.create(q, modulus_bits + 4, modulus_bits).mu
    if operation == "axpy":
        scalars["a"] = q - 1
    return scalars


@pytest.mark.parametrize(
    "bits, multiplication, word_bits, operations",
    BLAS_CASES,
    ids=[f"{bits}{m[0]}w{w}" for bits, m, w, _ in BLAS_CASES],
)
def test_blas_matches_python_exec_and_bigints(
    session, monkeypatch, bits, multiplication, word_bits, operations
):
    config = KernelConfig(bits=bits, word_bits=word_bits, multiplication=multiplication)
    for lanes in _native_paths(monkeypatch):
        rng = random.Random(bits * word_bits)
        for operation in operations:
            reference = compile_blas_kernel(operation, config, session=session)
            built = native.compile_native(reference.kernel)
            assert built.lanes == lanes
            for q in _moduli(config, rng):
                x, y = _operands(q, word_bits, rng)
                scalars = _scalars(operation, config, q)
                expected = _bigint(operation, x, y, scalars)
                assert built.batch({"x": x, "y": y}, scalars)["z"] == expected, (lanes, operation, q)
                assert [reference(x=a, y=b, **scalars)["z"] for a, b in zip(x, y)] == expected


#: Vector lengths around the lane count: partial last groups of every size
#: class, one full group, and several groups plus a remainder.
LENGTHS = (1, 7, 8, 9, 17, 1029)
#: (bits, word_bits, operation) of the partial-group kernels: both word
#: widths, a pruned container (384 bits) and a uniform scalar (axpy).
LENGTH_CASES = [(128, 64, "vmul"), (128, 32, "vmul"), (384, 64, "axpy"), (256, 32, "vsub")]


@pytest.mark.parametrize(
    "bits, word_bits, operation", LENGTH_CASES, ids=[f"{o}{b}w{w}" for b, w, o in LENGTH_CASES]
)
def test_partial_lane_groups(session, monkeypatch, bits, word_bits, operation):
    config = KernelConfig(bits=bits, word_bits=word_bits)
    reference = compile_blas_kernel(operation, config, session=session)
    q = _moduli(config, random.Random(0))[1]
    scalars = _scalars(operation, config, q)
    for lanes in _native_paths(monkeypatch):
        built = native.compile_native(reference.kernel)
        rng = random.Random(bits + word_bits)
        for length in LENGTHS:
            x = [rng.randrange(q) for _ in range(length)]
            y = [rng.randrange(q) for _ in range(length)]
            expected = _bigint(operation, x, y, scalars)
            assert built.batch({"x": x, "y": y}, scalars)["z"] == expected, (lanes, length)
            few = slice(0, min(length, 40))
            reference_z = [reference(x=a, y=b, **scalars)["z"] for a, b in zip(x[few], y[few])]
            assert reference_z == expected[few]


def _check_round_trips(session, monkeypatch, size, config):
    """Forward and inverse on each native path against bigints and the
    python_exec butterfly."""
    for lanes in _native_paths(monkeypatch):
        transform = GeneratedNTT(size, config, session=session)
        assert transform.backend == "native" and transform._native.lanes == lanes
        q = transform.modulus
        rng = random.Random(size + config.bits)
        values = ([0, 1, q - 1] + [rng.randrange(q) for _ in range(size)])[:size]
        kernel = transform.compiled_kernel

        def butterfly(x, y, twiddle, plan):
            out = kernel(x=x, y=y, w=twiddle, q=plan.modulus, mu=plan.mu)
            return out["x_out"], out["y_out"]

        spectrum = transform.forward(values)
        assert spectrum == ntt_forward(values, transform.plan), lanes
        assert spectrum == ntt_forward(values, transform.plan, butterfly)
        assert transform.inverse(spectrum) == values, lanes
        assert transform.inverse(values) == ntt_inverse(values, transform.plan, butterfly)


@pytest.mark.parametrize("bits", [128, 384])
@pytest.mark.parametrize("size", [2, 4, 8, 16, 256])
def test_ntt_round_trips_match_python_exec(session, monkeypatch, bits, size):
    """Sizes 2, 4 and 8 have fewer butterflies per stage than lanes; 384
    bits prunes the top limbs of its container."""
    _check_round_trips(session, monkeypatch, size, KernelConfig(bits=bits))


#: (bits, size, configuration) of the other butterflies the transform runs:
#: 768 bits, the Karatsuba butterfly and 32-bit words.
NTT_CASES = [
    (768, 16, {}),
    (256, 16, {"multiplication": "karatsuba"}),
    (128, 32, {"word_bits": 32}),
    (384, 8, {"word_bits": 32}),
]


@pytest.mark.parametrize(
    "bits, size, options",
    NTT_CASES,
    ids=[f"{b}n{n}" + "".join(f"-{v}" for v in o.values()) for b, n, o in NTT_CASES],
)
def test_ntt_round_trips_at_other_configurations(session, monkeypatch, bits, size, options):
    _check_round_trips(session, monkeypatch, size, KernelConfig(bits=bits, **options))


def _shapes_kernel(word_bits):
    """A legalized kernel of three one-limb parameters whose statements take
    the machine-legal shapes the frontends rarely or never emit: flags added,
    compared and selected; a carry word above a three-word sum; two-word
    shifts across, beyond and into the word boundary; a flag in a shifted
    group; a word condition; constants on either side."""
    word, flag = IntType(word_bits), u1
    a, b, c = (Var(name, word) for name in "abc")
    names = iter(range(1000))
    body, outputs = [], []

    def group(operand):
        """A part, an int (a word constant) or a tuple of them."""
        parts = operand if isinstance(operand, tuple) else (operand,)
        return Group(tuple(part if isinstance(part, Var) else Const(part, word) for part in parts))

    def emit(op, dest_types, *operands, keep=True, **attrs):
        dests = tuple(Var(f"v{next(names)}", kind) for kind in dest_types)
        body.append(Statement(op, Group(dests), [group(operand) for operand in operands], attrs))
        if keep:
            outputs.extend(dests)
        return dests if len(dests) > 1 else dests[0]

    # Outputs are never read back (the c99 unit writes them through pointers).
    f1 = emit(OpKind.LT, [flag], a, b, keep=False)
    f2 = emit(OpKind.EQ, [flag], b, c, keep=False)
    f3 = emit(OpKind.LE, [flag], c, a, keep=False)
    emit(OpKind.MOV, [word], f1)
    emit(OpKind.MOV, [flag], f3)
    emit(OpKind.ADD, [flag, word], a, b, f1)
    emit(OpKind.ADD, [word, word], a, b, c)
    emit(OpKind.ADD, [flag, word], f1, f2)
    emit(OpKind.ADD, [word], f1, f2, f3)
    emit(OpKind.ADD, [flag, word], a, 7)
    emit(OpKind.SUB, [flag, word], a, b, f2)
    emit(OpKind.SUB, [flag, word], 3, b, f1)
    emit(OpKind.SUB, [word], a, b, c)
    emit(OpKind.SUB, [flag], f1, f2, f3)
    emit(OpKind.SUB, [flag], a, b)
    high_a = emit(OpKind.SHR, [word], a, amount=word_bits // 2 + 8, keep=False)
    high_b = emit(OpKind.SHR, [word], b, amount=word_bits // 2 + 8, keep=False)
    emit(OpKind.MUL, [word], high_a, high_b)
    emit(OpKind.MUL, [word, word], a, b)
    emit(OpKind.MULLO, [word], a, b)
    emit(OpKind.SHR, [word, word], (a, b), amount=5)
    emit(OpKind.SHR, [word], (a, b), amount=word_bits + 7)
    emit(OpKind.SHR, [word], (a, b), amount=word_bits)
    emit(OpKind.SHL, [word, word], (a, b), amount=word_bits + 6)
    emit(OpKind.SHL, [word, word], a, amount=3)
    emit(OpKind.SHL, [word], (a, b), amount=3)
    emit(OpKind.SHR, [word], (f1, a), amount=1)
    emit(OpKind.NOT, [word], a)
    emit(OpKind.NOT, [flag], f1)
    emit(OpKind.OR, [word], a, b)
    emit(OpKind.AND, [flag], f1, f2)
    emit(OpKind.OR, [flag], f3, f1)
    emit(OpKind.EQ, [flag], f1, f3)
    emit(OpKind.SELECT, [word], f1, a, b)
    emit(OpKind.SELECT, [word], c, a, 5)
    emit(OpKind.SELECT, [flag], f2, f1, f3)
    emit(OpKind.MOV, [flag, word], a)
    emit(OpKind.MOV, [word], f2)
    emit(OpKind.MOV, [flag], 1)
    # Wrapping results read back: a 32-bit word must not keep bits above 32.
    for op, operands, attrs in [
        (OpKind.NOT, (a,), {}),
        (OpKind.SUB, (a, b, c), {}),
        (OpKind.MULLO, (a, b), {}),
        (OpKind.SHL, (a,), {"amount": 3}),
    ]:
        emit(OpKind.SHR, [word], emit(op, [word], *operands, keep=False, **attrs), amount=1)
    layout = lambda variables: {var.name: [var.name] for var in variables}  # noqa: E731
    return Kernel(
        f"shapes_w{word_bits}",
        [a, b, c],
        outputs,
        body,
        {
            "word_bits": word_bits,
            "param_layout": layout([a, b, c]),
            "output_layout": layout(outputs),
            "original_params": [(name, word_bits, None) for name in "abc"],
        },
    )


@pytest.mark.parametrize("word_bits", [64, 32])
def test_every_statement_shape_matches_python_exec(monkeypatch, word_bits):
    kernel = _shapes_kernel(word_bits)
    reference = compile_kernel(kernel)
    rng = random.Random(word_bits)
    top = (1 << word_bits) - 1
    words = [0, 1, 2, 5, 7, top - 1, top, 1 << (word_bits - 1)]
    triples = [(x, y, z) for x in words for y in words for z in words[::3]]
    triples += [tuple(rng.randrange(top + 1) for _ in range(3)) for _ in range(40)]
    a, b, c = (list(column) for column in zip(*triples))
    expected = [reference.call_limbs(*triple) for triple in triples]
    for lanes in _native_paths(monkeypatch):
        got = native.compile_native(kernel).batch({"a": a, "b": b, "c": c}, {})
        for index, output in enumerate(kernel.outputs):
            assert got[output.name] == [row[index] for row in expected], (lanes, output.name)


@pytest.mark.parametrize("size", [2, 8, 64])
def test_transform_scales_in_c(session, monkeypatch, size):
    """The transform's scale multiplies every output by one value."""
    rng = random.Random(size)
    for lanes in _native_paths(monkeypatch):
        transform = GeneratedNTT(size, KernelConfig(bits=128), session=session)
        built, plan = transform._native, transform.plan
        values = [rng.randrange(plan.modulus) for _ in range(size)]
        factor = rng.randrange(plan.modulus)
        order = array("q", bit_reverse_permutation(size))
        twiddles = built.pack("w", plan.forward_twiddles())
        scalars = {"q": plan.modulus, "mu": plan.mu}
        scaled = built.transform(values, order, twiddles, scalars, plan.modulus, built.pack("w", [factor]))
        expected = [value * factor % plan.modulus for value in ntt_forward(values, plan)]
        assert scaled == expected, lanes
        with pytest.raises(CodegenError, match="scale"):
            built.transform(values, order, twiddles, scalars, plan.modulus, built.pack("w", [1, 2]))


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


class TestModulusConstants:
    """Each kernel keeps its modulus constants (Barrett mu, uniform limbs,
    the packed bound) across calls: a different modulus, a refused one or a
    concurrent caller must never be served another's."""

    CONFIG = KernelConfig(bits=128)

    def _moduli(self):
        bits = self.CONFIG.effective_modulus_bits
        rng = random.Random(5)
        return [rng.randrange(1 << (bits - 1), 1 << bits) | 1 for _ in range(2)]

    def test_alternating_moduli_match_bigints(self, session):
        engine = MomaBlasEngine(self.CONFIG, session=session)
        q1, q2 = self._moduli()
        rng = random.Random(6)
        for q in (q1, q2, q1, q2):
            x, y = _operands(q, 64, rng)
            assert engine.vmul(x, y, q) == _bigint("vmul", x, y, {"q": q}), q
            assert engine.axpy(q - 2, x, y, q) == _bigint("axpy", x, y, {"q": q, "a": q - 2}), q
            assert engine.vadd(x, y, q) == _bigint("vadd", x, y, {"q": q}), q

    def test_one_transform_kernel_alternates_moduli(self, session):
        plans = [make_plan(16, self.CONFIG.effective_modulus_bits, seed=seed) for seed in (0, 1000)]
        assert plans[0].modulus != plans[1].modulus
        built = GeneratedNTT(16, self.CONFIG, plan=plans[0], session=session)._native
        order = array("q", bit_reverse_permutation(16))
        rng = random.Random(7)
        for plan in (*plans, *plans):
            values = [rng.randrange(plan.modulus) for _ in range(16)]
            scalars = {"q": plan.modulus, "mu": plan.mu}
            forward = built.transform(
                values, order, built.pack("w", plan.forward_twiddles()), scalars, plan.modulus
            )
            assert forward == ntt_forward(values, plan)
            inverse = built.transform(
                forward,
                order,
                built.pack("w", plan.inverse_twiddles()),
                scalars,
                plan.modulus,
                built.pack("w", [plan.size_inverse]),
            )
            assert inverse == values == ntt_inverse(forward, plan)

    def test_a_refused_modulus_is_refused_on_every_call(self, session):
        engine = MomaBlasEngine(self.CONFIG, session=session)
        q, _ = self._moduli()
        x, y = [0, 1, q - 1], [q - 1, 1, 0]
        wide = (1 << 130) + 1
        for operation, error in [
            ("vadd", CodegenError),
            ("vsub", CodegenError),
            ("vmul", ArithmeticDomainError),
            ("axpy", ArithmeticDomainError),
        ]:

            def call(modulus):
                if operation == "axpy":
                    return engine.axpy(1, x, y, modulus)
                return getattr(engine, operation)(x, y, modulus)

            for refused, raised in [(wide, error), (2, ArithmeticDomainError)]:
                for _ in range(3):
                    with pytest.raises(raised):
                        call(refused)
                assert call(q) == _bigint(operation, x, y, {"q": q, "a": 1}), (operation, refused)
                with pytest.raises(raised):
                    call(refused)

    def test_a_refused_scalar_or_bound_is_refused_on_every_call(self, session):
        built = MomaBlasEngine(self.CONFIG, session=session)._native["vadd"]
        q, _ = self._moduli()
        for _ in range(3):
            for scalars, bound in [({"q": q + 0.0}, q), ({"q": -q}, q), ({"q": q}, -q), ({"q": q}, 1.5)]:
                with pytest.raises(CodegenError):
                    built.batch({"x": [1], "y": [2]}, scalars, bound)
            assert built.batch({"x": [1], "y": [2]}, {"q": q}, q)["z"] == [3]

    def test_threads_alternating_moduli_match_bigints(self, session):
        engine = MomaBlasEngine(self.CONFIG, session=session)
        moduli = self._moduli()
        operands = {}
        for q in moduli:
            x, y = _operands(q, 64, random.Random(q))
            operands[q] = (x, y, _bigint("vmul", x, y, {"q": q}), _bigint("axpy", x, y, {"q": q, "a": 3}))
        barrier = threading.Barrier(4)
        errors = []

        def alternate(first):
            try:
                barrier.wait(timeout=10)
                for step in range(200):
                    q = moduli[(first + step) % 2]
                    x, y, product, scaled = operands[q]
                    if engine.vmul(x, y, q) != product or engine.axpy(3, x, y, q) != scaled:
                        errors.append((first, step, q))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=alternate, args=(index % 2,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


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
    # The include directory is read once per process; read it afresh here.
    monkeypatch.setattr(native, "_python_headers", native._python_headers.__wrapped__)
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


class _Int(int):
    """An ``int`` subclass: packed like the ``int`` it is."""


#: Every limb count the engines pack (up to 1,024 bits), at each word width.
LIMB_CASES = [(64, limbs) for limbs in range(1, 17)] + [(32, limbs) for limbs in range(1, 33)]


@pytest.fixture(scope="module")
def helpers(session):
    """A library per word width: its conversion helper packs any limb count."""
    return {
        word_bits: native.compile_native(
            compile_blas_kernel("vadd", KernelConfig(bits=128, word_bits=word_bits), session=session).kernel
        )
        for word_bits in (64, 32)
    }


def _digit_and_word_edges(word_bits, limbs):
    """0, 1 and the values either side of every digit boundary (2^(s*k),
    for the interpreter's digit width s) and every word boundary (2^(w*k))
    that ``limbs`` words hold, all-ones included."""
    top = word_bits * limbs
    shift = sys.int_info.bits_per_digit
    powers = {0, 1} | {shift * k for k in range(1, top // shift + 1)}
    powers |= {word_bits * k for k in range(1, limbs + 1)}
    return sorted({value for power in powers for value in ((1 << power) - 1, 1 << power) if value < 1 << top})


def _from_words(words, word_bits):
    """The int whose words are ``words``, most significant first."""
    return int.from_bytes(b"".join(word.to_bytes(word_bits // 8, "big") for word in words), "big")


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

    @pytest.mark.parametrize("word_bits, limbs", LIMB_CASES, ids=[f"w{w}x{k}" for w, k in LIMB_CASES])
    def test_digit_and_word_edges_at_every_limb_count(self, helpers, word_bits, limbs):
        built = helpers[word_bits]
        edges = _digit_and_word_edges(word_bits, limbs)
        values = [*edges, True, False, _Int(5), _Int((1 << word_bits * limbs) - 1)]
        data = built._pack(values, limbs)
        assert data.tolist() == [limb for value in values for limb in _limbs(value, limbs, word_bits)]
        unpacked = built._unpack(data, limbs)
        assert unpacked == values and {type(value) for value in unpacked} == {int}
        # Each edge as a bound: itself refused, one below accepted.
        for bound in edges[1:]:
            assert built._pack([bound - 1], limbs, bound).tolist() == _limbs(bound - 1, limbs, word_bits)
            with pytest.raises(CodegenError, match=r"^element 1 = "):
                built._pack([0, bound], limbs, bound)
        too_wide = 1 << word_bits * limbs
        for bad in (too_wide, too_wide + 1, (too_wide << 1) - 1, -1, -too_wide, _Int(-1)):
            with pytest.raises(CodegenError, match=r"^element 2 = "):
                built._pack([0, 1, bad], limbs)

    @pytest.mark.parametrize("word_bits, limbs", LIMB_CASES, ids=[f"w{w}x{k}" for w, k in LIMB_CASES])
    def test_raw_words_unpack_like_int_from_bytes(self, helpers, word_bits, limbs):
        built = helpers[word_bits]
        ones, top_bit = (1 << word_bits) - 1, 1 << (word_bits - 1)
        rng = random.Random(word_bits * limbs)
        patterns = [
            [0] * limbs,
            [ones] * limbs,
            [top_bit] + [0] * (limbs - 1),
            [top_bit] * limbs,
            *([0] * zeros + [rng.getrandbits(word_bits) | 1] * (limbs - zeros) for zeros in range(limbs)),
            *([rng.getrandbits(word_bits) for _ in range(limbs)] for _ in range(8)),
        ]
        data = array(built._typecode, [word for pattern in patterns for word in pattern])
        assert built._unpack(data, limbs) == [_from_words(pattern, word_bits) for pattern in patterns]

    @pytest.mark.parametrize("word_bits", [64, 32])
    def test_a_gather_order_packs_the_permuted_values(self, helpers, word_bits):
        built = helpers[word_bits]
        rng = random.Random(word_bits)
        for limbs in (1, 3, 12):
            values = [rng.getrandbits(word_bits * limbs) for _ in range(33)]
            order = list(range(len(values)))
            rng.shuffle(order)
            data = built._pack(values, limbs, None, array("q", order))
            assert built._unpack(data, limbs) == [values[index] for index in order]
            bound = max(values)
            with pytest.raises(CodegenError, match=rf"^element {values.index(bound)} = "):
                built._pack(values, limbs, bound, array("q", order))

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

    def test_a_kernel_built_again_is_neither_emitted_nor_hashed(self, monkeypatch):
        """A second engine over a session's cached kernels reuses their
        libraries: no C unit is emitted and no source is hashed."""
        session, config = CompilerSession(), KernelConfig(bits=128)
        emitted, hashed = [], []
        for name in ("generate_lanes", "generate_c99", "generate_transform_function"):
            emit = getattr(native, name)
            monkeypatch.setattr(
                native, name, lambda *args, _emit=emit, **kwargs: emitted.append(1) or _emit(*args, **kwargs)
            )
        load = native._load
        monkeypatch.setattr(
            native,
            "_load",
            lambda source, *args: (source != native._CONVERTER_SOURCE and hashed.append(1)) or load(source, *args),
        )
        MomaBlasEngine(config, session=session)
        GeneratedNTT(16, config, session=session)
        assert len(emitted) >= 5 and len(hashed) == 5  # four BLAS kernels and the butterfly
        del emitted[:], hashed[:]
        engine = MomaBlasEngine(config, session=session)
        transform = GeneratedNTT(16, config, session=session)
        assert (emitted, hashed) == ([], [])
        q = transform.modulus
        assert engine.vmul([q - 1, 2], [q - 1, 3], q) == [1, 6]
        assert transform.inverse(transform.forward(list(range(16)))) == list(range(16))

    def test_a_dead_kernel_leaves_no_entry(self):
        kernel = compile_blas_kernel("vadd", KernelConfig(bits=128), session=CompilerSession()).kernel
        _check_vadd(native.compile_native(kernel))
        key = id(kernel)
        assert key in [entry for entry, _ in native._BUILT]
        del kernel
        gc.collect()
        assert key not in [entry for entry, _ in native._BUILT]

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

    @pytest.mark.skipif(not HAS_LANES, reason="this host's CPU lacks AVX-512F or AVX-512DQ")
    def test_lane_and_scalar_builds_are_two_entries(self, private_cache, small_kernel, monkeypatch):
        compiles = _count_compiles(monkeypatch)
        lanes = native.compile_native(small_kernel)
        monkeypatch.setattr(native, "_host_lanes", lambda: 1)
        scalar = native.compile_native(small_kernel)
        assert (lanes.lanes, scalar.lanes) == (LANES, 1)
        assert sorted(compiles) == ["converter", "kernel", "kernel"]
        kernels, converters = _entries(private_cache)
        assert (len(kernels), len(converters)) == (2, 1)
        _check_vadd(lanes)
        _check_vadd(scalar)

    def test_lanes_is_read_only(self, small_kernel, monkeypatch):
        for lanes in _native_paths(monkeypatch):
            built = native.compile_native(small_kernel)
            assert built.lanes == lanes
            with pytest.raises(AttributeError):
                built.lanes = 4

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


# -- the CPU probe ---------------------------------------------------------------


class TestCpuProbe:
    @pytest.fixture(autouse=True)
    def fresh_probe(self):
        native._host_lanes.cache_clear()
        yield
        native._host_lanes.cache_clear()

    @staticmethod
    def _cpuinfo(tmp_path, monkeypatch, flags):
        """A cpuinfo whose first processor lists ``flags``; the second lists none."""
        info = tmp_path / "cpuinfo"
        info.write_text(
            "processor\t: 0\n"
            f"flags\t\t: fpu sse2 {flags}\n\n"
            "processor\t: 1\n"
            "flags\t\t: fpu\n"
        )
        monkeypatch.setattr(native, "_CPUINFO", str(info))
        return info

    @staticmethod
    def _count_opens(monkeypatch):
        """The files the native module opens from now on."""
        opened = []

        def counting(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(native, "open", counting, raising=False)
        return opened

    def test_reads_cpuinfo_once_without_a_process(self, tmp_path, monkeypatch):
        info = self._cpuinfo(tmp_path, monkeypatch, "avx512f avx512dq")
        opened = self._count_opens(monkeypatch)
        monkeypatch.setattr(subprocess, "Popen", _no_process)
        assert [native._host_lanes() for _ in range(3)] == [LANES] * 3
        assert opened == [str(info)]

    def test_concurrent_first_builds_read_cpuinfo_once(
        self, private_cache, small_kernel, tmp_path, monkeypatch
    ):
        info = self._cpuinfo(tmp_path, monkeypatch, "avx512f avx512dq" if HAS_LANES else "")
        opened = self._count_opens(monkeypatch)
        barrier = threading.Barrier(4)
        built = []

        def build():
            barrier.wait(timeout=10)
            built.append(native.compile_native(small_kernel).lanes)

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert built == [LANES if HAS_LANES else 1] * 4
        assert opened == [str(info)]

    @pytest.mark.parametrize("flags", ["avx512f", "avx512dq", "avx2 avx512ifma", ""])
    def test_a_missing_feature_means_one_lane(self, tmp_path, monkeypatch, flags):
        self._cpuinfo(tmp_path, monkeypatch, flags)
        assert native._host_lanes() == 1

    def test_host_without_cpuinfo_gets_the_scalar_build(
        self, private_cache, small_kernel, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(native, "_CPUINFO", str(tmp_path / "absent"))
        monkeypatch.setattr(native, "_LOADED", {})
        built = native.compile_native(small_kernel)
        assert built.lanes == 1
        _check_vadd(built)
