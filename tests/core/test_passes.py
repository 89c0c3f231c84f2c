"""Tests for the optimization passes (folding, simplify, copy-prop, CSE, DCE)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codegen.python_exec import compile_kernel
from repro.core.ir.builder import KernelBuilder
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group, Var
from repro.core.ir.types import IntType, u64
from repro.core.ir.fingerprint import body_signature, kernel_signature
from repro.core.ir.interp import interpret
from repro.core.passes import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_PIPELINE,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    optimize,
    propagate_copies,
    run_pipeline,
    simplify,
)
from repro.core.rewrite.legalize import legalize
from repro.core.rewrite.options import RewriteOptions
from repro.errors import IRError
from repro.kernels import KernelConfig, build_blas_kernel, build_butterfly_kernel


def op_histogram(kernel):
    counts = {}
    for statement in kernel.body:
        counts[statement.op] = counts.get(statement.op, 0) + 1
    return counts


def optimize_counting_rounds(kernel, pipeline=DEFAULT_PIPELINE):
    """``optimize(kernel)`` and the number of rounds it ran."""
    rounds = set()
    optimized = optimize(
        kernel, pipeline=pipeline, observer=lambda name, round_index, *_: rounds.add(round_index)
    )
    return optimized, len(rounds)


def optimize_structurally(kernel):
    """The reference for ``optimize``'s fixed point: the default pipeline
    iterated until :func:`body_signature` repeats, and the rounds it ran."""
    previous = body_signature(kernel)
    for round_index in range(DEFAULT_MAX_ROUNDS):
        kernel = run_pipeline(kernel, DEFAULT_PIPELINE)
        signature = body_signature(kernel)
        if signature == previous:
            break
        previous = signature
    return kernel, round_index + 1


def read_undefined(kernel):
    """A broken pass: prepends a copy of a variable nothing defines."""
    dangling = Statement(OpKind.MOV, Group((Var("dangling", u64),)), (Group((Var("ghost", u64),)),))
    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        outputs=list(kernel.outputs),
        body=[dangling, *kernel.body],
        metadata=dict(kernel.metadata),
    )


def fold_rebuilding_movs(kernel):
    """``fold_constants`` without its ``mov`` guard: each output's ``mov`` of
    a constant comes back as a new, equal statement."""
    folded = fold_constants(kernel)
    body = [
        Statement(s.op, s.dests, s.operands, dict(s.attrs))
        if s.op is OpKind.MOV and isinstance(s.operands[0].parts[0], Const)
        else s
        for s in folded.body
    ]
    return Kernel(
        name=folded.name,
        params=folded.params,
        outputs=folded.outputs,
        body=body,
        metadata=folded.metadata,
    )


@pytest.fixture(scope="module", params=["ct-384", "vmul-320-w32-karatsuba"])
def optimized_kernel(request):
    """An optimized kernel: the 384-bit butterfly (limb pruning) and a
    Karatsuba ``vmul`` that takes five rounds to converge."""
    if request.param == "ct-384":
        config = KernelConfig(bits=384)
        wide = build_butterfly_kernel(config)
    else:
        config = KernelConfig(bits=320, word_bits=32, multiplication="karatsuba")
        wide = build_blas_kernel("vmul", config)
    return optimize(legalize(wide, config.rewrite_options()))


class TestConstantFolding:
    def test_fully_constant_chain_collapses(self):
        builder = KernelBuilder("fold")
        a = builder.constant(7, 64)
        b = builder.constant(9, 64)
        total = builder.add(a, b, result_bits=64)
        product = builder.mul(total, builder.constant(3, 64))
        builder.output("z", product)
        kernel = builder.build()
        folded = fold_constants(kernel)
        # Only the output mov should survive, carrying the constant 48.
        movs = [s for s in folded.body if s.op is OpKind.MOV]
        assert len(folded.body) == len(movs)
        compiled_value = [
            part.value
            for statement in movs
            for part in statement.operands[0]
            if isinstance(part, Const)
        ]
        assert (16 * 3) in compiled_value or 48 in compiled_value

    def test_folding_preserves_semantics_on_pruned_kernel(self):
        builder = KernelBuilder("pruned")
        x = builder.param("x", 256, 130)
        y = builder.param("y", 256, 130)
        q = builder.param("q", 256, 130)
        builder.output("z", builder.addmod(x, y, q))
        legalized = legalize(builder.build(), RewriteOptions(word_bits=64))
        folded = fold_constants(legalized)
        compiled = compile_kernel(folded)
        q_value = (1 << 130) - 5
        assert compiled(x=q_value - 1, y=q_value - 2, q=q_value)["z"] == (2 * q_value - 3) % q_value

    def test_constant_comparison_folds(self):
        builder = KernelBuilder("cmp")
        flag = builder.compare(OpKind.LT, builder.constant(3, 64), builder.constant(5, 64))
        builder.output("z", builder.select(flag, builder.constant(1, 64), builder.constant(0, 64)))
        folded = fold_constants(builder.build())
        assert all(s.op is OpKind.MOV for s in folded.body)


class TestSimplify:
    def test_add_zero_becomes_mov(self):
        builder = KernelBuilder("s")
        x = builder.param("x", 64)
        builder.output("z", builder.add(x, builder.constant(0, 64), result_bits=64))
        simplified = simplify(builder.build())
        assert op_histogram(simplified).get(OpKind.ADD, 0) == 0

    def test_mul_by_zero_and_one(self):
        builder = KernelBuilder("s2")
        x = builder.param("x", 64)
        zero_product = builder.mul(x, builder.constant(0, 64))
        one_product = builder.mul(x, builder.constant(1, 64))
        builder.output("a", zero_product)
        builder.output("b", one_product)
        simplified = simplify(builder.build())
        assert op_histogram(simplified).get(OpKind.MUL, 0) == 0

    def test_select_with_constant_condition(self):
        builder = KernelBuilder("s3")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        builder.output("z", builder.select(builder.constant(1, 1), x, y))
        simplified = simplify(builder.build())
        assert op_histogram(simplified).get(OpKind.SELECT, 0) == 0

    def test_or_with_zero(self):
        builder = KernelBuilder("s4")
        x = builder.param("x", 1)
        flag = builder.logic if hasattr(builder, "logic") else None
        # Build the OR statement directly through emit.
        dest = builder.fresh(1, "f")
        builder.emit(OpKind.OR, dest, [x, builder.constant(0, 1)])
        builder.output("z", dest)
        simplified = simplify(builder.build())
        assert op_histogram(simplified).get(OpKind.OR, 0) == 0

    def test_semantics_preserved(self):
        builder = KernelBuilder("s5")
        x = builder.param("x", 128)
        y = builder.param("y", 128)
        q = builder.param("q", 128)
        builder.output("z", builder.addmod(x, y, q))
        legalized = legalize(builder.build(), RewriteOptions(word_bits=64))
        optimized = optimize(legalized)
        compiled_raw = compile_kernel(legalized)
        compiled_opt = compile_kernel(optimized)
        q_value = (1 << 124) - 59
        for a, b in [(1, 2), (q_value - 1, q_value - 1), (0, 0), (q_value // 2, q_value // 2 + 1)]:
            assert compiled_raw(x=a, y=b, q=q_value) == compiled_opt(x=a, y=b, q=q_value)


class TestCopyPropagationAndDCE:
    def test_copies_forwarded_and_removed(self):
        builder = KernelBuilder("cp")
        x = builder.param("x", 64)
        copy1 = builder.mov(x)
        copy2 = builder.mov(copy1)
        builder.output("z", builder.add(copy2, copy2, result_bits=128))
        kernel = builder.build()
        cleaned = eliminate_dead_code(propagate_copies(kernel))
        # Both intermediate copies should be gone; the add reads x directly.
        assert op_histogram(cleaned).get(OpKind.MOV, 0) == 1  # only the output mov
        add = next(s for s in cleaned.body if s.op is OpKind.ADD)
        assert {part.name for group in add.operands for part in group.variables()} == {"x"}

    def test_output_copies_never_dropped(self):
        builder = KernelBuilder("cp2")
        x = builder.param("x", 64)
        builder.output("z", builder.mov(x))
        cleaned = eliminate_dead_code(propagate_copies(builder.build()))
        assert [o.name for o in cleaned.outputs] == ["z"]
        assert any("z" in [d.name for d in s.defined_vars()] for s in cleaned.body)

    def test_dce_removes_unused_computation(self):
        builder = KernelBuilder("dce")
        x = builder.param("x", 64)
        builder.mul(x, x)  # dead
        builder.output("z", builder.mov(x))
        cleaned = eliminate_dead_code(builder.build())
        assert op_histogram(cleaned).get(OpKind.MUL, 0) == 0

    def test_dce_keeps_partially_used_destinations(self):
        builder = KernelBuilder("dce2")
        x = builder.param("x", 64)
        hi = builder.fresh(64, "hi")
        lo = builder.fresh(64, "lo")
        builder.emit(OpKind.MUL, Group((hi, lo)), [x, x])
        builder.output("z", builder.mov(lo))
        cleaned = eliminate_dead_code(builder.build())
        assert op_histogram(cleaned).get(OpKind.MUL, 0) == 1


class TestCSE:
    def test_duplicate_comparisons_merged(self):
        builder = KernelBuilder("cse")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        first = builder.compare(OpKind.LT, x, y)
        second = builder.compare(OpKind.LT, x, y)
        builder.output("a", first)
        builder.output("b", second)
        deduplicated = eliminate_common_subexpressions(builder.build())
        assert op_histogram(deduplicated)[OpKind.LT] == 1

    def test_different_operands_not_merged(self):
        builder = KernelBuilder("cse2")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        builder.output("a", builder.compare(OpKind.LT, x, y))
        builder.output("b", builder.compare(OpKind.LT, y, x))
        deduplicated = eliminate_common_subexpressions(builder.build())
        assert op_histogram(deduplicated)[OpKind.LT] == 2

    def test_duplicate_chain_collapses_in_one_call(self):
        # u2 duplicates u1 only once t2 is known to be t1: both links of the
        # chain must merge in the same walk, with no copy propagation between.
        builder = KernelBuilder("cse_chain")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        z = builder.param("z", 1)
        ands = []
        for _ in range(2):
            flag = builder.compare(OpKind.LT, x, y)
            both = builder.fresh(1, "u")
            builder.emit(OpKind.AND, both, [flag, z])
            ands.append(both)
        builder.output("a", ands[0])
        builder.output("b", ands[1])
        deduplicated = eliminate_common_subexpressions(builder.build())
        assert op_histogram(deduplicated) == {OpKind.LT: 1, OpKind.AND: 1, OpKind.MOV: 2}
        assert interpret(deduplicated, {"x": 1, "y": 2, "z": 1}) == {"a": 1, "b": 1}
        assert interpret(deduplicated, {"x": 2, "y": 1, "z": 1}) == {"a": 0, "b": 0}

    def test_output_duplicates_keep_their_mov(self):
        builder = KernelBuilder("cse_out")
        x = builder.param("x", 64)
        y = builder.param("y", 64)
        first = builder.compare(OpKind.LT, x, y)
        second = builder.fresh(1, "flag")
        builder.emit(OpKind.LT, second, [x, y])
        kernel = builder.build()
        kernel.outputs = [first, second]
        deduplicated = eliminate_common_subexpressions(kernel)
        assert op_histogram(deduplicated) == {OpKind.LT: 1, OpKind.MOV: 1}
        assert interpret(deduplicated, {"x": 1, "y": 2}) == {first.name: 1, second.name: 1}

    def test_shift_attrs_distinguish(self):
        builder = KernelBuilder("cse3")
        x = builder.param("x", 64)
        builder.output("a", builder.shr(x, 3, 64))
        builder.output("b", builder.shr(x, 4, 64))
        deduplicated = eliminate_common_subexpressions(builder.build())
        assert op_histogram(deduplicated)[OpKind.SHR] == 2


class TestOptimizePipeline:
    @pytest.mark.parametrize("bits,modulus_bits", [(128, 124), (256, 252), (512, 380)])
    def test_reduces_statement_count_and_preserves_semantics(self, bits, modulus_bits):
        builder = KernelBuilder(f"pipeline_{bits}")
        x = builder.param("x", bits, modulus_bits)
        y = builder.param("y", bits, modulus_bits)
        q = builder.param("q", bits, modulus_bits)
        mu = builder.param("mu", bits)
        builder.output("z", builder.mulmod(x, y, q, mu))
        legalized = legalize(builder.build(), RewriteOptions(word_bits=64))
        optimized = optimize(legalized)
        assert len(optimized.body) < len(legalized.body)
        q_value = (1 << modulus_bits) - 159
        while q_value.bit_length() != modulus_bits or q_value % 2 == 0:
            q_value -= 1
        mu_value = (1 << (2 * modulus_bits + 3)) // q_value
        a, b = q_value - 3, q_value // 5
        raw = compile_kernel(legalized)(x=a, y=b, q=q_value, mu=mu_value)
        opt = compile_kernel(optimized)(x=a, y=b, q=q_value, mu=mu_value)
        assert raw == opt
        assert opt["z"] == (a * b) % q_value

    def test_duplicate_chains_converge_in_two_rounds(self):
        # Rules (24)-(26) leave duplicate comparison chains several links
        # deep; the fixed point must not depend on the round limit.
        config = KernelConfig(bits=768, word_bits=32)
        legalized = legalize(build_blas_kernel("vsub", config), config.rewrite_options())
        assert len(legalized.body) == 682
        optimized, rounds = optimize_counting_rounds(legalized)
        reference = optimize(legalized, max_rounds=64)
        assert len(reference.body) == 255
        assert rounds == 2
        assert [str(s) for s in optimized.body] == [str(s) for s in reference.body]

    def test_idempotent_at_fixed_point(self):
        builder = KernelBuilder("fixed")
        x = builder.param("x", 128, 124)
        y = builder.param("y", 128, 124)
        q = builder.param("q", 128, 124)
        builder.output("z", builder.addmod(x, y, q))
        once = optimize(legalize(builder.build(), RewriteOptions(word_bits=64)))
        twice = optimize(once)
        assert [str(s) for s in once.body] == [str(s) for s in twice.body]

    @pytest.mark.parametrize("optimization", DEFAULT_PIPELINE, ids=lambda p: p.__name__)
    def test_passes_keep_the_statements_of_an_optimized_kernel(self, optimized_kernel, optimization):
        body = optimization(optimized_kernel).body
        assert len(body) == len(optimized_kernel.body)
        assert all(mine is theirs for mine, theirs in zip(body, optimized_kernel.body))

    def test_constant_output_converges_in_two_rounds(self):
        builder = KernelBuilder("constant_output")
        x = builder.param("x", 256)
        five = builder.constant(5, 256)
        builder.output("z", builder.add(five, builder.constant(7, 256), result_bits=256))
        builder.output("w", builder.add(x, five, result_bits=256))
        kernel = builder.build()
        optimized, rounds = optimize_counting_rounds(kernel)
        assert rounds == 2
        assert interpret(optimized, {"x": 9}) == {"z": 12, "w": 14}
        # Without keeping the output's mov, every round differs from the
        # last by one new, equal statement, and the limit stops the loop.
        pipeline = (fold_rebuilding_movs, *DEFAULT_PIPELINE[1:])
        rebuilt, rounds = optimize_counting_rounds(kernel, pipeline)
        assert rounds == DEFAULT_MAX_ROUNDS
        assert kernel_signature(rebuilt) == kernel_signature(optimized)

    def test_optimize_validates_once(self, monkeypatch):
        config = KernelConfig(bits=256)
        legalized = legalize(build_butterfly_kernel(config), config.rewrite_options())
        validated = []
        validate = Kernel.validate

        def counting(kernel):
            validated.append(kernel)
            validate(kernel)

        monkeypatch.setattr(Kernel, "validate", counting)
        optimized, rounds = optimize_counting_rounds(legalized)
        assert rounds == 2
        assert len(validated) == 1 and validated[0] is optimized

    def test_a_pass_breaking_ssa_still_raises(self):
        config = KernelConfig(bits=128)
        legalized = legalize(build_blas_kernel("vadd", config), config.rewrite_options())
        with pytest.raises(IRError, match="undefined variable 'ghost'"):
            optimize(legalized, pipeline=(*DEFAULT_PIPELINE, read_undefined))
        with pytest.raises(IRError, match="undefined variable 'ghost'"):
            run_pipeline(legalized, (read_undefined,))


def _sweep_kernels():
    """Every width x word x multiplication x kernel family (170 kernels)."""
    for bits in (64, 128, 256, 320, 384, 512, 640, 768, 1024):
        for word_bits in (64, 32) if bits <= 768 else (64,):
            for multiplication in ("schoolbook", "karatsuba"):
                config = KernelConfig(
                    bits=bits, word_bits=word_bits, multiplication=multiplication
                )
                operations = ("vmul", "axpy")
                if multiplication == "schoolbook":
                    operations = ("vadd", "vsub") + operations
                for operation in operations:
                    yield pytest.param(
                        config, lambda c=config, o=operation: build_blas_kernel(o, c),
                        id=f"{operation}-{bits}-w{word_bits}-{multiplication}",
                    )
                for variant in ("cooley_tukey", "gentleman_sande"):
                    yield pytest.param(
                        config, lambda c=config, v=variant: build_butterfly_kernel(c, v),
                        id=f"{variant}-{bits}-w{word_bits}-{multiplication}",
                    )


@pytest.mark.slow
@pytest.mark.parametrize("config,build", _sweep_kernels())
def test_every_kernel_reaches_its_fixed_point(config, build):
    legalized = legalize(build(), config.rewrite_options())
    optimized, rounds = optimize_counting_rounds(legalized)
    assert rounds < DEFAULT_MAX_ROUNDS
    assert body_signature(optimize(optimized)) == body_signature(optimized)
    # The identity fixed point stops on the round the structural one does.
    reference, reference_rounds = optimize_structurally(legalized)
    assert rounds == reference_rounds
    assert kernel_signature(optimized) == kernel_signature(reference)
