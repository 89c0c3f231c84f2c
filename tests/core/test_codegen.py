"""Tests for the CUDA, C99 and Python code generators."""

import hashlib

import pytest

from repro.core.codegen.c99 import generate_c99
from repro.core.codegen.common import CTypes
from repro.core.codegen.cuda import generate_cuda
from repro.core.codegen.python_exec import compile_kernel, generate_python_source
from repro.core.driver import CompilerSession
from repro.core.ir.builder import KernelBuilder
from repro.core.ir.interp import interpret
from repro.core.rewrite.legalize import legalize
from repro.core.rewrite.options import RewriteOptions
from repro.errors import CodegenError
from repro.kernels import KernelConfig, build_blas_kernel, build_butterfly_kernel


def butterfly_kernel(bits=256, modulus_bits=252):
    builder = KernelBuilder(f"bf_{bits}")
    x = builder.param("x", bits, modulus_bits)
    y = builder.param("y", bits, modulus_bits)
    w = builder.param("w", bits, modulus_bits)
    q = builder.param("q", bits, modulus_bits)
    mu = builder.param("mu", bits)
    t = builder.mulmod(w, y, q, mu)
    builder.output("x_out", builder.addmod(x, t, q))
    builder.output("y_out", builder.submod(x, t, q))
    builder.metadata(uniform_params=["w", "q", "mu"])
    return builder.build()


@pytest.fixture(scope="module")
def legalized_butterfly():
    return legalize(butterfly_kernel(), RewriteOptions(word_bits=64))


class TestCTypes:
    def test_64_bit_types(self):
        types = CTypes.for_word_bits(64)
        assert types.word == "uint64_t"
        assert types.double == "unsigned __int128"
        assert types.declared(1) == "unsigned int"
        assert types.declared(64) == "uint64_t"

    def test_32_bit_types(self):
        types = CTypes.for_word_bits(32)
        assert types.word == "uint32_t"
        assert types.double == "uint64_t"

    def test_unsupported_width(self):
        with pytest.raises(CodegenError):
            CTypes.for_word_bits(16)
        with pytest.raises(CodegenError):
            CTypes.for_word_bits(64).declared(128)


class TestCudaBackend:
    def test_contains_device_and_global_functions(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly)
        assert "__device__ __forceinline__ void bf_256_scalar(" in source
        assert 'extern "C" __global__ void bf_256(' in source
        assert "blockIdx.x" in source and "threadIdx.x" in source
        assert "unsigned __int128" in source

    def test_uniform_parameters_passed_by_value(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly)
        # Element parameters are pointers; uniform ones are scalars.
        assert "const uint64_t *__restrict__ x" in source
        assert "const uint64_t q_0_0" in source
        assert "const uint64_t *__restrict__ q" not in source

    def test_launcher_uses_1024_thread_blocks(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly)
        assert "threads_per_block = 1024" in source
        assert f"launch_{legalized_butterfly.name}(" in source

    def test_launcher_can_be_omitted(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly, include_launcher=False)
        assert "launch_" not in source

    def test_outputs_stored_per_element(self, legalized_butterfly):
        source = generate_cuda(legalized_butterfly)
        assert "x_out[element * 4 + 0]" in source
        assert "y_out[element * 4 + 3]" in source

    def test_rejects_non_legalized_kernel(self):
        with pytest.raises(CodegenError):
            generate_cuda(butterfly_kernel())

    def test_pruned_kernel_has_smaller_signature(self):
        wide = legalize(butterfly_kernel(512, 508), RewriteOptions(word_bits=64))
        pruned = legalize(butterfly_kernel(512, 380), RewriteOptions(word_bits=64))
        assert generate_cuda(pruned).count("uint64_t x_") < generate_cuda(wide).count("uint64_t x_")


class TestC99Backend:
    def test_scalar_and_batch_functions(self, legalized_butterfly):
        source = generate_c99(legalized_butterfly)
        assert "void bf_256(" in source
        assert "void bf_256_batch(" in source
        assert "#include <stdint.h>" in source

    def test_pointer_outputs(self, legalized_butterfly):
        source = generate_c99(legalized_butterfly)
        assert "uint64_t *x_out_0_0" in source
        assert "*x_out_0_0 =" in source

    def test_batch_can_be_omitted(self, legalized_butterfly):
        source = generate_c99(legalized_butterfly, include_batch=False)
        assert "_batch(" not in source

    def test_rejects_non_legalized_kernel(self):
        with pytest.raises(CodegenError):
            generate_c99(butterfly_kernel())


class TestPythonBackend:
    def test_source_is_valid_python(self, legalized_butterfly):
        source = generate_python_source(legalized_butterfly)
        compile(source, "<test>", "exec")
        assert source.startswith("def ")

    def test_compiled_matches_interpreter(self):
        kernel = butterfly_kernel(128, 124)
        legalized = legalize(kernel, RewriteOptions(word_bits=64))
        compiled = compile_kernel(legalized)
        q = (1 << 124) - 159
        mu = (1 << (2 * 124 + 3)) // q
        inputs = {"x": q - 5, "y": q // 3, "w": q // 7, "q": q, "mu": mu}
        expected = interpret(kernel, inputs)
        assert compiled(**inputs) == expected

    def test_rejects_non_legalized_kernel(self):
        with pytest.raises(CodegenError):
            generate_python_source(butterfly_kernel())

    def test_pack_inputs_validates_range(self):
        kernel = legalize(butterfly_kernel(128, 124), RewriteOptions(word_bits=64))
        compiled = compile_kernel(kernel)
        with pytest.raises(CodegenError):
            compiled(x=-1, y=0, w=0, q=3, mu=1)
        with pytest.raises(CodegenError):
            compiled(x=1 << 127, y=0, w=0, q=3, mu=1)  # exceeds effective bits
        with pytest.raises(CodegenError):
            compiled(x=0, y=0, w=0, q=3)  # missing mu

    def test_pruned_limb_with_nonzero_value_rejected(self):
        builder = KernelBuilder("pruned_input")
        x = builder.param("x", 256, 120)
        q = builder.param("q", 256, 120)
        builder.output("z", builder.addmod(x, x, q))
        legalized = legalize(builder.build(), RewriteOptions(word_bits=64))
        compiled = compile_kernel(legalized)
        assert compiled(x=5, q=11)["z"] == 10
        with pytest.raises(CodegenError):
            compiled(x=1 << 200, q=11)

    def test_call_limbs_direct(self):
        kernel = legalize(butterfly_kernel(128, 124), RewriteOptions(word_bits=64))
        compiled = compile_kernel(kernel)
        q = (1 << 124) - 159
        mu = (1 << (2 * 124 + 3)) // q
        packed = compiled.pack_inputs({"x": 1, "y": 2, "w": 3, "q": q, "mu": mu})
        raw = compiled.call_limbs(*packed)
        assert compiled.unpack_outputs(raw)["x_out"] == 7


# -- pinned emission -------------------------------------------------------------

#: Per configuration and target, the SHA-256 of the sources of ``vadd``,
#: ``vsub``, ``vmul``, ``axpy`` and the Cooley-Tukey and Gentleman-Sande
#: butterflies, concatenated in that order.  Emission is deterministic
#: across interpreters (the same digests on CPython 3.10-3.13), so a change
#: here is a change to the generated code, whatever the compiler's speed.
PINNED_SOURCES = {
    "128": (
        KernelConfig(bits=128),
        {
            "python_exec": "f776c5d06a47e52d0d5698a60e393bb61cc4e88241e969c36580a74c50d2bee1",
            "cuda": "7d301e6d65cd455b210045905ca6cd81b953f454e4b8141a5a264cb104522c96",
        },
    ),
    "384": (
        KernelConfig(bits=384),
        {
            "python_exec": "f79afc1cbc89b9f537d3257ca449d1ca4b9884287a419d5fd06c399a08c86984",
            "cuda": "2ec7c95e4ed64bc35c1b3bdd61bc69fd6ebf33149174fd825cf33d1b95ce7eb8",
        },
    ),
    "256-w32": (
        KernelConfig(bits=256, word_bits=32),
        {
            "python_exec": "22ebc0a9aaffc94e7752eb04bf0b9d455d3872a7b92a85e378bae99a1004a976",
            "cuda": "cb640208b388a37082090aaa5e189906c832289ed8930958c638b9c4215616dc",
        },
    ),
    "256-karatsuba": (
        KernelConfig(bits=256, multiplication="karatsuba"),
        {
            "python_exec": "e617d88b24f59e167ef9327bb1c3ef38279fd76a800c45b8e6029a28a9ca60b8",
            "cuda": "853c771db2956fbfb9d01731fae75c7d4a1cc7ffce8dc852120d0b3f58b77bc3",
        },
    ),
}


@pytest.mark.parametrize("label", PINNED_SOURCES)
def test_emitted_sources_are_pinned(label):
    config, pinned = PINNED_SOURCES[label]
    kernels = [build_blas_kernel(operation, config) for operation in ("vadd", "vsub", "vmul", "axpy")]
    kernels += [build_butterfly_kernel(config, variant) for variant in ("cooley_tukey", "gentleman_sande")]
    session = CompilerSession()
    digests = {}
    for target in pinned:
        digest = hashlib.sha256()
        for kernel in kernels:
            artifact = session.compile(kernel, target=target, options=config.rewrite_options())
            digest.update((artifact if isinstance(artifact, str) else artifact.source).encode())
        digests[target] = digest.hexdigest()
    assert digests == pinned
