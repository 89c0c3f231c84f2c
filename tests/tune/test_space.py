"""Tests for the tuning search space (workloads, candidates, constraints)."""

from dataclasses import replace

import pytest

from repro.core.driver import CompilerSession
from repro.errors import TuningError
from repro.gpu.device import get_device
from repro.kernels import KernelConfig, build_blas_kernel, build_butterfly_kernel
from repro.kernels.ntt_gen import BUTTERFLY_VARIANTS
from repro.tune import Candidate, TuningSpace, Workload, default_candidate, tune_workload


@pytest.fixture
def rtx4090():
    return get_device("rtx4090")


class TestWorkload:
    def test_ntt_key(self):
        workload = Workload(kind="ntt", bits=256, size=4096)
        assert workload.key == "ntt/cooley_tukey/n4096/256b"

    def test_blas_key(self):
        workload = Workload(kind="blas", bits=384, operation="vmul")
        assert workload.key == "blas/vmul/e1048576/384b"

    def test_invalid_kind_rejected(self):
        with pytest.raises(TuningError, match="kind"):
            Workload(kind="fft", bits=256)

    def test_invalid_operation_rejected(self):
        with pytest.raises(TuningError):
            Workload(kind="blas", bits=256, operation="dot")
        with pytest.raises(TuningError):
            Workload(kind="ntt", bits=256, operation="stockham")

    def test_non_power_of_two_size_rejected(self):
        with pytest.raises(TuningError, match="power of two"):
            Workload(kind="ntt", bits=256, size=1000)

    def test_from_kernel_ntt(self):
        kernel = build_butterfly_kernel(KernelConfig(bits=256))
        workload = Workload.from_kernel(kernel)
        assert workload.kind == "ntt"
        assert workload.bits == 256
        assert workload.operation == "cooley_tukey"

    def test_from_kernel_blas(self):
        kernel = build_blas_kernel("axpy", KernelConfig(bits=128))
        workload = Workload.from_kernel(kernel)
        assert (workload.kind, workload.operation, workload.bits) == ("blas", "axpy", 128)

    def test_from_kernel_without_metadata_rejected(self):
        from repro.core.ir.builder import KernelBuilder

        builder = KernelBuilder("bare")
        builder.output("z", builder.param("x", 64, 60))
        with pytest.raises(TuningError, match="metadata"):
            Workload.from_kernel(builder.build())

    def test_fingerprint_is_stable_and_workload_sensitive(self):
        first = Workload(kind="ntt", bits=256).fingerprint()
        second = Workload(kind="ntt", bits=256).fingerprint()
        other = Workload(kind="ntt", bits=384).fingerprint()
        assert first == second
        assert first != other

    def test_default_config_is_paper_default(self):
        config = Workload(kind="ntt", bits=768).default_config()
        assert config.multiplication == "schoolbook"
        assert config.word_bits == 64


class TestCandidate:
    def test_kernel_config_keeps_workload_identity(self):
        workload = Workload(kind="ntt", bits=256)
        config = Candidate(multiplication="karatsuba", word_bits=32).kernel_config(workload)
        assert config.bits == 256
        assert config.multiplication == "karatsuba"
        assert config.word_bits == 32

    def test_label_mentions_every_axis(self):
        label = Candidate(batch=64).label()
        assert "schoolbook" in label and "w64" in label and "span1" in label and "batch64" in label


class TestTuningSpace:
    def test_default_candidate_always_in_space(self, rtx4090):
        for workload in (
            Workload(kind="ntt", bits=256, size=4096),
            Workload(kind="blas", bits=128, operation="vadd"),
        ):
            assert default_candidate() in TuningSpace(workload, rtx4090)

    def test_enumeration_is_deterministic(self, rtx4090):
        workload = Workload(kind="ntt", bits=256)
        first = TuningSpace(workload, rtx4090).candidates()
        second = TuningSpace(workload, rtx4090).candidates()
        assert first == second

    def test_word_bits_axis_covers_both_supported_widths(self, rtx4090):
        wide = TuningSpace(Workload(kind="ntt", bits=256), rtx4090)
        assert {candidate.word_bits for candidate in wide} == {32, 64}

    def test_narrow_operands_fall_back_to_32_bit_default(self, rtx4090):
        workload = Workload(kind="blas", bits=32, operation="vadd")
        assert default_candidate(workload).word_bits == 32
        assert workload.default_config().word_bits == 32
        space = TuningSpace(workload, rtx4090)
        assert default_candidate(workload) in space
        assert {candidate.word_bits for candidate in space} == {32}

    def test_sub_word_operands_rejected(self):
        with pytest.raises(TuningError, match="at least 32"):
            Workload(kind="ntt", bits=16)

    def test_blas_space_has_no_stage_spans(self, rtx4090):
        space = TuningSpace(Workload(kind="blas", bits=256, operation="vmul"), rtx4090)
        assert {candidate.stage_span for candidate in space} == {1}

    def test_ntt_space_fuses_stages(self, rtx4090):
        space = TuningSpace(Workload(kind="ntt", bits=256, size=4096), rtx4090)
        assert {candidate.stage_span for candidate in space} == {1, 2, 4}

    def test_stage_span_capped_by_stage_count(self, rtx4090):
        space = TuningSpace(Workload(kind="ntt", bits=256, size=4), rtx4090)
        assert {candidate.stage_span for candidate in space} == {1, 2}

    def test_neighbors_differ_on_one_axis_and_stay_valid(self, rtx4090):
        space = TuningSpace(Workload(kind="ntt", bits=256, size=4096), rtx4090)
        start = default_candidate()
        neighbors = space.neighbors(start)
        assert neighbors
        for neighbor in neighbors:
            assert neighbor in space
            differing = sum(
                getattr(neighbor, axis) != getattr(start, axis)
                for axis in ("multiplication", "word_bits", "stage_span", "batch")
            )
            assert differing == 1


class TestMultiplicationAxis:
    """Karatsuba is offered only to workloads that multiply."""

    @pytest.mark.parametrize(
        "operation, algorithms",
        [
            ("vadd", {"schoolbook"}),
            ("vsub", {"schoolbook"}),
            ("vmul", {"schoolbook", "karatsuba"}),
            ("axpy", {"schoolbook", "karatsuba"}),
        ],
    )
    def test_blas_operations(self, rtx4090, operation, algorithms):
        space = TuningSpace(Workload(kind="blas", bits=256, operation=operation), rtx4090)
        assert {candidate.multiplication for candidate in space} == algorithms
        # Two word widths x six batches per algorithm.
        assert len(space) == 12 * len(algorithms)
        assert all(
            neighbor.multiplication in algorithms
            for neighbor in space.neighbors(default_candidate())
        )

    @pytest.mark.parametrize("variant", BUTTERFLY_VARIANTS)
    def test_butterflies_keep_both_algorithms(self, rtx4090, variant):
        space = TuningSpace(Workload(kind="ntt", bits=256, operation=variant), rtx4090)
        assert {candidate.multiplication for candidate in space} == {
            "schoolbook",
            "karatsuba",
        }

    def test_tuned_vadd_lowers_the_body_the_karatsuba_winner_did(self):
        # Before the axis was narrowed, every vadd tune picked this
        # candidate on a tie broken by name.
        karatsuba = Candidate(multiplication="karatsuba", word_bits=64, batch=1)
        workload = Workload(kind="blas", bits=256, operation="vadd")
        session = CompilerSession()
        tuned = tune_workload(workload, "rtx4090", session=session)
        assert tuned.candidate == replace(karatsuba, multiplication="schoolbook")

        def lowered(candidate):
            config = candidate.kernel_config(workload)
            return session.lower(workload.build(config), options=config.rewrite_options())

        assert lowered(tuned.candidate).body == lowered(karatsuba).body
