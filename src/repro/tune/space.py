"""The autotuner's search space: workloads, candidates and their constraints.

The paper fixes one kernel configuration per experiment by hand — schoolbook
multiplication, 64-bit machine words, one butterfly stage per launch.  The
Figure 5 harness shows those choices swing runtime by large factors across
bit-widths and devices, so the tuner treats them as *axes* instead:

* the double-word multiplication algorithm (schoolbook vs. Karatsuba) of
  workloads that multiply,
* the machine word width the legalizer splits down to (word padding),
* the number of NTT butterfly stages fused per launch once the transform no
  longer fits in shared memory (the radix/stage-split of Figure 3a), and
* the launch batch granularity of the batched execution model (Section 5.1).

A :class:`Workload` names *what* is being tuned (an NTT of a given size and
bit-width, or one BLAS operation over a vector); a :class:`Candidate` is one
point in the configuration space; :class:`TuningSpace` enumerates the valid
candidates for a (workload, device) pair in a deterministic order, which is
what makes every search strategy reproducible under a seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property

from repro.errors import TuningError
from repro.core.ir.kernel import Kernel
from repro.core.rewrite.options import KARATSUBA, SCHOOLBOOK
from repro.gpu.device import DeviceSpec
from repro.kernels.config import KernelConfig
from repro.kernels.blas_gen import BLAS_OPERATIONS, build_blas_kernel
from repro.kernels.ntt_gen import BUTTERFLY_VARIANTS, build_butterfly_kernel

__all__ = [
    "NTT",
    "BLAS",
    "Workload",
    "Candidate",
    "TuningSpace",
    "default_candidate",
]

#: Workload kinds the tuner understands.
NTT = "ntt"
BLAS = "blas"

#: Word widths the legalizer (and both C-family backends) support.
_WORD_BITS_AXIS = (64, 32)

#: Candidate butterfly stages fused per launch for out-of-shared-memory NTTs.
_STAGE_SPAN_AXIS = (1, 2, 4)

#: Candidate launch batch sizes (the simulator's steady-state sweep range).
_BATCH_AXIS = (None, 1, 8, 64, 256, 1024)

#: BLAS operations that multiply nothing: their Karatsuba lowering is the
#: schoolbook one under another name, so only schoolbook is offered.
_MULTIPLY_FREE = ("vadd", "vsub")


@dataclass(frozen=True)
class Workload:
    """One tunable workload: what is computed, not how.

    Attributes:
        kind: ``"ntt"`` or ``"blas"``.
        bits: logical operand bit-width (the paper's figure axis).
        operation: the BLAS operation (``vadd``/``vsub``/``vmul``/``axpy``)
            or the butterfly variant (``cooley_tukey``/``gentleman_sande``).
        size: transform length for NTT workloads (power of two).
        elements: total vector elements for BLAS workloads.
        modulus_bits: modulus width; ``None`` follows the paper's ``bits - 4``
            Barrett-headroom convention.
    """

    kind: str
    bits: int
    operation: str = "cooley_tukey"
    size: int = 4096
    elements: int = 1 << 20
    modulus_bits: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (NTT, BLAS):
            raise TuningError(f"unknown workload kind {self.kind!r}; expected 'ntt' or 'blas'")
        if self.bits < min(_WORD_BITS_AXIS):
            # No supported machine word fits inside the operand, so there is
            # no legal configuration (and no baseline) to tune.
            raise TuningError(
                f"operand width must be at least {min(_WORD_BITS_AXIS)} bits, "
                f"got {self.bits}"
            )
        if self.kind == NTT and self.operation not in BUTTERFLY_VARIANTS:
            raise TuningError(
                f"unknown butterfly variant {self.operation!r}; expected one of "
                f"{BUTTERFLY_VARIANTS}"
            )
        if self.kind == BLAS and self.operation not in BLAS_OPERATIONS:
            raise TuningError(
                f"unknown BLAS operation {self.operation!r}; expected one of "
                f"{BLAS_OPERATIONS}"
            )
        if self.kind == NTT and (self.size < 2 or self.size & (self.size - 1)):
            raise TuningError(f"NTT size must be a power of two >= 2, got {self.size}")
        if self.kind == BLAS and self.elements < 1:
            raise TuningError(f"element count must be positive, got {self.elements}")

    @classmethod
    def from_kernel(cls, kernel: Kernel, size: int = 4096, elements: int = 1 << 20) -> Workload:
        """Derive the workload from a frontend-built kernel's metadata."""
        family = kernel.metadata.get("family")
        bits = kernel.metadata.get("bits")
        if family not in (NTT, BLAS) or not bits:
            raise TuningError(
                f"kernel {kernel.name!r} carries no tunable workload metadata "
                f"(family={family!r}, bits={bits!r}); build it through the "
                f"repro.kernels frontends"
            )
        operation = (
            kernel.metadata.get("variant")
            if family == NTT
            else kernel.metadata.get("operation")
        )
        return cls(
            kind=family,
            bits=bits,
            operation=operation,
            size=size,
            elements=elements,
            modulus_bits=kernel.metadata.get("modulus_bits"),
        )

    @property
    def key(self) -> str:
        """Human-readable identity used in reports and database records.

        A modulus other than the paper's ``bits - 4`` ends the key in
        ``/m<modulus_bits>``, so the key names the whole workload.
        """
        if self.kind == NTT:
            key = f"ntt/{self.operation}/n{self.size}/{self.bits}b"
        else:
            key = f"blas/{self.operation}/e{self.elements}/{self.bits}b"
        if self.modulus_bits is not None and self.modulus_bits != self.bits - 4:
            key += f"/m{self.modulus_bits}"
        return key

    def default_config(self) -> KernelConfig:
        """The paper-default configuration (schoolbook, widest legal word)."""
        return default_candidate(self).kernel_config(self)

    def build(self, config: KernelConfig) -> Kernel:
        """The wide-typed IR of this workload under ``config``."""
        if self.kind == NTT:
            return build_butterfly_kernel(config, variant=self.operation)
        return build_blas_kernel(self.operation, config)

    @cached_property
    def _fingerprint(self) -> str:
        from repro.core.ir.fingerprint import kernel_digest

        hasher = hashlib.sha256()
        hasher.update(self.key.encode())
        hasher.update(kernel_digest(self.build(self.default_config())).encode())
        return hasher.hexdigest()[:16]

    def fingerprint(self) -> str:
        """Stable identity of the workload's kernel *family*.

        Hashes the workload description together with a canonical digest of
        the paper-default wide IR, so tuning records go stale (and re-tune)
        when a frontend changes the kernels it builds — not merely when the
        workload parameters change.  Computed once per instance (the IR
        build is not free, and every database lookup needs the value).
        """
        return self._fingerprint


@dataclass(frozen=True)
class Candidate:
    """One point of the configuration space.

    Attributes:
        multiplication: double-word multiplication rule at every recursion
            level (``"schoolbook"`` or ``"karatsuba"``).
        word_bits: machine word width the legalizer splits down to.
        stage_span: butterfly stages fused per launch when an NTT streams
            through global memory (1 = the paper's stage-per-launch plan).
        batch: fixed launch batch size; ``None`` lets the cost model search
            for the steady-state batch (the paper's methodology).
    """

    multiplication: str = SCHOOLBOOK
    word_bits: int = 64
    stage_span: int = 1
    batch: int | None = None

    def kernel_config(self, workload: Workload) -> KernelConfig:
        """The kernel configuration this candidate selects for ``workload``."""
        return KernelConfig(
            bits=workload.bits,
            modulus_bits=workload.modulus_bits,
            word_bits=self.word_bits,
            multiplication=self.multiplication,
        )

    def label(self) -> str:
        """Short human-readable description used in cost tables."""
        batch = "auto" if self.batch is None else str(self.batch)
        return (
            f"{self.multiplication}/w{self.word_bits}/span{self.stage_span}/batch{batch}"
        )


def default_candidate(workload: Workload | None = None) -> Candidate:
    """The paper-default configuration as a candidate (always in the space).

    The paper uses 64-bit machine words; for operands narrower than 64 bits
    the default falls back to the widest word that fits, so every workload
    has a legal baseline.
    """
    if workload is not None and workload.bits < 64:
        return Candidate(word_bits=max(w for w in _WORD_BITS_AXIS if w <= workload.bits))
    return Candidate()


class TuningSpace:
    """The valid candidates for one (workload, device) pair.

    Enumeration order is deterministic — axes are swept in a fixed order with
    the paper default first on every axis — so exhaustive search, seeded
    random sampling and hill-climbing are all reproducible.
    """

    def __init__(self, workload: Workload, device: DeviceSpec) -> None:
        self.workload = workload
        self.device = device
        self._candidates = tuple(self._enumerate())
        if default_candidate(workload) not in self._candidates:  # pragma: no cover
            raise TuningError("internal error: the paper default left the space")

    # -- axes ---------------------------------------------------------------

    def _multiplication_axis(self) -> tuple[str, ...]:
        if self.workload.kind == BLAS and self.workload.operation in _MULTIPLY_FREE:
            return (SCHOOLBOOK,)
        return (SCHOOLBOOK, KARATSUBA)

    def _word_bits_axis(self) -> tuple[int, ...]:
        return tuple(w for w in _WORD_BITS_AXIS if w <= self.workload.bits)

    def _stage_span_axis(self) -> tuple[int, ...]:
        if self.workload.kind != NTT:
            return (1,)
        stages = self.workload.size.bit_length() - 1
        words = self.workload.default_config().operand_words
        shared_bytes = self.device.shared_memory_per_block_kb * 1024
        spans = []
        for span in _STAGE_SPAN_AXIS:
            if span > stages:
                continue
            # Fusing ``span`` stages makes each block stage a 2^span-point
            # tile through shared memory; the tile must fit.
            if span > 1 and (1 << span) * words * 8 > shared_bytes:
                continue
            spans.append(span)
        return tuple(spans)

    def _enumerate(self):
        for multiplication in self._multiplication_axis():
            for word_bits in self._word_bits_axis():
                for stage_span in self._stage_span_axis():
                    for batch in _BATCH_AXIS:
                        yield Candidate(
                            multiplication=multiplication,
                            word_bits=word_bits,
                            stage_span=stage_span,
                            batch=batch,
                        )

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._candidates)

    def __iter__(self):
        return iter(self._candidates)

    def __contains__(self, candidate: Candidate) -> bool:
        return candidate in self._candidates

    def candidates(self) -> tuple[Candidate, ...]:
        """All valid candidates, in deterministic enumeration order."""
        return self._candidates

    def neighbors(self, candidate: Candidate) -> tuple[Candidate, ...]:
        """Valid candidates differing from ``candidate`` on exactly one axis.

        The hill-climbing strategy's move set; deterministic order.
        """
        moves: list[Candidate] = []
        for multiplication in self._multiplication_axis():
            moves.append(replace(candidate, multiplication=multiplication))
        for word_bits in self._word_bits_axis():
            moves.append(replace(candidate, word_bits=word_bits))
        for stage_span in self._stage_span_axis():
            moves.append(replace(candidate, stage_span=stage_span))
        for batch in _BATCH_AXIS:
            moves.append(replace(candidate, batch=batch))
        seen: list[Candidate] = []
        for move in moves:
            if move != candidate and move in self._candidates and move not in seen:
                seen.append(move)
        return tuple(seen)
