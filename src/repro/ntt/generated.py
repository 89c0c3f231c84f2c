"""NTTs backed by MoMA-generated butterfly kernels.

:class:`GeneratedNTT` is the "runs the generated code" path of the
reproduction: every butterfly executes the legalized machine-word kernel
produced by the MoMA rewrite system, so a forward/inverse round trip here
validates the entire code-generation pipeline on a real transform, not just
on isolated scalar operations.

Where the machine has a C compiler (``cc`` on ``PATH``) and the
interpreter's C headers, and the kernel uses 32- or 64-bit words, a
transform is one call into the ``native`` target's whole-transform entry
point: validate, permute and pack in one C pass, run every stage in C,
unpack (and scale the inverse by ``n^{-1}``).  Elsewhere each butterfly is
one call of the ``python_exec`` kernel, which stays the reference backend.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

from repro.errors import CodegenError, KernelError
from repro.core.codegen.native import native_build
from repro.core.codegen.python_exec import CompiledKernel
from repro.core.driver import CompilerSession
from repro.kernels.config import KernelConfig
from repro.kernels.ntt_gen import compile_butterfly_kernel
from repro.ntt.iterative import check_coefficients, ntt_forward, ntt_inverse, scale_inverse
from repro.ntt.planner import NTTPlan, bit_reverse_permutation, make_plan

__all__ = ["GeneratedNTT"]


class GeneratedNTT:
    """An ``n``-point NTT whose butterflies are MoMA-generated kernels.

    Args:
        size: power-of-two transform length.
        config: operand-width configuration (bit-width, multiplication
            algorithm, machine word width).
        plan: optionally a pre-built :class:`NTTPlan`; by default a plan with
            a ``config.effective_modulus_bits``-bit prime is created.
        session: compiler session used to compile the butterfly (defaults to
            the process-wide session, so identical configurations share one
            cached kernel).
        autotune: replace the configuration's multiplication algorithm and
            word width with the autotuner's winner for ``device`` before
            compiling (searched once per kernel family, then served from
            ``tuning_db``).
        device: device model the autotuner optimizes for.
        tuning_db: persistent :class:`repro.tune.TuningDatabase` consulted
            and updated by the autotuner.
        serve: a :class:`repro.serve.KernelServer` to delegate tuning and
            compilation to; the butterfly is requested through the server's
            shared caches (``autotune`` selects tuned vs pinned) and
            ``session``/``tuning_db`` are unused.
    """

    def __init__(
        self,
        size: int,
        config: KernelConfig,
        plan: NTTPlan | None = None,
        session: CompilerSession | None = None,
        autotune: bool = False,
        device: str = "rtx4090",
        tuning_db=None,
        serve=None,
    ) -> None:
        served = None
        if serve is not None:
            # Imported lazily: repro.serve sits above this frontend.
            from repro.serve.client import serve_ntt_kernel

            served = serve_ntt_kernel(
                serve, config, size, device=device, tune=autotune
            )
            config = served.config
        elif autotune:
            # Imported lazily: repro.tune drives this class's frontends.
            from repro.kernels.ntt_gen import _autotuned_config

            config = _autotuned_config(
                config, "cooley_tukey", size, session, device, tuning_db
            )
        self.config = config
        self.plan = plan if plan is not None else make_plan(size, config.effective_modulus_bits)
        if self.plan.size != size:
            raise KernelError(
                f"plan is for {self.plan.size} points but the transform needs {size}"
            )
        if self.plan.modulus_bits != config.effective_modulus_bits:
            raise KernelError(
                f"plan modulus has {self.plan.modulus_bits} bits but the kernel "
                f"configuration expects {config.effective_modulus_bits}"
            )
        self._kernel: CompiledKernel = (
            served.artifact
            if served is not None
            else compile_butterfly_kernel(config, session=session)
        )
        self._native = native_build(self._kernel.kernel)
        if self._native is not None:
            self._permutation = array("q", bit_reverse_permutation(size))
            self._twiddles = {
                "forward": self._native.pack("w", self.plan.forward_twiddles()),
                "inverse": self._native.pack("w", self.plan.inverse_twiddles()),
            }

    @property
    def size(self) -> int:
        """Transform length."""
        return self.plan.size

    @property
    def modulus(self) -> int:
        """The NTT prime."""
        return self.plan.modulus

    @property
    def compiled_kernel(self) -> CompiledKernel:
        """The ``python_exec`` butterfly (exposed for inspection and costing)."""
        return self._kernel

    @property
    def backend(self) -> str:
        """What runs the transforms: ``"native"`` or ``"python_exec"``."""
        return "python_exec" if self._native is None else "native"

    def _butterfly(self, x: int, y: int, twiddle: int, plan: NTTPlan) -> tuple[int, int]:
        out = self._kernel(x=x, y=y, w=twiddle, q=plan.modulus, mu=plan.mu)
        return out["x_out"], out["y_out"]

    def _run_native(self, values: Sequence[int], direction: str) -> list[int]:
        plan = self.plan
        if len(values) != plan.size:
            check_coefficients(values, plan)
        try:
            return self._native.transform(
                values,
                self._permutation,
                self._twiddles[direction],
                {"q": plan.modulus, "mu": plan.mu},
                bound=plan.modulus,
            )
        except CodegenError:
            # The Python check, run only on this path, names an unreduced
            # coefficient; otherwise the refusal stands (not an int).
            check_coefficients(values, plan)
            raise

    def forward(self, values: Sequence[int]) -> list[int]:
        """Forward NTT using generated butterflies."""
        if self._native is None:
            return ntt_forward(values, self.plan, self._butterfly)
        return self._run_native(values, "forward")

    def inverse(self, values: Sequence[int]) -> list[int]:
        """Inverse NTT using generated butterflies."""
        if self._native is None:
            return ntt_inverse(values, self.plan, self._butterfly)
        return scale_inverse(self._run_native(values, "inverse"), self.plan)

    def polynomial_multiply(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Cyclic convolution of two length-``n`` coefficient vectors.

        Computes ``INTT(NTT(a) . NTT(b))`` — the transform-domain product —
        which is the cyclic (mod ``x^n - 1``) polynomial product.
        """
        q = self.plan.modulus
        spectrum_a = self.forward(a)
        spectrum_b = self.forward(b)
        pointwise = [(x * y) % q for x, y in zip(spectrum_a, spectrum_b)]
        return self.inverse(pointwise)
