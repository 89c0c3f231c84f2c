"""Finite-field BLAS operations on coefficient vectors (Section 2.3 / 5.2).

Point-wise polynomial arithmetic — vector addition, subtraction,
multiplication and ``axpy`` over ``Z_q`` — with two interchangeable
execution engines:

* :class:`PythonBlasEngine` — Python integer arithmetic (the role GMP plays
  on the CPU in the paper's comparison), and
* :class:`MomaBlasEngine` — the MoMA-generated machine-word kernels, i.e.
  the code the CUDA backend would run one element per thread.  Where the
  machine has a C compiler (``cc`` on ``PATH``) and the interpreter's C
  headers, and the kernel uses 32- or 64-bit words, each vector call is one
  call into the ``native`` target's ``_batch`` loop: validate and pack in
  one C pass, call, unpack.  Elsewhere each element is one call of the
  ``python_exec`` kernel, which stays the reference backend.

Both produce identical values; the GPU cost model (:mod:`repro.gpu`) and the
wall-clock benchmarks quantify the difference in *how* they compute them.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ArithmeticDomainError, CodegenError
from repro.arith.barrett import BarrettParams
from repro.core.codegen.native import native_build
from repro.core.driver import CompilerSession
from repro.kernels.blas_gen import compile_blas_kernel
from repro.kernels.config import KernelConfig

__all__ = [
    "BlasEngine",
    "PythonBlasEngine",
    "MomaBlasEngine",
    "vector_addmod",
    "vector_submod",
    "vector_mulmod",
    "axpy",
]


def _check_vectors(q: int, *vectors: Sequence[int]) -> None:
    if q < 3:
        raise ArithmeticDomainError(f"modulus must be >= 3, got {q}")
    lengths = {len(vector) for vector in vectors}
    if len(lengths) != 1:
        raise ArithmeticDomainError(f"vectors must have equal lengths, got {sorted(lengths)}")
    for vector in vectors:
        for index, value in enumerate(vector):
            if not 0 <= value < q:
                raise ArithmeticDomainError(
                    f"element {index} = {value} is not reduced modulo {q}"
                )


def _check_scalar(scale: int, q: int) -> None:
    if not 0 <= scale < q:
        raise ArithmeticDomainError(f"scalar {scale} is not reduced modulo {q}")


class BlasEngine:
    """Interface for finite-field vector arithmetic engines."""

    def vadd(self, x: Sequence[int], y: Sequence[int], q: int) -> list[int]:
        """Element-wise ``(x + y) mod q``."""
        raise NotImplementedError

    def vsub(self, x: Sequence[int], y: Sequence[int], q: int) -> list[int]:
        """Element-wise ``(x - y) mod q``."""
        raise NotImplementedError

    def vmul(self, x: Sequence[int], y: Sequence[int], q: int) -> list[int]:
        """Element-wise ``(x * y) mod q``."""
        raise NotImplementedError

    def axpy(self, scale: int, x: Sequence[int], y: Sequence[int], q: int) -> list[int]:
        """Element-wise ``(scale * x + y) mod q`` (Equation 10)."""
        raise NotImplementedError


class PythonBlasEngine(BlasEngine):
    """Arbitrary-precision (Python integer) engine — the CPU-library analogue."""

    def vadd(self, x, y, q):
        _check_vectors(q, x, y)
        return [(a + b) % q for a, b in zip(x, y)]

    def vsub(self, x, y, q):
        _check_vectors(q, x, y)
        return [(a - b) % q for a, b in zip(x, y)]

    def vmul(self, x, y, q):
        _check_vectors(q, x, y)
        return [(a * b) % q for a, b in zip(x, y)]

    def axpy(self, scale, x, y, q):
        _check_vectors(q, x, y)
        _check_scalar(scale, q)
        return [(scale * a + b) % q for a, b in zip(x, y)]


class MomaBlasEngine(BlasEngine):
    """Engine that runs the MoMA-generated machine-word kernels.

    Args:
        config: operand-width configuration; the modulus used at call time
            must have exactly ``config.effective_modulus_bits`` bits.
        session: compiler session used to compile the kernels (defaults to
            the process-wide session).
        autotune: let the autotuner pick each operation's multiplication
            algorithm and word width for ``device`` (values are unchanged;
            only the generated machine-word code differs).
        device: device model the autotuner optimizes for.
        tuning_db: persistent :class:`repro.tune.TuningDatabase` consulted
            and updated by the autotuner.
        serve: a :class:`repro.serve.KernelServer` to delegate tuning and
            compilation to; each operation's kernel is requested through the
            server's shared caches (``autotune`` selects tuned vs pinned)
            and ``session``/``tuning_db`` are unused.

    Attributes:
        config: the requested (semantic) configuration — bit-widths and
            modulus convention; unchanged by autotuning.
        operation_configs: the configuration each operation's kernel was
            actually generated with (differs from ``config`` only when
            ``autotune=True`` picked a different algorithm or word width).
        backend: what runs the vectors — ``"native"`` or ``"python_exec"``.
    """

    def __init__(
        self,
        config: KernelConfig,
        session: CompilerSession | None = None,
        autotune: bool = False,
        device: str = "rtx4090",
        tuning_db=None,
        serve=None,
    ) -> None:
        self.config = config
        self.operation_configs: dict[str, KernelConfig] = {}
        self._kernels = {}
        operations = ("vadd", "vsub", "vmul", "axpy")
        if serve is not None:
            # Imported lazily: repro.serve sits above this frontend.  All
            # four requests are submitted together so cold kernels compile
            # concurrently on the server's pool and share one tuning batch.
            from repro.serve.client import serve_blas_kernels

            for operation, result in serve_blas_kernels(
                serve, operations, config, device=device, tune=autotune
            ).items():
                self.operation_configs[operation] = result.config
                self._kernels[operation] = result.artifact
        else:
            for operation in operations:
                generated = config
                if autotune:
                    # Imported lazily: repro.tune drives this module's frontends.
                    from repro.kernels.blas_gen import _autotuned_config

                    generated = _autotuned_config(
                        operation, config, session, device, tuning_db
                    )
                self.operation_configs[operation] = generated
                self._kernels[operation] = compile_blas_kernel(
                    operation, generated, session=session
                )
        self._native = {
            operation: native_build(kernel.kernel) for operation, kernel in self._kernels.items()
        }
        if None in self._native.values():
            self._native = {}
        # The last modulus and its Barrett mu: callers reuse one modulus.
        self._barrett: tuple[int | None, int] = (None, 0)

    @property
    def backend(self) -> str:
        """What runs the vectors: ``"native"`` or ``"python_exec"``."""
        return "native" if self._native else "python_exec"

    def _mu(self, q: int) -> int:
        last, mu = self._barrett
        if q != last or type(q) is not int:
            modulus_bits = self.config.effective_modulus_bits
            mu = BarrettParams.create(q, modulus_bits + 4, modulus_bits).mu
            self._barrett = (q, mu)
        return mu

    def _check(self, q: int, x, y) -> None:
        """The input checks that run before the kernels.  The native pass
        checks each element itself, so here only the modulus and lengths."""
        if not self._native or q < 3 or len(x) != len(y):
            _check_vectors(q, x, y)

    def _run(self, operation: str, x, y, **scalars: int) -> list[int]:
        """``z`` for every element: one native batch call, or one
        ``python_exec`` kernel call per element."""
        if not self._native:
            kernel = self._kernels[operation]
            return [kernel(x=a, y=b, **scalars)["z"] for a, b in zip(x, y)]
        q = scalars["q"]
        try:
            return self._native[operation].batch({"x": x, "y": y}, scalars, bound=q)["z"]
        except CodegenError:
            # The Python check, run only on this path, names an unreduced
            # element; otherwise the refusal stands (an element that is not
            # an int, or a modulus wider than the kernel).
            _check_vectors(q, x, y)
            raise

    def vadd(self, x, y, q):
        self._check(q, x, y)
        return self._run("vadd", x, y, q=q)

    def vsub(self, x, y, q):
        self._check(q, x, y)
        return self._run("vsub", x, y, q=q)

    def vmul(self, x, y, q):
        self._check(q, x, y)
        return self._run("vmul", x, y, q=q, mu=self._mu(q))

    def axpy(self, scale, x, y, q):
        self._check(q, x, y)
        _check_scalar(scale, q)
        return self._run("axpy", x, y, a=scale, q=q, mu=self._mu(q))


_DEFAULT_ENGINE = PythonBlasEngine()


def vector_addmod(x: Sequence[int], y: Sequence[int], q: int) -> list[int]:
    """Element-wise modular addition with the default (Python) engine."""
    return _DEFAULT_ENGINE.vadd(x, y, q)


def vector_submod(x: Sequence[int], y: Sequence[int], q: int) -> list[int]:
    """Element-wise modular subtraction with the default (Python) engine."""
    return _DEFAULT_ENGINE.vsub(x, y, q)


def vector_mulmod(x: Sequence[int], y: Sequence[int], q: int) -> list[int]:
    """Element-wise modular multiplication with the default (Python) engine."""
    return _DEFAULT_ENGINE.vmul(x, y, q)


def axpy(scale: int, x: Sequence[int], y: Sequence[int], q: int) -> list[int]:
    """``scale * x + y`` element-wise with the default (Python) engine."""
    return _DEFAULT_ENGINE.axpy(scale, x, y, q)
