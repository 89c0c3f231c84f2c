"""The compilation-target registry.

A :class:`Target` bundles what a backend needs to participate in the driver:
a name, the machine word widths it supports, an optional :class:`CTypes`
hook (for the C-family backends), and the emit hook that turns a legalized
kernel into the target's artifact — a CUDA/C translation unit (string), an
executable :class:`~repro.core.codegen.python_exec.CompiledKernel`, or a
:class:`~repro.core.codegen.native.NativeKernel` built for this machine.

The four backends (``cuda``, ``c99``, ``python_exec``, ``native``) are
registered at import time; new backends (a PTX emitter, an OpenCL port,
...) register themselves with :func:`register_target` and immediately
become reachable through :func:`emit` and
:class:`~repro.core.driver.session.CompilerSession`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import DriverError, UnknownTargetError
from repro.core.codegen.c99 import generate_c99
from repro.core.codegen.common import CTypes
from repro.core.codegen.cuda import generate_cuda
from repro.core.codegen.native import WORD_BITS as NATIVE_WORD_BITS, compile_native
from repro.core.codegen.python_exec import compile_kernel
from repro.core.ir.kernel import Kernel

__all__ = ["Target", "register_target", "get_target", "list_targets", "emit"]


@dataclass(frozen=True)
class Target:
    """One compilation backend, as seen by the driver.

    Attributes:
        name: registry key (``"cuda"``, ``"c99"``, ``"python_exec"``,
            ``"native"``, ...).
        description: one-line description shown in target listings.
        emit: hook mapping a legalized :class:`Kernel` to the target artifact.
        word_bits: machine word widths the backend accepts; empty means any.
        ctypes: optional hook mapping a word width to the backend's
            :class:`CTypes` (C-family backends only).
        artifact: what ``emit`` returns — ``"source"``, ``"callable"``, or
            ``"library"`` (a shared library loaded into this process, which
            never leaves it).
    """

    name: str
    description: str
    emit: Callable[[Kernel], object]
    word_bits: tuple[int, ...] = ()
    ctypes: Callable[[int], CTypes] | None = None
    artifact: str = "source"

    def supports_word_bits(self, word_bits: int) -> bool:
        """Whether the backend can emit kernels legalized to ``word_bits``."""
        return not self.word_bits or word_bits in self.word_bits


_REGISTRY: dict[str, Target] = {}


def register_target(target: Target, replace: bool = False) -> Target:
    """Add a target to the registry (raising on accidental re-registration)."""
    if not target.name:
        raise DriverError("target name must be non-empty")
    if target.name in _REGISTRY and not replace:
        raise DriverError(
            f"target {target.name!r} is already registered; pass replace=True "
            f"to override it"
        )
    _REGISTRY[target.name] = target
    return target


def get_target(target: str | Target) -> Target:
    """Look a target up by name (a :class:`Target` passes through unchanged)."""
    if isinstance(target, Target):
        return target
    try:
        return _REGISTRY[target]
    except KeyError:
        raise UnknownTargetError(
            f"unknown compilation target {target!r}; registered targets: "
            f"{', '.join(list_targets())}"
        ) from None


def list_targets() -> list[str]:
    """Registered target names, sorted."""
    return sorted(_REGISTRY)


def emit(kernel: Kernel, target: str | Target) -> object:
    """Emit a legalized kernel on a target, checking word-width support."""
    resolved = get_target(target)
    word_bits = kernel.metadata.get("word_bits", 64)
    if not resolved.supports_word_bits(word_bits):
        raise DriverError(
            f"target {resolved.name!r} supports {resolved.word_bits}-bit machine "
            f"words, but kernel {kernel.name!r} is legalized for {word_bits}-bit words"
        )
    return resolved.emit(kernel)


register_target(
    Target(
        name="cuda",
        description="CUDA translation unit (device routine + global kernel + launcher)",
        emit=generate_cuda,
        word_bits=(32, 64),
        ctypes=CTypes.for_word_bits,
        artifact="source",
    )
)
register_target(
    Target(
        name="c99",
        description="C99 (+ __int128) translation unit with a batch driver",
        emit=generate_c99,
        word_bits=(32, 64),
        ctypes=CTypes.for_word_bits,
        artifact="source",
    )
)
register_target(
    Target(
        name="python_exec",
        description="executable Python backend (CompiledKernel)",
        emit=compile_kernel,
        artifact="callable",
    )
)
register_target(
    Target(
        name="native",
        description="the kernel's C unit (AVX-512 lanes where the CPU has them, else c99) "
        "built with the host `cc` and loaded (NativeKernel)",
        emit=compile_native,
        word_bits=NATIVE_WORD_BITS,
        ctypes=CTypes.for_word_bits,
        artifact="library",
    )
)
