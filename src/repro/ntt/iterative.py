"""Iterative radix-2 NTT (the transform structure used on the GPU).

The transform is the standard iterative Cooley-Tukey decimation-in-time
network: a bit-reversal permutation followed by ``log2(n)`` stages of ``n/2``
independent butterflies (Section 5.1: "each CUDA thread processes one or
more butterfly operations in each stage ... as there are no data dependencies
between butterfly operations within the same stage").

The butterfly itself is pluggable:

* the default uses Python integer arithmetic (the mathematical definition,
  used as the fast path and by the baselines), and
* a MoMA-generated butterfly (``repro.ntt.generated``) runs the exact
  machine-word code the CUDA backend emits, via the Python execution backend.

The native target (:mod:`repro.core.codegen.native`) emits this same network
as one C loop nest, which also applies the inverse's ``n^{-1}`` scaling;
:func:`check_coefficients` is shared with it so both paths validate
identically.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import KernelError
from repro.ntt.planner import NTTPlan, bit_reverse_permutation

__all__ = [
    "Butterfly",
    "check_coefficients",
    "ntt_forward",
    "ntt_inverse",
    "reference_butterfly",
    "scale_inverse",
]

#: A butterfly callable: (x, y, twiddle, plan) -> (x', y').
Butterfly = Callable[[int, int, int, NTTPlan], tuple[int, int]]


def reference_butterfly(x: int, y: int, twiddle: int, plan: NTTPlan) -> tuple[int, int]:
    """Cooley-Tukey butterfly using Python integer arithmetic."""
    q = plan.modulus
    scaled = (twiddle * y) % q
    return (x + scaled) % q, (x - scaled) % q


def check_coefficients(values: Sequence[int], plan: NTTPlan) -> None:
    """Raise :class:`KernelError` unless ``values`` is ``plan.size``
    coefficients reduced modulo the plan's prime."""
    size = plan.size
    q = plan.modulus
    if len(values) != size:
        raise KernelError(f"expected {size} coefficients, got {len(values)}")
    for index, value in enumerate(values):
        if not 0 <= value < q:
            raise KernelError(f"coefficient {index} is not reduced modulo q")


def scale_inverse(values: Sequence[int], plan: NTTPlan) -> list[int]:
    """The inverse transform's final ``n^{-1}`` scaling."""
    q = plan.modulus
    scale = plan.size_inverse
    return [(value * scale) % q for value in values]


def _transform(
    values: Sequence[int],
    plan: NTTPlan,
    root: int,
    butterfly: Butterfly,
) -> list[int]:
    check_coefficients(values, plan)
    size = plan.size
    q = plan.modulus
    permutation = bit_reverse_permutation(size)
    data = [values[permutation[index]] for index in range(size)]

    length = 2
    while length <= size:
        half = length // 2
        step = pow(root, size // length, q)
        for start in range(0, size, length):
            twiddle = 1
            for offset in range(half):
                upper = data[start + offset]
                lower = data[start + offset + half]
                new_upper, new_lower = butterfly(upper, lower, twiddle, plan)
                data[start + offset] = new_upper
                data[start + offset + half] = new_lower
                twiddle = (twiddle * step) % q
        length *= 2
    return data


def ntt_forward(
    values: Sequence[int], plan: NTTPlan, butterfly: Butterfly = reference_butterfly
) -> list[int]:
    """Forward ``n``-point NTT (Equation 12), computed in O(n log n)."""
    return _transform(values, plan, plan.root, butterfly)


def ntt_inverse(
    values: Sequence[int], plan: NTTPlan, butterfly: Butterfly = reference_butterfly
) -> list[int]:
    """Inverse NTT: the same network with the inverse root plus ``n^{-1}`` scaling."""
    return scale_inverse(_transform(values, plan, plan.inverse_root, butterfly), plan)
