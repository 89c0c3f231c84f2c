"""Optimization pass pipeline.

The standard pipeline mirrors what the SPIRAL backend does after the MoMA
rewrite pass: propagate and fold the constants introduced by zero-limb
pruning, simplify partially-constant operations, forward copies, remove
duplicate computations, and delete dead code.  A round runs each of the five
passes once, and rounds repeat until the body stops changing, because each
pass can expose work for the others: a constant that simplify leaves in a
``mov`` reaches the folder only in the next round, after copy propagation
forwards it.  Constant folding, copy propagation and CSE each forward what
they rewrite to later statements within their own walk, so most kernels
reach the fixed point in their first round and the second only confirms it.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

from repro.core.ir.fingerprint import body_signature
from repro.core.ir.kernel import Kernel
from repro.core.passes.constant_fold import fold_constants
from repro.core.passes.copy_propagation import propagate_copies
from repro.core.passes.cse import eliminate_common_subexpressions
from repro.core.passes.dce import eliminate_dead_code
from repro.core.passes.simplify import simplify

__all__ = ["optimize", "run_pipeline", "DEFAULT_PIPELINE", "DEFAULT_MAX_ROUNDS", "PassObserver"]

Pass = Callable[[Kernel], Kernel]

#: Callback invoked after each pass application:
#: ``observer(pass_name, round_index, seconds, statements_before, statements_after)``.
PassObserver = Callable[[str, int, float, int, int], None]

#: The default pass order; one round of this list is one pipeline iteration.
DEFAULT_PIPELINE: tuple[Pass, ...] = (
    fold_constants,
    simplify,
    propagate_copies,
    eliminate_common_subexpressions,
    eliminate_dead_code,
)

#: Bound on the rounds :func:`optimize` runs; a lowering that uses all of
#: them may have stopped short of the fixed point.
DEFAULT_MAX_ROUNDS = 8


def run_pipeline(kernel: Kernel, passes: Sequence[Pass]) -> Kernel:
    """Run an explicit sequence of passes once, in order."""
    for optimization in passes:
        kernel = optimization(kernel)
    return kernel


def optimize(
    kernel: Kernel,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    pipeline: Sequence[Pass] = DEFAULT_PIPELINE,
    observer: PassObserver | None = None,
) -> Kernel:
    """Run the pipeline until the body stops changing.

    ``max_rounds`` bounds the iteration.  The last round run is the first
    that changes nothing, so a kernel whose first round reaches the fixed
    point takes two.  Over every kernel family (BLAS and both butterflies)
    at 64-1,024 bits, both word widths and both multiplications, 138 of 170
    kernels take at most two rounds, and Karatsuba kernels at pruned
    widths (320 and 640 bits) take the most, up to six.  The fixed point is
    detected with :func:`body_signature` — a structural hash, much cheaper
    than re-stringifying every statement each round.  ``observer`` (used by
    the driver's :class:`~repro.core.driver.session.CompilerSession` for
    pipeline instrumentation) receives per-pass timing and statement counts.
    """
    previous_signature = body_signature(kernel)
    for round_index in range(max_rounds):
        for optimization in pipeline:
            statements_before = len(kernel.body)
            started = time.perf_counter()
            kernel = optimization(kernel)
            if observer is not None:
                observer(
                    optimization.__name__,
                    round_index,
                    time.perf_counter() - started,
                    statements_before,
                    len(kernel.body),
                )
        signature = body_signature(kernel)
        if signature == previous_signature:
            break
        previous_signature = signature
    return kernel
