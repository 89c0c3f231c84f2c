"""Dead code elimination.

Removes statements none of whose destinations are ever used (by later
statements or as kernel outputs).  This cleans up the copies left behind by
copy propagation, the unused high halves of multiplications whose
results feed only a shift (Listing 4's "will not be used" temporaries when
they really are unused), and any operations orphaned by zero-pruning.
"""

from __future__ import annotations

from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import Statement

__all__ = ["eliminate_dead_code"]


def eliminate_dead_code(kernel: Kernel) -> Kernel:
    """Return a new kernel without statements whose results are never used."""
    live = {output.name for output in kernel.outputs}
    keep_flags = [False] * len(kernel.body)

    # Walk backwards: a statement is live if any destination is live; its
    # operands then become live too.
    for index in range(len(kernel.body) - 1, -1, -1):
        statement = kernel.body[index]
        if any(dest.name in live for dest in statement.defined_vars()):
            keep_flags[index] = True
            for used in statement.used_vars():
                live.add(used.name)

    new_body = [statement for statement, keep in zip(kernel.body, keep_flags) if keep]
    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        outputs=list(kernel.outputs),
        body=new_body,
        metadata=dict(kernel.metadata),
    )
