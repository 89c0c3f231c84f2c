"""Copy propagation.

Legalization produces a fair number of single-part ``mov`` statements (for
example the destination of a comparison chain being copied into the flag
variable a later rule expects).  This pass forwards such copies to their
uses so that dead-code elimination can then delete the movs.  Only
single-part to single-part copies of identical width are propagated; moves
that narrow, widen or regroup values are left alone.
"""

from __future__ import annotations

from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group, Var

__all__ = ["propagate_copies"]


def propagate_copies(kernel: Kernel) -> Kernel:
    """Return a new kernel with single-part copies forwarded to their uses.

    A statement none of whose operands changes is kept as the same object.
    """
    replacements: dict[str, object] = {}
    output_names = {output.name for output in kernel.outputs}
    new_body: list[Statement] = []

    def resolve(part):
        seen = set()
        while isinstance(part, Var) and part.name in replacements and part.name not in seen:
            seen.add(part.name)
            part = replacements[part.name]
        return part

    for statement in kernel.body:
        new_operands = []
        for group in statement.operands:
            parts = tuple(resolve(part) for part in group)
            new_operands.append(Group(parts) if parts != group.parts else group)
        operands = tuple(new_operands)
        if operands != statement.operands:
            statement = Statement(statement.op, statement.dests, operands, dict(statement.attrs))

        if (
            statement.op is OpKind.MOV
            and len(statement.dests) == 1
            and len(statement.operands[0]) == 1
        ):
            dest = statement.dests.parts[0]
            source = statement.operands[0].parts[0]
            same_width = dest.bits == source.bits
            if same_width and dest.name not in output_names:
                # Record the copy; keep the statement for now (DCE removes it
                # once nothing refers to the destination any more).
                replacements[dest.name] = source
        new_body.append(statement)

    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        outputs=list(kernel.outputs),
        body=new_body,
        metadata=dict(kernel.metadata),
    )
