"""Common subexpression elimination.

The comparison chains of rules (24)-(26) recompute limb equalities and
less-thans that earlier statements already produced (visible in Listing 4,
where the same comparisons appear in ``_dlt`` and ``_dsub``).  Because
kernels are straight-line SSA, CSE is local value numbering: one forward
sweep with a value table keyed by (operation, operand identities,
attributes).  Each statement's operands are first rewritten through the
duplicates already merged, so a duplicate built from duplicates (``u2 =
and(t2, z)`` after ``t2`` merged into ``t1``) matches its original in the
same sweep, and a whole chain collapses in one call.  A merged duplicate is
dropped; only a destination that is a kernel output keeps a ``mov`` from
the earlier result, so the output stays defined.
"""

from __future__ import annotations

from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group, Var

__all__ = ["eliminate_common_subexpressions"]

#: Operations safe to deduplicate (pure, deterministic — which is all of them;
#: MOV is excluded because copy propagation already handles it).
_CSE_OPS = frozenset(
    {
        OpKind.ADD,
        OpKind.SUB,
        OpKind.MUL,
        OpKind.MULLO,
        OpKind.LT,
        OpKind.LE,
        OpKind.EQ,
        OpKind.AND,
        OpKind.OR,
        OpKind.NOT,
        OpKind.SELECT,
        OpKind.SHR,
        OpKind.SHL,
        OpKind.REDUCE,
        OpKind.ADDMOD,
        OpKind.SUBMOD,
        OpKind.MULMOD,
    }
)


def _part_key(part) -> tuple:
    if isinstance(part, Const):
        return ("const", part.value, part.bits)
    return ("var", part.name, part.bits)


def _statement_key(statement: Statement) -> tuple:
    operand_keys = tuple(
        tuple(_part_key(part) for part in group) for group in statement.operands
    )
    dest_widths = tuple(part.bits for part in statement.dests)
    attrs = tuple(sorted(statement.attrs.items()))
    return (statement.op, operand_keys, dest_widths, attrs)


def _forward(group: Group, merged: dict[str, Var]) -> Group:
    """``group`` reading the earlier results in place of merged duplicates."""
    parts = tuple(merged.get(part.name, part) if isinstance(part, Var) else part for part in group)
    return Group(parts) if parts != group.parts else group


def eliminate_common_subexpressions(kernel: Kernel) -> Kernel:
    """Return a new kernel where repeated computations reuse earlier results."""
    output_names = {output.name for output in kernel.outputs}
    seen: dict[tuple, tuple[Var, ...]] = {}
    # Destination name of each dropped duplicate -> the earlier result.
    merged: dict[str, Var] = {}
    new_body: list[Statement] = []

    for statement in kernel.body:
        operands = tuple(_forward(group, merged) for group in statement.operands)
        if operands != statement.operands:
            statement = Statement(statement.op, statement.dests, operands, dict(statement.attrs))
        if statement.op not in _CSE_OPS:
            new_body.append(statement)
            continue
        key = _statement_key(statement)
        previous = seen.get(key)
        if previous is None:
            seen[key] = statement.dests.parts
            new_body.append(statement)
            continue
        for dest, source in zip(statement.dests.parts, previous):
            if dest.name in output_names:
                new_body.append(Statement(OpKind.MOV, Group((dest,)), (Group((source,)),)))
            else:
                merged[dest.name] = source

    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        outputs=list(kernel.outputs),
        body=new_body,
        metadata=dict(kernel.metadata),
    )
