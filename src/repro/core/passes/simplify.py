"""Algebraic simplification of statements with partially-constant operands.

Complements :mod:`repro.core.passes.constant_fold`: where the folder handles
statements whose operands are *all* constants, this pass rewrites statements
where only *some* operands are constant — ``x + 0``, ``x * 0``, ``x * 1``,
``select`` with a constant condition, comparisons against values a type
cannot exceed, and shift-by-zero — into moves or constants.  Together with
the folder it implements the paper's pruning of redundant operations for
non-power-of-two bit-widths (Section 4).
"""

from __future__ import annotations

from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group

__all__ = ["simplify"]


def _is_const(group: Group, value: int | None = None) -> bool:
    if len(group) != 1 or not isinstance(group.parts[0], Const):
        return False
    return value is None or group.parts[0].value == value


def _mov(dests: Group, source: Group) -> Statement:
    return Statement(OpKind.MOV, dests, (source,))


def simplify(kernel: Kernel) -> Kernel:
    """Return a new kernel with algebraic identities applied statement-wise."""
    new_body = []
    for statement in kernel.body:
        new_body.append(_simplify_statement(statement))
    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        outputs=list(kernel.outputs),
        body=new_body,
        metadata=dict(kernel.metadata),
    )


def _simplify_statement(statement: Statement) -> Statement:
    op = statement.op
    operands = statement.operands
    dests = statement.dests

    if op is OpKind.ADD:
        non_zero = [group for group in operands if not _is_const(group, 0)]
        if not non_zero:
            return _mov(dests, Group((Const(0, dests.parts[-1].type),)))
        if len(non_zero) == 1:
            return _mov(dests, non_zero[0])
        if len(non_zero) < len(operands):
            return Statement(OpKind.ADD, dests, tuple(non_zero), dict(statement.attrs))
        return statement

    if op is OpKind.SUB:
        # x - 0 - 0 == x.
        if all(_is_const(group, 0) for group in operands[1:]):
            return _mov(dests, operands[0])
        if len(operands) == 3 and _is_const(operands[2], 0):
            return Statement(OpKind.SUB, dests, operands[:2], dict(statement.attrs))
        return statement

    if op in (OpKind.MUL, OpKind.MULLO):
        if any(_is_const(group, 0) for group in operands):
            return _mov(dests, Group((Const(0, dests.parts[-1].type),)))
        if _is_const(operands[0], 1):
            return _mov(dests, operands[1])
        if _is_const(operands[1], 1):
            return _mov(dests, operands[0])
        return statement

    if op is OpKind.SELECT:
        condition, if_true, if_false = operands
        if _is_const(condition):
            chosen = if_true if condition.parts[0].value else if_false
            return _mov(dests, chosen)
        if if_true == if_false:
            return _mov(dests, if_true)
        return statement

    if op in (OpKind.AND, OpKind.OR):
        left, right = operands
        if op is OpKind.AND:
            if _is_const(left, 0) or _is_const(right, 0):
                return _mov(dests, Group((Const(0, dests.parts[0].type),)))
            if _is_const(left, 1) and dests.bits == 1:
                return _mov(dests, right)
            if _is_const(right, 1) and dests.bits == 1:
                return _mov(dests, left)
        else:
            if _is_const(left, 0):
                return _mov(dests, right)
            if _is_const(right, 0):
                return _mov(dests, left)
            if (_is_const(left, 1) or _is_const(right, 1)) and dests.bits == 1:
                return _mov(dests, Group((Const(1, dests.parts[0].type),)))
        return statement

    if op in (OpKind.SHR, OpKind.SHL):
        if statement.attrs.get("amount", 0) == 0 and operands[0].bits <= dests.bits:
            return _mov(dests, operands[0])
        if _is_const(operands[0], 0):
            return _mov(dests, Group((Const(0, dests.parts[-1].type),)))
        return statement

    if op is OpKind.LT:
        # x < 0 is always false.
        if _is_const(operands[1], 0):
            return _mov(dests, Group((Const(0, dests.parts[0].type),)))
        return statement

    if op is OpKind.LE:
        # 0 <= x is always true.
        if _is_const(operands[0], 0):
            return _mov(dests, Group((Const(1, dests.parts[0].type),)))
        return statement

    return statement
