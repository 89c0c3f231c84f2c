"""Constant folding and zero-operation pruning.

This pass is what turns the paper's non-power-of-two representation
(Equation 35: high words known to be zero become constants during splitting)
into actual savings: operations whose operands are compile-time constants are
evaluated at code-generation time, additions of zero and multiplications by
zero collapse, selects with constant conditions pick a branch, and the
resulting constants keep propagating until nothing more folds.

The pass works on legalized or non-legalized kernels alike; it only assumes
SSA form.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group, Var

__all__ = ["fold_constants"]


def _const_value(part, known: dict[str, Const]):
    """Return the constant for a part if it is known, else None."""
    if isinstance(part, Const):
        return part.value
    replacement = known.get(part.name)
    return replacement.value if replacement is not None else None


def _group_const_value(group: Group, known: dict[str, Const]):
    """Numeric value of a group if every part is known, else None."""
    values = []
    for part in group:
        value = _const_value(part, known)
        if value is None:
            return None
        values.append(value)
    return group.compose(values)


def _substitute(group: Group, known: dict[str, Const]) -> Group:
    """Replace known-constant variables inside a group with constants."""
    parts = []
    changed = False
    for part in group:
        if isinstance(part, Var) and part.name in known:
            constant = known[part.name]
            parts.append(Const(constant.value, part.type))
            changed = True
        else:
            parts.append(part)
    return Group(tuple(parts)) if changed else group


def fold_constants(kernel: Kernel) -> Kernel:
    """Return a new kernel with constants propagated and folded.

    Statements whose destinations all become known constants are dropped
    (their values flow into later statements as constants), except when a
    destination is a kernel output, in which case a ``mov`` of the constant
    is kept so the output remains defined.  A statement with no operand
    rewritten, and an output's ``mov`` of its own folded constant, are kept
    as the same object.
    """
    output_names = {output.name for output in kernel.outputs}
    known: dict[str, Const] = {}
    new_body: list[Statement] = []

    for statement in kernel.body:
        operands = tuple(_substitute(group, known) for group in statement.operands)
        if operands != statement.operands:
            statement = Statement(statement.op, statement.dests, operands, dict(statement.attrs))

        folded = _try_fold(statement, known)
        if folded is None:
            new_body.append(statement)
            continue
        # All destinations have compile-time values.
        for dest, value in folded.items():
            constant = Const(value, dest.type)
            known[dest.name] = constant
            if dest.name not in output_names:
                continue
            mov = Statement(OpKind.MOV, Group((dest,)), (Group((constant,)),))
            new_body.append(statement if statement == mov else mov)

    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        outputs=list(kernel.outputs),
        body=new_body,
        metadata=dict(kernel.metadata),
    )


def _try_fold(statement: Statement, known: dict[str, Const]):
    """Try to evaluate a statement at compile time.

    Returns a mapping ``{dest_var: value}`` when every destination value is
    known, or ``None`` when the statement must be kept.  Partial
    simplifications (e.g. ``x + 0``) are handled by returning ``None`` here
    and leaving them to :func:`simplify_statement` via the pipeline.
    """
    op = statement.op
    values = [_group_const_value(group, known) for group in statement.operands]
    if any(value is None for value in values):
        return None
    dest_bits = statement.dests.bits

    if op is OpKind.MOV:
        result = values[0]
    elif op is OpKind.ADD:
        result = sum(values)
    elif op is OpKind.SUB:
        result = (values[0] - values[1] - (values[2] if len(values) == 3 else 0)) % (1 << dest_bits)
    elif op is OpKind.MUL:
        result = values[0] * values[1]
    elif op is OpKind.MULLO:
        result = (values[0] * values[1]) % (1 << dest_bits)
    elif op is OpKind.LT:
        result = int(values[0] < values[1])
    elif op is OpKind.LE:
        result = int(values[0] <= values[1])
    elif op is OpKind.EQ:
        result = int(values[0] == values[1])
    elif op is OpKind.AND:
        result = values[0] & values[1]
    elif op is OpKind.OR:
        result = values[0] | values[1]
    elif op is OpKind.NOT:
        result = (~values[0]) % (1 << dest_bits)
    elif op is OpKind.SELECT:
        result = values[1] if values[0] else values[2]
    elif op is OpKind.SHR:
        result = values[0] >> statement.attrs["amount"]
    elif op is OpKind.SHL:
        result = (values[0] << statement.attrs["amount"]) % (1 << dest_bits)
    elif op is OpKind.REDUCE:
        value, modulus = values
        result = value - modulus if value >= modulus else value
    elif op in (OpKind.ADDMOD, OpKind.SUBMOD, OpKind.MULMOD):
        a, b, q = values[:3]
        if q == 0:
            raise IRError(f"zero modulus constant in {statement}")
        if op is OpKind.ADDMOD:
            result = (a + b) % q
        elif op is OpKind.SUBMOD:
            result = (a - b) % q
        else:
            result = (a * b) % q
    else:  # pragma: no cover - exhaustiveness guard
        return None

    if result >> dest_bits:
        raise IRError(f"constant folding overflowed destination in {statement}")
    part_values = statement.dests.decompose(result)
    return {dest: value for dest, value in zip(statement.dests.parts, part_values)}
