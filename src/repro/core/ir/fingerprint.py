"""Structural fingerprints of kernels.

Two views answer "is this the same kernel?":

* :func:`body_signature` detects *change inside one process*: it builds a
  cheap hashable tuple per statement (no string formatting) and hashes it.
  The optimization pipeline's fixed-point loop compares statement identities
  instead, since its passes keep what they do not rewrite; the tests iterate
  the passes until this hash repeats, as the structural reference that loop
  must agree with;
* the driver's content-addressed kernel cache needs a key that is *stable
  across sessions and processes* — :func:`kernel_digest` feeds a canonical
  rendering of the whole kernel (interface, body, metadata) through SHA-256,
  so equal IR always produces the same hex key regardless of object identity
  or hash randomization.

Both walk the same per-statement structure, so the two views cannot drift
apart.
"""

from __future__ import annotations

import hashlib

from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import Statement
from repro.core.ir.values import Const, Var

__all__ = [
    "statement_signature",
    "body_signature",
    "kernel_signature",
    "kernel_digest",
]


def _part_token(part) -> tuple:
    """A hashable token for one group part (variable or constant)."""
    if isinstance(part, Const):
        return ("c", part.value, part.type.bits)
    return ("v", part.name, part.type.bits, part.effective_bits)


def statement_signature(statement: Statement) -> tuple:
    """A hashable structural summary of one statement."""
    return (
        statement.op.value,
        tuple(_part_token(part) for part in statement.dests),
        tuple(
            tuple(_part_token(part) for part in group) for group in statement.operands
        ),
        tuple(sorted(statement.attrs.items())),
    )


def body_signature(kernel: Kernel) -> int:
    """A cheap intra-process hash of the kernel body.

    Detects a structural change without re-stringifying every statement;
    the structural reference for the fixed point of
    :func:`repro.core.passes.pipeline.optimize`.  The value is only
    meaningful within one process (``hash`` of strings is randomized per
    interpreter); use :func:`kernel_digest` for persistent keys.
    """
    return hash(tuple(statement_signature(statement) for statement in kernel.body))


def kernel_signature(kernel: Kernel) -> tuple:
    """A hashable structural summary of the whole kernel (interface + body)."""
    return (
        kernel.name,
        tuple(_part_token(param) for param in kernel.params),
        tuple(_part_token(output) for output in kernel.outputs),
        tuple(statement_signature(statement) for statement in kernel.body),
    )


def _canonical(value) -> str:
    """Render a metadata value deterministically (sorted dicts, typed reprs)."""
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda item: repr(item[0]))
        return "{" + ",".join(f"{_canonical(k)}:{_canonical(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    return repr(value)


def kernel_digest(kernel: Kernel, extra: tuple = ()) -> str:
    """A stable SHA-256 content address for a kernel.

    The digest covers the kernel's name, interface, body and metadata, plus
    any ``extra`` context the caller mixes in (compilation options, target
    name, pipeline identity).  Equal inputs give equal digests across
    processes, which is what makes the driver cache content-addressed rather
    than identity-based.
    """
    hasher = hashlib.sha256()
    hasher.update(repr(kernel_signature(kernel)).encode())
    hasher.update(_canonical(kernel.metadata).encode())
    hasher.update(_canonical(extra).encode())
    return hasher.hexdigest()
