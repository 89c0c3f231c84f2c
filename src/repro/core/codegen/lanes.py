"""Lane-parallel C: a legalized kernel over eight elements per call.

The ``c99`` unit runs a kernel on one element per call.  This emitter
translates the same legalized statements onto a GCC vector type,
``uint64_t __attribute__((vector_size(64)))`` -- eight 64-bit lanes, one
AVX-512 register -- so one call computes eight elements or eight NTT
butterflies, as the paper's CUDA kernels run one element per thread:

* **Words.** A 64-bit word is a lane.  A 32-bit-word kernel keeps one word
  per 64-bit lane, so its double word is the lane itself, and the emitter
  masks to 32 bits wherever a C ``uint32_t`` would wrap.
* **Flags.** A 1-bit value is a lane mask, all ones or zero, as vector
  comparisons yield it: a carry or borrow is an unsigned comparison,
  adding a flag subtracts its mask, and a select is a bitwise blend.
* **Products.** A 64 x 64 -> 128-bit product is four 32 x 32 -> 64-bit
  partial products (``_mm512_mul_epu32``); a 32-bit word product is one.
* **Uniform parameters** (the modulus, the Barrett constant) are broadcast
  to every lane once per call.

The lane routine reads its inputs from, and writes its outputs to, a tile
of vectors on the caller's stack; it is compiled once and called by the two
exported loops, which keep the ``c99`` unit's signatures and element-major
limb layout, so the conversion helper and the engines are unchanged:

* ``<kernel>_batch`` gathers eight elements' limbs into the tile (one
  vector per limb), runs the routine and scatters the results back.  A
  last, short group repeats its first element in the unused lanes and
  stores only the used ones.
* ``<kernel>_ntt`` (Cooley-Tukey butterflies only) runs each stage's
  ``n/2`` butterflies eight at a time in place, then, given the packed
  ``n^{-1}``, scales every element by it with ``n`` butterflies at
  ``x = 0``: the inverse transform's last step.

The unit needs AVX-512F (vector types, ``_mm512_mul_epu32``) and AVX-512DQ
(64-bit lane products, mask moves); the native target builds it with
:data:`ISA_FLAGS` on hosts that have both.  Explicit vector types, not the
compiler's auto-vectorizer: in a trial on a 2-core Xeon with gcc 12,
``#pragma omp simd`` over the scalar routine took 22-30 s and about 1 GB of
``cc1`` for one 768-bit kernel, where this unit builds its 768-bit ``vmul``
in under 5 s and 185 MB.
"""

from __future__ import annotations

from repro.errors import CodegenError
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group, Var
from repro.core.codegen.common import check_legal, collect_locals

__all__ = ["ISA_FLAGS", "LANES", "generate_lanes", "transform_layout"]

#: Elements (or butterflies) per lane routine call.
LANES = 8
#: Compiler flags the unit needs: the instruction sets it is written for.
ISA_FLAGS = ("-mavx512f", "-mavx512dq")

_PRELUDE = """\
/* Auto-generated by repro (MoMA rewrite system) — do not edit.
 * Kernel: {name}, {lanes} lanes.
 * Machine word: {word} bits, multiplication: {algorithm}.
 */
#include <stdint.h>
#include <stddef.h>
#include <immintrin.h>

typedef uint64_t lane_t __attribute__((vector_size(64)));

/* c in every lane. */
#define SPLAT(c) ((lane_t){{0}} + (c))
/* Each lane's number. */
#define LANE ((lane_t){{0, 1, 2, 3, 4, 5, 6, 7}})
/* The words at base + offset, per lane's offset (in words). */
#define GATHER(base, offset) {gather}
/* Store value's first used lanes at base + offset. */
#define SCATTER(base, used, offset, value) {scatter}
/* The 64-bit products of the lanes' low 32-bit halves. */
#define MUL32(a, b) ((lane_t)_mm512_mul_epu32((__m512i)(a), (__m512i)(b)))

/* The 128-bit products of a and b: high words returned, low words at *low. */
static inline __attribute__((always_inline)) lane_t mul_wide(lane_t a, lane_t b, lane_t *low)
{{
    const lane_t ll = MUL32(a, b), lh = MUL32(a, b >> 32);
    const lane_t hl = MUL32(a >> 32, b), hh = MUL32(a >> 32, b >> 32);
    const lane_t middle = lh + (ll >> 32);
    const lane_t cross = hl + (middle & 0xffffffffULL);
    *low = (cross << 32) | (ll & 0xffffffffULL);
    return hh + (middle >> 32) + (cross >> 32);
}}
"""


#: GATHER and SCATTER by word width: a 32-bit word widens into its lane.
_MEMORY = {
    64: (
        "((lane_t)_mm512_i64gather_epi64((__m512i)(offset), (const void *)(base), 8))",
        "_mm512_mask_i64scatter_epi64((void *)(base), (__mmask8)((1u << (used)) - 1), "
        "(__m512i)(offset), (__m512i)(value), 8)",
    ),
    32: (
        "((lane_t)_mm512_cvtepu32_epi64(_mm512_i64gather_epi32((__m512i)(offset), "
        "(const void *)(base), 4)))",
        "_mm512_mask_i64scatter_epi32((void *)(base), (__mmask8)((1u << (used)) - 1), "
        "(__m512i)(offset), _mm512_cvtepi64_epi32((__m512i)(value)), 4)",
    ),
}


def _literal(value: int) -> str:
    return f"SPLAT({value:#x}ULL)"


class LaneTranslator:
    """Translates one machine-legal statement into lane-vector C statements.

    A word variable holds its value in each lane; a 1-bit variable holds a
    lane mask.  :meth:`word` and :meth:`mask` render any operand part in
    either form.
    """

    def __init__(self, word_bits: int) -> None:
        self._word_bits = word_bits
        self._scratch_counter = 0

    # -- operand rendering -------------------------------------------------

    @staticmethod
    def word(part) -> str:
        """The part's value in each lane."""
        if isinstance(part, Const):
            return _literal(part.value)
        return f"(-{part.name})" if part.bits == 1 else part.name

    @staticmethod
    def mask(part) -> str:
        """All ones in the lanes where the part is nonzero."""
        if isinstance(part, Const):
            return _literal((1 << 64) - 1 if part.value else 0)
        return part.name if part.bits == 1 else f"(lane_t)({part.name} != {_literal(0)})"

    def _scratch(self) -> str:
        self._scratch_counter += 1
        return f"_l{self._scratch_counter}"

    def _wrap(self, expression: str) -> str:
        """``expression`` cut to a machine word (32-bit words share a lane)."""
        if self._word_bits == 64:
            return expression
        return f"({expression}) & {_literal((1 << self._word_bits) - 1)}"

    @staticmethod
    def _put(dest: Var, value: str) -> str:
        """Assign a lane value (0 or 1 for a flag destination)."""
        return f"{dest.name} = -({value});" if dest.bits == 1 else f"{dest.name} = {value};"

    @staticmethod
    def _put_mask(dest: Var, mask: str) -> str:
        """Assign a lane mask (as 0 or 1 to a word destination)."""
        return f"{dest.name} = {mask};" if dest.bits == 1 else f"{dest.name} = -({mask});"

    # -- statement translation ----------------------------------------------

    def translate(self, statement: Statement) -> list[str]:
        """Return the C statements implementing one IR statement."""
        op = statement.op
        handler = getattr(self, f"_emit_{op.value}", None)
        if handler is None:
            raise CodegenError(f"no lane translation for operation {op.value}")
        return handler(statement)

    @staticmethod
    def _single_parts(statement: Statement) -> list:
        return [group.parts[0] for group in statement.operands]

    def _emit_mov(self, statement: Statement) -> list[str]:
        source = statement.operands[0].parts[0]
        *high, low = statement.dests.parts
        line = (
            f"{low.name} = {self.mask(source)};"
            if low.bits == 1
            else f"{low.name} = {self.word(source)};"
        )
        return [line] + [f"{part.name} = {_literal(0)};" for part in high]

    def _emit_add(self, statement: Statement) -> list[str]:
        parts = self._single_parts(statement)
        dests = statement.dests.parts
        if len(dests) == 1 and dests[0].bits == 1 and all(part.bits == 1 for part in parts):
            # Bits that sum to one bit: at most one is set.
            return [f"{dests[0].name} = " + " ^ ".join(map(self.mask, parts)) + ";"]
        terms = [self.word(parts[0])] + [
            f"- {part.name}" if isinstance(part, Var) and part.bits == 1 else f"+ {self.word(part)}"
            for part in parts[1:]
        ]
        total = " ".join(terms)
        if len(dests) == 1:
            return [self._put(dests[0], total)]
        high, low = dests
        if self._word_bits == 32:
            scratch = self._scratch()
            return [
                f"const lane_t {scratch} = {total};",
                self._put(low, self._wrap(scratch)),
                self._put(high, f"{scratch} >> 32"),
            ]
        # A running sum: each step carries out where it wrapped below its addend.
        lines, carries, running = [], [], self.word(parts[0])
        for part in parts[1:]:
            step = self._scratch()
            if isinstance(part, Var) and part.bits == 1:
                lines.append(f"const lane_t {step} = {running} - {part.name};")
                carries.append(f"(lane_t)({step} < {running})")
            else:
                addend = self.word(part)
                lines.append(f"const lane_t {step} = {running} + {addend};")
                carries.append(f"(lane_t)({step} < {addend})")
            running = step
        lines.append(self._put(low, running))
        if high.bits == 1:
            # The sum fits its destination: at most one step carries.
            lines.append(f"{high.name} = " + " | ".join(carries) + ";")
        else:
            lines.append(f"{high.name} = {_literal(0)} - " + " - ".join(carries) + ";")
        return lines

    def _emit_sub(self, statement: Statement) -> list[str]:
        parts = self._single_parts(statement)
        dests = statement.dests.parts
        if len(dests) == 1 and dests[0].bits == 1 and all(part.bits == 1 for part in parts):
            # Subtraction modulo 2 is exclusive or.
            return [f"{dests[0].name} = " + " ^ ".join(map(self.mask, parts)) + ";"]
        terms = [self.word(parts[0])] + [
            f"+ {part.name}" if isinstance(part, Var) and part.bits == 1 else f"- {self.word(part)}"
            for part in parts[1:]
        ]
        difference = " ".join(terms)
        if len(dests) == 1:
            dest = dests[0]
            if dest.bits < self._word_bits:
                return [self._put(dest, f"({difference}) & {_literal((1 << dest.bits) - 1)}")]
            return [self._put(dest, self._wrap(difference))]
        high, low = dests
        if self._word_bits == 32:
            scratch = self._scratch()
            return [
                f"const lane_t {scratch} = {difference};",
                self._put(low, self._wrap(scratch)),
                self._put(high, f"({scratch} >> 32) & {_literal(1)}"),
            ]
        # The outgoing borrow is bit 64 of the wrapped difference: the
        # exclusive or of each step's borrow.
        lines, borrows, running = [], [], self.word(parts[0])
        for part in parts[1:]:
            step = self._scratch()
            if isinstance(part, Var) and part.bits == 1:
                lines.append(f"const lane_t {step} = {running} + {part.name};")
                borrows.append(f"(lane_t)({step} > {running})")
            else:
                subtrahend = self.word(part)
                lines.append(f"const lane_t {step} = {running} - {subtrahend};")
                borrows.append(f"(lane_t)({running} < {subtrahend})")
            running = step
        lines.append(self._put(low, running))
        lines.append(self._put_mask(high, " ^ ".join(borrows)))
        return lines

    def _emit_mul(self, statement: Statement) -> list[str]:
        a, b = (self.word(part) for part in self._single_parts(statement))
        dests = statement.dests.parts
        if self._word_bits == 32:
            if len(dests) == 1:
                return [self._put(dests[0], f"MUL32({a}, {b})")]
            scratch = self._scratch()
            high, low = dests
            return [
                f"const lane_t {scratch} = MUL32({a}, {b});",
                self._put(low, self._wrap(scratch)),
                self._put(high, f"{scratch} >> 32"),
            ]
        if len(dests) == 1:
            return [self._put(dests[0], f"{a} * {b}")]
        high, low = dests
        if high.bits > 1 and low.bits > 1:
            return [f"{high.name} = mul_wide({a}, {b}, &{low.name});"]
        scratch = self._scratch()
        return [
            f"lane_t {scratch};",
            self._put(high, f"mul_wide({a}, {b}, &{scratch})"),
            self._put(low, scratch),
        ]

    def _emit_mullo(self, statement: Statement) -> list[str]:
        a, b = (self.word(part) for part in self._single_parts(statement))
        product = f"{a} * {b}" if self._word_bits == 64 else self._wrap(f"MUL32({a}, {b})")
        return [self._put(statement.dests.parts[0], product)]

    def _emit_lt(self, statement: Statement) -> list[str]:
        return self._emit_comparison(statement, "<")

    def _emit_le(self, statement: Statement) -> list[str]:
        return self._emit_comparison(statement, "<=")

    def _emit_eq(self, statement: Statement) -> list[str]:
        return self._emit_comparison(statement, "==")

    def _emit_comparison(self, statement: Statement, operator: str) -> list[str]:
        a, b = (self.word(part) for part in self._single_parts(statement))
        return [self._put_mask(statement.dests.parts[0], f"(lane_t)({a} {operator} {b})")]

    def _emit_and(self, statement: Statement) -> list[str]:
        return self._emit_bitwise(statement, "&")

    def _emit_or(self, statement: Statement) -> list[str]:
        return self._emit_bitwise(statement, "|")

    def _emit_bitwise(self, statement: Statement, operator: str) -> list[str]:
        a, b = self._single_parts(statement)
        dest = statement.dests.parts[0]
        if dest.bits == 1 and a.bits == 1 and b.bits == 1:
            return [f"{dest.name} = {self.mask(a)} {operator} {self.mask(b)};"]
        return [self._put(dest, f"{self.word(a)} {operator} {self.word(b)}")]

    def _emit_not(self, statement: Statement) -> list[str]:
        source = statement.operands[0].parts[0]
        dest = statement.dests.parts[0]
        if dest.bits == 1:
            return [f"{dest.name} = ~{self.mask(source)};"]
        return [self._put(dest, self._wrap(f"~{self.word(source)}"))]

    def _emit_select(self, statement: Statement) -> list[str]:
        condition, if_true, if_false = self._single_parts(statement)
        dest = statement.dests.parts[0]
        mask = self.mask(condition)
        render = self.mask if dest.bits == 1 else self.word
        return [
            f"{dest.name} = ({mask} & {render(if_true)}) | (~{mask} & {render(if_false)});"
        ]

    def _emit_shr(self, statement: Statement) -> list[str]:
        return self._emit_shift(statement, ">>")

    def _emit_shl(self, statement: Statement) -> list[str]:
        return self._emit_shift(statement, "<<")

    def _emit_shift(self, statement: Statement, operator: str) -> list[str]:
        amount = statement.attrs["amount"]
        operand = statement.operands[0]
        dests = statement.dests.parts
        word_bits = self._word_bits
        if len(operand) == 1 and len(dests) == 1 and amount < word_bits:
            shifted = f"{self.word(operand.parts[0])} {operator} {amount}"
            return [self._put(dests[0], shifted if operator == ">>" else self._wrap(shifted))]
        if word_bits == 32:
            # The double word is the lane.
            double = self._double32(operand)
            shifted = _literal(0) if amount >= 64 else f"({double}) {operator} {amount}"
            scratch = self._scratch()
            lines = [f"const lane_t {scratch} = {shifted};"]
            *high, low = dests
            lines.append(self._put(low, self._wrap(scratch)))
            lines += [self._put(part, f"{scratch} >> 32") for part in high]
            return lines
        high_word, low_word = self._double64(operand)
        high_out, low_out = _shift128(high_word, low_word, operator, amount)
        *high, low = dests
        return [self._put(low, low_out)] + [self._put(part, high_out) for part in high]

    def _double32(self, group: Group) -> str:
        if len(group) == 1:
            return self.word(group.parts[0])
        high, low = group.parts
        return f"({self.word(high)} << 32) | {self.word(low)}"

    def _double64(self, group: Group) -> tuple[str, str]:
        if len(group) == 1:
            return _literal(0), self.word(group.parts[0])
        high, low = group.parts
        return self.word(high), self.word(low)


def _shift128(high: str, low: str, operator: str, amount: int) -> tuple[str, str]:
    """The (high, low) words of a two-word lane value shifted by ``amount``."""
    zero = _literal(0)
    if amount == 0:
        return high, low
    if amount >= 128:
        return zero, zero
    if operator == ">>":
        if amount >= 64:
            return zero, f"{high} >> {amount - 64}" if amount > 64 else high
        return f"{high} >> {amount}", f"({low} >> {amount}) | ({high} << {64 - amount})"
    if amount >= 64:
        return (f"{low} << {amount - 64}" if amount > 64 else low), zero
    return f"({high} << {amount}) | ({low} >> {64 - amount})", f"{low} << {amount}"


# -- the unit ----------------------------------------------------------------------


def transform_layout(kernel: Kernel) -> tuple[int, int]:
    """A Cooley-Tukey butterfly's in-place transform layout: the limbs per
    element (the full ``x`` container) and the kept twiddle limbs.

    Raises :class:`CodegenError` unless the outputs fill the inputs'
    container, so each butterfly can write its results back in place.
    """
    param_layout = kernel.metadata["param_layout"]
    output_layout = kernel.metadata["output_layout"]
    stride = len(param_layout["x"])
    if any(
        len(limbs) != stride or None in limbs
        for limbs in (output_layout["x_out"], output_layout["y_out"])
    ) or len(param_layout["y"]) != stride:
        raise CodegenError(
            f"kernel {kernel.name!r} has no in-place transform layout: its "
            f"outputs must fill the inputs' {stride}-limb container"
        )
    return stride, sum(limb is not None for limb in param_layout["w"])


def _kept(layout: dict) -> list[str]:
    """A layout's kept limbs, in order."""
    return [limb for limbs in layout.values() for limb in limbs if limb is not None]


def _slots(layout: dict) -> dict[str, list[tuple[int, int]]]:
    """Each parameter's (tile slot, container index) pairs for its kept limbs."""
    slots, slot = {}, 0
    for name, limbs in layout.items():
        slots[name] = []
        for index, limb in enumerate(limbs):
            if limb is not None:
                slots[name].append((slot, index))
                slot += 1
    return slots


def _lane_routine(kernel: Kernel, word_bits: int) -> str:
    """``<kernel>_lanes(out, in)``: the kernel body on eight lanes, reading
    its parameters' kept limbs from ``in`` and writing its outputs' to
    ``out``, in layout order, as values (a flag crosses as 0 or 1)."""
    metadata = kernel.metadata
    translator = LaneTranslator(word_bits)
    lines = [
        f"static __attribute__((noinline)) void {kernel.name}_lanes("
        "lane_t *restrict out, const lane_t *restrict in)",
        "{",
    ]
    variables = {var.name: var for var in [*kernel.params, *kernel.outputs]}
    params = [variables[limb] for limb in _kept(metadata["param_layout"])]
    outputs = [variables[limb] for limb in _kept(metadata["output_layout"])]
    lines += [
        f"    const lane_t {var.name} = {'-' if var.bits == 1 else ''}in[{slot}];"
        for slot, var in enumerate(params)
    ]
    lines += [f"    lane_t {var.name} = {_literal(0)};" for var in outputs]
    lines += [f"    lane_t {local.name};" for local in collect_locals(kernel)]
    for statement in kernel.body:
        lines += [f"    {line}" for line in translator.translate(statement)]
    lines += [f"    out[{slot}] = {translator.word(var)};" for slot, var in enumerate(outputs)]
    lines.append("}")
    return "\n".join(lines)


def _broadcasts(slots, uniform) -> list[str]:
    """Tile lines broadcasting the uniform parameters' scalar arguments."""
    return [
        f"    in[{slot}] = SPLAT({name}_{number});"
        for name in uniform
        for number, (slot, _) in enumerate(slots[name])
    ]


def _batch_loop(kernel: Kernel, word: str) -> str:
    """``<kernel>_batch`` over eight elements per lane routine call."""
    metadata = kernel.metadata
    uniform = set(metadata.get("uniform_params", ()))
    inputs = _slots(metadata["param_layout"])
    outputs = _slots(metadata["output_layout"])
    arguments = []
    for name, slots in inputs.items():
        if name in uniform:
            arguments += [f"{word} {name}_{number}" for number in range(len(slots))]
        else:
            arguments.append(f"const {word} *{name}")
    arguments += [f"{word} *{name}" for name in outputs]
    arguments.append("size_t batch_size")
    gather = [
        f"        in[{slot}] = GATHER({name} + {number}, element * {len(slots)});"
        for name, slots in inputs.items()
        if name not in uniform
        for number, (slot, _) in enumerate(slots)
    ]
    scatter = [
        f"        SCATTER({name} + {number}, used, (SPLAT(first) + LANE) * {len(slots)}, "
        f"out[{slot}]);"
        for name, slots in outputs.items()
        for number, (slot, _) in enumerate(slots)
    ]
    return "\n".join(
        [
            f"void {kernel.name}_batch(" + ", ".join(arguments) + ") {",
            f"    lane_t in[{_count(inputs)}], out[{_count(outputs)}];",
            *_broadcasts(inputs, [name for name in inputs if name in uniform]),
            f"    for (size_t first = 0; first < batch_size; first += {LANES}) {{",
            f"        {_used('batch_size')}",
            f"        const lane_t element = {_first_used('first')};",
            *gather,
            f"        {kernel.name}_lanes(out, in);",
            *scatter,
            "    }",
            "}",
        ]
    )


def _count(slots: dict) -> int:
    return sum(map(len, slots.values()))


def _used(total: str) -> str:
    """The C declaration of ``used``: the lanes of the group from ``first``
    that hold one of ``total`` elements."""
    return f"const size_t used = {total} - first < {LANES} ? {total} - first : {LANES};"


def _first_used(first: str) -> str:
    """Lane numbers counted from ``first``; the lanes at or past the C
    variable ``used`` repeat ``first``, so they read a real element."""
    return f"SPLAT({first}) + (LANE & (lane_t)(LANE < SPLAT(used)))"


def _transform_loop(kernel: Kernel, word: str) -> str:
    """``<kernel>_ntt``: the in-place radix-2 NTT, eight butterflies per
    lane routine call, then the optional ``n^{-1}`` scaling.

    ``data`` holds ``size`` elements of ``stride`` limbs in bit-reversed
    order and ``twiddles`` the plan's ``size / 2`` root powers in the ``w``
    parameter's kept limbs, as for the scalar transform.  Butterfly ``k``
    of the stage pairing elements ``half`` apart has offset ``j = k mod
    half`` in its block, so it pairs elements ``2k - j`` and ``2k - j +
    half`` under twiddle ``j * size / (2 * half)``.
    """
    stride, twiddle_limbs = transform_layout(kernel)
    metadata = kernel.metadata
    inputs = _slots(metadata["param_layout"])
    outputs = _slots(metadata["output_layout"])
    uniform = [name for name in inputs if name in metadata.get("uniform_params", ())]
    unexpected = set(inputs) - {"x", "y", "w", *uniform}
    if unexpected:
        raise CodegenError(f"unexpected butterfly parameter {sorted(unexpected)[0]!r}")
    arguments = [f"{word} *data", f"const {word} *twiddles", f"const {word} *scale"]
    arguments += [
        f"{word} {name}_{number}" for name in uniform for number in range(len(inputs[name]))
    ]
    arguments.append("size_t size")

    def gather(name: str, offset: str, indent: int) -> list[str]:
        # Elements hold the full container; twiddles only the kept limbs.
        source = "twiddles" if name == "w" else "data"
        return [
            f"{' ' * indent}in[{slot}] = "
            f"GATHER({source} + {number if name == 'w' else index}, {offset});"
            for number, (slot, index) in enumerate(inputs[name])
        ]

    def scatter(name: str, offset: str, indent: int) -> list[str]:
        return [
            f"{' ' * indent}SCATTER(data + {index}, used, {offset}, out[{slot}]);"
            for slot, index in outputs[name]
        ]

    return "\n".join(
        [
            f"void {kernel.name}_ntt(" + ", ".join(arguments) + ") {",
            f"    lane_t in[{_count(inputs)}], out[{_count(outputs)}];",
            *_broadcasts(inputs, uniform),
            "    for (size_t half = 1; half < size; half <<= 1) {",
            f"        const size_t step = size / (2 * half) * {twiddle_limbs};",
            f"        for (size_t first = 0; first < size / 2; first += {LANES}) {{",
            f"            {_used('size / 2')}",
            f"            const lane_t k = {_first_used('first')}, j = k & (half - 1);",
            f"            const lane_t u = (2 * k - j) * {stride}, v = u + half * {stride};",
            *gather("x", "u", 12),
            *gather("y", "v", 12),
            *gather("w", "j * step", 12),
            f"            {kernel.name}_lanes(out, in);",
            *scatter("x_out", "u", 12),
            *scatter("y_out", "v", 12),
            "        }",
            "    }",
            "    if (scale == NULL)",
            "        return;",
            *[f"    in[{slot}] = SPLAT(0);" for slot, _ in inputs["x"]],
            *[
                f"    in[{slot}] = SPLAT(scale[{number}]);"
                for number, (slot, _) in enumerate(inputs["w"])
            ],
            f"    for (size_t first = 0; first < size; first += {LANES}) {{",
            f"        {_used('size')}",
            f"        const lane_t element = ({_first_used('first')}) * {stride};",
            *gather("y", "element", 8),
            f"        {kernel.name}_lanes(out, in);",
            *scatter("x_out", "element", 8),
            "    }",
            "}",
        ]
    )


def generate_lanes(kernel: Kernel, transform: bool = False) -> str:
    """The lane unit of a legalized kernel: the lane routine and
    ``<kernel>_batch``, plus ``<kernel>_ntt`` when ``transform`` is set
    (the kernel must be a Cooley-Tukey butterfly)."""
    word_bits = kernel.metadata.get("word_bits", 64)
    if word_bits not in (32, 64):
        raise CodegenError(f"lane units support 32- and 64-bit machine words, got {word_bits}")
    check_legal(kernel, word_bits)
    word = f"uint{word_bits}_t"
    sections = [
        _PRELUDE.format(
            gather=_MEMORY[word_bits][0],
            scatter=_MEMORY[word_bits][1],
            name=kernel.name,
            lanes=LANES,
            word=word_bits,
            algorithm=kernel.metadata.get("multiplication", "schoolbook"),
        ),
        _lane_routine(kernel, word_bits),
        "",
        _batch_loop(kernel, word),
    ]
    if transform:
        sections += ["", _transform_loop(kernel, word)]
    return "\n".join(sections) + "\n"
