"""Executable Python backend.

Since this reproduction has no GPU, generated kernels are *executed* through
this backend: the legalized statement list is compiled to a Python function
(one expression per machine-word operation, exactly mirroring what the CUDA
code does with ``uint64_t``/``__int128``), and :class:`CompiledKernel` wraps
it with packing/unpacking between Python integers and machine-word limbs.
The NTT and BLAS libraries run on top of this backend, and the test suite
uses it to check the generated code against the :mod:`repro.arith` oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CodegenError
from repro.core.ir.kernel import Kernel
from repro.core.ir.ops import OpKind, Statement
from repro.core.ir.values import Const, Group
from repro.core.rewrite.legalize import is_machine_legal

__all__ = ["CompiledKernel", "compile_kernel", "generate_python_source"]


def _render_part(part) -> str:
    if isinstance(part, Const):
        return hex(part.value)
    return part.name


def _render_group(group: Group) -> str:
    """Render a group as a Python expression for its numeric value."""
    if len(group) == 1:
        return _render_part(group.parts[0])
    terms = []
    shift = 0
    for part in reversed(group.parts):
        rendered = _render_part(part)
        terms.append(rendered if shift == 0 else f"({rendered} << {shift})")
        shift += part.bits
    return "(" + " | ".join(reversed(terms)) + ")"


def _translate(statement: Statement, word_bits: int) -> list[str]:
    """Translate one machine-legal statement into Python source lines."""
    op = statement.op
    dests = statement.dests.parts
    operands = statement.operands
    mask = (1 << word_bits) - 1

    def assign_split(expression: str) -> list[str]:
        if len(dests) == 1:
            return [f"{dests[0].name} = {expression}"]
        high, low = dests
        return [
            f"_t = {expression}",
            f"{low.name} = _t & {hex(mask)}",
            f"{high.name} = _t >> {word_bits}",
        ]

    if op is OpKind.MOV:
        if len(dests) == 2:
            # Copy into a (carry, word) pair; the source fits in the low part.
            high, low = dests
            return [f"{low.name} = {_render_group(operands[0])}", f"{high.name} = 0"]
        return [f"{dests[0].name} = {_render_group(operands[0])}"]
    if op is OpKind.ADD:
        return assign_split(" + ".join(_render_group(group) for group in operands))
    if op is OpKind.SUB:
        terms = " - ".join(_render_group(group) for group in operands)
        if len(dests) == 2:
            # Subtract-with-borrow: wrap at the (flag + word) width, so the
            # top bit is the outgoing borrow.
            high, low = dests
            dest_mask = (1 << statement.dests.bits) - 1
            return [
                f"_t = ({terms}) & {hex(dest_mask)}",
                f"{low.name} = _t & {hex((1 << low.bits) - 1)}",
                f"{high.name} = _t >> {low.bits}",
            ]
        return [f"{dests[0].name} = ({terms}) & {hex((1 << dests[0].bits) - 1)}"]
    if op is OpKind.MUL:
        a, b = (_render_group(group) for group in operands)
        return assign_split(f"{a} * {b}")
    if op is OpKind.MULLO:
        a, b = (_render_group(group) for group in operands)
        return [f"{dests[0].name} = ({a} * {b}) & {hex((1 << dests[0].bits) - 1)}"]
    if op in (OpKind.LT, OpKind.LE, OpKind.EQ):
        symbol = {"lt": "<", "le": "<=", "eq": "=="}[op.value]
        a, b = (_render_group(group) for group in operands)
        return [f"{dests[0].name} = 1 if {a} {symbol} {b} else 0"]
    if op in (OpKind.AND, OpKind.OR):
        symbol = "&" if op is OpKind.AND else "|"
        a, b = (_render_group(group) for group in operands)
        return [f"{dests[0].name} = {a} {symbol} {b}"]
    if op is OpKind.NOT:
        a = _render_group(operands[0])
        dest_mask = (1 << statement.dests.bits) - 1
        return [f"{dests[0].name} = (~{a}) & {hex(dest_mask)}"]
    if op is OpKind.SELECT:
        condition, if_true, if_false = (_render_group(group) for group in operands)
        return [f"{dests[0].name} = {if_true} if {condition} else {if_false}"]
    if op in (OpKind.SHR, OpKind.SHL):
        amount = statement.attrs["amount"]
        a = _render_group(operands[0])
        symbol = ">>" if op is OpKind.SHR else "<<"
        expression = f"({a} {symbol} {amount})"
        if op is OpKind.SHL:
            expression = f"{expression} & {hex((1 << statement.dests.bits) - 1)}"
        return assign_split(expression) if len(dests) == 2 else [f"{dests[0].name} = {expression}"]
    raise CodegenError(f"no Python translation for operation {op.value}")


def generate_python_source(kernel: Kernel, function_name: str | None = None) -> str:
    """Generate the Python source of the kernel as a flat limb-level function."""
    word_bits = kernel.metadata.get("word_bits", 64)
    for statement in kernel.body:
        if not is_machine_legal(statement, word_bits):
            raise CodegenError(
                f"kernel {kernel.name!r} must be legalized before Python compilation; "
                f"offending statement: {statement}"
            )
    function_name = function_name or kernel.name
    parameters = ", ".join(param.name for param in kernel.params)
    lines = [f"def {function_name}({parameters}):"]
    for statement in kernel.body:
        for line in _translate(statement, word_bits):
            lines.append(f"    {line}")
    returns = ", ".join(output.name for output in kernel.outputs)
    lines.append(f"    return ({returns}{',' if len(kernel.outputs) == 1 else ''})")
    return "\n".join(lines) + "\n"


@dataclass
class CompiledKernel:
    """A legalized kernel compiled to a callable Python function.

    The callable works at the machine-word level (one argument per limb); the
    convenience methods pack and unpack Python integers according to the
    kernel's original interface, including limbs pruned away by the
    non-power-of-two optimization.
    """

    kernel: Kernel
    source: str
    function: object
    word_bits: int

    def __post_init__(self) -> None:
        self._param_layout = self.kernel.metadata["param_layout"]
        self._output_layout = self.kernel.metadata["output_layout"]
        self._original_params = self.kernel.metadata["original_params"]

    # -- integer-level interface -------------------------------------------

    def pack_inputs(self, values: dict[str, int]) -> list[int]:
        """Flatten original-parameter integers into the limb argument list."""
        mask = (1 << self.word_bits) - 1
        arguments: list[int] = []
        for name, bits, effective in self._original_params:
            if name not in values:
                raise CodegenError(f"missing value for parameter {name!r}")
            value = values[name]
            limit = effective if effective is not None else bits
            try:
                fits = 0 <= value and value.bit_length() <= limit
            except (AttributeError, TypeError):  # not an int
                fits = False
            if not fits:
                raise CodegenError(
                    f"value for {name!r} must be a non-negative integer of at "
                    f"most {limit} bits"
                )
            limb_names = self._param_layout[name]
            count = len(limb_names)
            total = bits // self.word_bits
            # Most-significant-first layout; pruned limbs are None and must be zero.
            for index, limb_name in enumerate(limb_names):
                shift = self.word_bits * (total - 1 - index)
                limb_value = (value >> shift) & mask
                if limb_name is None:
                    if limb_value:
                        raise CodegenError(
                            f"value for {name!r} has non-zero bits in a pruned limb"
                        )
                else:
                    arguments.append(limb_value)
        return arguments

    def unpack_outputs(self, raw: tuple) -> dict[str, int]:
        """Recombine the function's limb results into integers per output."""
        limb_values = dict(zip((output.name for output in self.kernel.outputs), raw))
        results: dict[str, int] = {}
        for name, limb_names in self._output_layout.items():
            value = 0
            for limb_name in limb_names:
                limb = 0 if limb_name is None else limb_values[limb_name]
                value = (value << self.word_bits) | limb
            results[name] = value
        return results

    def __call__(self, **values: int) -> dict[str, int]:
        """Run the kernel on original-interface integers."""
        raw = self.function(*self.pack_inputs(values))
        return self.unpack_outputs(raw)

    def call_limbs(self, *limb_arguments: int) -> tuple:
        """Run the kernel directly on machine-word limbs (no packing)."""
        return self.function(*limb_arguments)

    # -- pickling ----------------------------------------------------------
    #
    # The exec'd function cannot be pickled by reference (it lives in no
    # importable module), but the kernel and its source can — so a pickled
    # CompiledKernel ships (kernel, source, word_bits) and the receiving
    # process re-execs the source.  This is what lets the serving tier's
    # wire protocol move executable artifacts between shard processes.

    def __getstate__(self) -> dict:
        return {"kernel": self.kernel, "source": self.source, "word_bits": self.word_bits}

    def __setstate__(self, state: dict) -> None:
        self.kernel = state["kernel"]
        self.source = state["source"]
        self.word_bits = state["word_bits"]
        self.function = _exec_source(self.source, self.kernel.name)
        self.__post_init__()


def _exec_source(source: str, kernel_name: str):
    """Exec generated kernel source and return the single function it defines."""
    namespace: dict = {}
    exec(compile(source, f"<moma:{kernel_name}>", "exec"), namespace)  # noqa: S102
    functions = [value for name, value in namespace.items() if not name.startswith("__")]
    if len(functions) != 1 or not callable(functions[0]):
        raise CodegenError(
            f"generated source for {kernel_name!r} must define exactly one function"
        )
    return functions[0]


def compile_kernel(kernel: Kernel) -> CompiledKernel:
    """Compile a legalized kernel into a :class:`CompiledKernel`."""
    word_bits = kernel.metadata.get("word_bits", 64)
    source = generate_python_source(kernel, function_name="_generated")
    return CompiledKernel(
        kernel=kernel,
        source=source,
        function=_exec_source(source, kernel.name),
        word_bits=word_bits,
    )
