"""Native execution target: the c99 translation unit, built and loaded.

The ``c99`` backend emits a scalar routine plus a ``<kernel>_batch`` loop.
This target compiles that translation unit once with the host C compiler
(``cc -O2 -shared -fPIC``) and binds it with :mod:`ctypes`, so a whole
vector — and, for Cooley-Tukey butterflies, a whole NTT — runs in machine
code in one call instead of one Python call per element.

* **Cache.** Libraries live under ``$XDG_CACHE_HOME/repro/native``
  (``~/.cache/repro/native`` when the variable is unset), named by the
  SHA-256 of the C source, the compiler's identity (the executable ``cc``
  resolves to, with its size and modification time) and the flags.  An
  entry is installed by atomic rename and ends in a trailer holding the
  digest of the library bytes, so a truncated or damaged entry is rebuilt
  instead of loaded.
* **Compiler.** ``cc`` is looked up on ``PATH`` at each build, never at
  import, and runs only on a cache miss: a warm cache spawns no process.
* **Layout.** A vector argument is packed limb-major: each element's
  non-pruned limbs, most significant first, in native byte order — the
  layout of the ``_batch`` loop and of the CUDA kernel.
* **Transform.** For a Cooley-Tukey butterfly the library also exports
  ``<kernel>_ntt``, which runs all ``log2(n)`` stages of the iterative
  transform (:mod:`repro.ntt.iterative`) in place over an array already in
  bit-reversed order, reading the twiddles from a table of the plan's
  ``n/2`` root powers.

The engines (:class:`~repro.poly.blas.MomaBlasEngine`,
:class:`~repro.ntt.generated.GeneratedNTT`) use :func:`native_build`, which
answers ``None`` on a machine without ``cc`` so they keep the
``python_exec`` path there.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from array import array
from collections.abc import Sequence
from pathlib import Path

from repro.atomic_files import path_lock, replace_atomically
from repro.errors import CodegenError
from repro.core.codegen.c99 import generate_c99
from repro.core.codegen.common import CTypes
from repro.core.ir.kernel import Kernel

__all__ = [
    "FLAGS",
    "WORD_BITS",
    "NativeKernel",
    "cache_directory",
    "compile_native",
    "native_build",
]

#: Compiler flags; part of every cache key.
FLAGS = ("-O2", "-shared", "-fPIC")
#: Machine word widths the target builds (the C backends' widths).
WORD_BITS = (32, 64)

_TRAILER_MAGIC = b"\0repro-native-1\0"
_TRAILER_BYTES = len(_TRAILER_MAGIC) + hashlib.sha256().digest_size
_SWAP_BYTES = sys.byteorder == "little"
_TYPECODES = {
    bits: next(code for code in "BHILQ" if array(code).itemsize * 8 == bits)
    for bits in WORD_BITS
}

# Every library this process has loaded, by cache path: a second build of
# the same source is a dictionary lookup, not a disk read.
_LOCK = threading.Lock()
_LOADED: dict[Path, object] = {}


def cache_directory() -> Path:
    """Where built libraries are kept on this machine."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "native"


def native_build(kernel: Kernel) -> NativeKernel | None:
    """``kernel`` built for this machine, or ``None`` when it cannot be:
    no ``cc`` on ``PATH``, or a word width other than 32 or 64 bits."""
    if kernel.metadata.get("word_bits", 64) not in WORD_BITS or shutil.which("cc") is None:
        return None
    return compile_native(kernel)


def compile_native(kernel: Kernel) -> NativeKernel:
    """Build (or load from the cache) a legalized kernel's library."""
    word_bits = kernel.metadata.get("word_bits", 64)
    source = generate_c99(kernel)
    if _is_cooley_tukey(kernel):
        source += "\n" + generate_transform_function(kernel, CTypes.for_word_bits(word_bits)) + "\n"
    return NativeKernel(kernel, _load(source))


def _is_cooley_tukey(kernel: Kernel) -> bool:
    metadata = kernel.metadata
    return metadata.get("family") == "ntt" and metadata.get("variant") == "cooley_tukey"


def generate_transform_function(kernel: Kernel, types: CTypes) -> str:
    """``<kernel>_ntt``: every stage of an in-place radix-2 NTT.

    ``data`` holds ``size`` elements of ``len(param_layout["x"])`` limbs
    each (the full container, pruned limbs zero), in bit-reversed order;
    ``twiddles`` holds ``size / 2`` twiddles in the ``w`` parameter's
    limb layout.  Stage ``half`` pairs element ``start + j`` with ``start
    + j + half`` under twiddle ``j * size / (2 * half)``, exactly the loop
    of :func:`repro.ntt.iterative.ntt_forward`.
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
    uniform = set(kernel.metadata.get("uniform_params", ()))
    word = types.word

    outputs = [
        f"&{element}[{index}]"
        for element in ("u", "v")
        for index in range(stride)
    ]
    inputs, scalars, twiddle_limbs = [], [], 0
    for name, limbs in param_layout.items():
        for index, limb in enumerate(limbs):
            if limb is None:
                continue
            if name == "x":
                inputs.append(f"u[{index}]")
            elif name == "y":
                inputs.append(f"v[{index}]")
            elif name == "w":
                inputs.append(f"t[{twiddle_limbs}]")
                twiddle_limbs += 1
            elif name in uniform:
                inputs.append(limb)
                scalars.append(f"{word} {limb}")
            else:
                raise CodegenError(f"unexpected butterfly parameter {name!r}")
    arguments = [f"{word} *data", f"const {word} *twiddles", *scalars, "size_t size"]
    return "\n".join(
        [
            f"void {kernel.name}_ntt(" + ", ".join(arguments) + ") {",
            "    for (size_t half = 1; half < size; half <<= 1) {",
            "        const size_t step = size / (2 * half);",
            "        for (size_t start = 0; start < size; start += 2 * half) {",
            "            for (size_t j = 0; j < half; ++j) {",
            f"                {word} *u = data + (start + j) * {stride};",
            f"                {word} *v = u + half * {stride};",
            f"                const {word} *t = twiddles + j * step * {twiddle_limbs};",
            f"                {kernel.name}(" + ", ".join(outputs + inputs) + ");",
            "            }",
            "        }",
            "    }",
            "}",
        ]
    )


# -- build cache -----------------------------------------------------------------


def _compiler() -> tuple[str, str]:
    """The path of ``cc`` and its identity: the executable it resolves to,
    with that file's size and modification time.

    A stat, not ``cc --version``: the kernel charges a child process the
    parent's resident memory at spawn, so a probe process would inflate
    the peak memory of every large process that loads a cached library.
    """
    compiler = shutil.which("cc")
    if compiler is None:
        raise CodegenError("the native target needs a C compiler: no `cc` on PATH")
    resolved = os.path.realpath(compiler)
    stat = os.stat(resolved)
    return compiler, f"{resolved}\0{stat.st_size}\0{stat.st_mtime_ns}"


def _load(source: str):
    """The loaded library for ``source``, building it on a cache miss."""
    # Imported at the first build, not with the package: processes that
    # never build (shard servers, say) do not pay for it.
    import ctypes

    compiler, identity = _compiler()
    key = hashlib.sha256(
        "\0".join((source, identity, " ".join(FLAGS))).encode()
    ).hexdigest()
    path = cache_directory() / f"{key}.so"
    with _LOCK:
        library = _LOADED.get(path)
    if library is not None:
        return library
    if not _intact(path):
        with path_lock(path):
            if not _intact(path):  # nobody installed it while we waited
                body = _compile(compiler, source, path.parent)
                replace_atomically(
                    path, body + _TRAILER_MAGIC + hashlib.sha256(body).digest()
                )
    library = ctypes.CDLL(str(path))
    with _LOCK:
        return _LOADED.setdefault(path, library)


def _intact(path: Path) -> bool:
    """Whether ``path`` is a complete entry: its trailer's digest matches."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    body, trailer = data[:-_TRAILER_BYTES], data[-_TRAILER_BYTES:]
    return (
        len(data) > _TRAILER_BYTES
        and trailer.startswith(_TRAILER_MAGIC)
        and trailer[len(_TRAILER_MAGIC):] == hashlib.sha256(body).digest()
    )


def _compile(compiler: str, source: str, directory: Path) -> bytes:
    """Run the compiler on ``source``; the shared library's bytes."""
    handle, output = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(handle)
    try:
        result = subprocess.run(
            [compiler, *FLAGS, "-x", "c", "-", "-o", output],
            input=source,
            capture_output=True,
            text=True,
            check=False,
        )
        if result.returncode != 0:
            raise CodegenError(
                f"`{compiler}` exited with status {result.returncode} building a "
                f"native kernel:\n{result.stderr.strip()}"
            )
        return Path(output).read_bytes()
    finally:
        with contextlib.suppress(OSError):
            os.unlink(output)


# -- the loaded kernel -------------------------------------------------------------


class NativeKernel:
    """A legalized kernel's library, bound with :mod:`ctypes`.

    Vector values must be non-negative and fit their parameter's limbs, and
    scalar (uniform) values their parameter's bit bound, or
    :class:`CodegenError` is raised; the engines check the tighter domain
    conditions (reduced modulo ``q``) before calling.

    Attributes:
        kernel: the legalized kernel the library was built from.
        word_bits: machine word width.
    """

    def __init__(self, kernel: Kernel, library) -> None:
        import ctypes

        metadata = kernel.metadata
        self.kernel = kernel
        self.word_bits = metadata.get("word_bits", 64)
        self._word_bytes = self.word_bits // 8
        self._typecode = _TYPECODES[self.word_bits]
        self._layout = dict(metadata["param_layout"])
        self._limits = {
            name: effective if effective is not None else bits
            for name, bits, effective in metadata["original_params"]
        }
        self._uniform = set(metadata.get("uniform_params", ()))
        # Limbs that exist per element, per parameter and output.
        self._params = [
            (name, sum(limb is not None for limb in limbs)) for name, limbs in self._layout.items()
        ]
        self._kept = dict(self._params)
        self._outputs = [
            (name, sum(limb is not None for limb in limbs))
            for name, limbs in metadata["output_layout"].items()
        ]
        for name, limbs in [*self._layout.items(), *metadata["output_layout"].items()]:
            present = [limb is not None for limb in limbs]
            if present != sorted(present):
                raise CodegenError(
                    f"{name!r} prunes a limb below a kept one; the native target "
                    f"packs only most-significant pruning"
                )
        word = ctypes.c_uint64 if self.word_bits == 64 else ctypes.c_uint32
        arguments = []
        for name, count in self._params:
            arguments += [word] * count if name in self._uniform else [ctypes.c_void_p]
        arguments += [ctypes.c_void_p] * len(self._outputs) + [ctypes.c_size_t]
        self._batch = library[f"{kernel.name}_batch"]
        self._batch.argtypes = arguments
        self._batch.restype = None
        self._transform = None
        if _is_cooley_tukey(kernel):
            scalars = sum(count for name, count in self._params if name in self._uniform)
            self._transform = library[f"{kernel.name}_ntt"]
            self._transform.argtypes = (
                [ctypes.c_void_p, ctypes.c_void_p] + [word] * scalars + [ctypes.c_size_t]
            )
            self._transform.restype = None
        self._library = library  # keeps the shared object mapped

    # -- packing -----------------------------------------------------------

    def pack(self, name: str, values: Sequence[int]) -> array:
        """``values`` in parameter ``name``'s per-element limb layout."""
        return self._pack(values, self._kept[name])

    def _pack(self, values: Sequence[int], limbs: int) -> array:
        width = limbs * self._word_bytes
        try:
            data = array(self._typecode, b"".join([value.to_bytes(width, "big") for value in values]))
        except OverflowError:
            raise CodegenError(
                f"a value is negative or does not fit in {limbs} {self.word_bits}-bit limbs"
            ) from None
        if _SWAP_BYTES:
            data.byteswap()
        return data

    def _unpack(self, data: array, limbs: int) -> list[int]:
        if _SWAP_BYTES:
            data.byteswap()
        raw = data.tobytes()
        width = limbs * self._word_bytes
        from_bytes = int.from_bytes
        return [from_bytes(raw[start:start + width], "big") for start in range(0, len(raw), width)]

    def _scalar_limbs(self, name: str, value: int) -> list[int]:
        """A uniform value split into its kept limbs, most significant first."""
        limit = self._limits[name]
        if value < 0 or value.bit_length() > limit:
            raise CodegenError(
                f"value for {name!r} must be a non-negative integer of at most {limit} bits"
            )
        layout = self._layout[name]
        mask = (1 << self.word_bits) - 1
        top = self.word_bits * (len(layout) - 1)
        return [
            (value >> (top - self.word_bits * index)) & mask
            for index, limb in enumerate(layout)
            if limb is not None
        ]

    # -- entry points --------------------------------------------------------

    def batch(self, vectors: dict[str, Sequence[int]], scalars: dict[str, int]) -> dict[str, list[int]]:
        """One ``_batch`` call: every element of the equal-length ``vectors``
        (the per-element parameters) under the uniform ``scalars``.

        Returns each output's values in element order.
        """
        count = len(next(iter(vectors.values())))
        if any(len(vector) != count for vector in vectors.values()):
            raise CodegenError("native batch vectors must have equal lengths")
        if not count:
            return {name: [] for name, _ in self._outputs}
        arguments, buffers = [], []
        for name, limbs in self._params:
            if name in self._uniform:
                arguments += self._scalar_limbs(name, scalars[name])
            else:
                buffers.append(self._pack(vectors[name], limbs))
                arguments.append(buffers[-1].buffer_info()[0])
        outputs = []
        for name, limbs in self._outputs:
            outputs.append((name, limbs, array(self._typecode, bytes(count * limbs * self._word_bytes))))
            arguments.append(outputs[-1][2].buffer_info()[0])
        self._batch(*arguments, count)
        return {name: self._unpack(data, limbs) for name, limbs, data in outputs}

    def transform(self, ordered: Sequence[int], twiddles: array, scalars: dict[str, int]) -> list[int]:
        """All stages of the radix-2 NTT over ``ordered`` (already in
        bit-reversed order) with ``twiddles`` from :meth:`pack` of the
        plan's ``n/2`` root powers; returns the transformed values."""
        if self._transform is None:
            raise CodegenError(f"kernel {self.kernel.name!r} is not a Cooley-Tukey butterfly")
        size = len(ordered)
        if size < 2 or size & (size - 1):
            raise CodegenError(f"transform size must be a power of two >= 2, got {size}")
        if twiddles.typecode != self._typecode or len(twiddles) != size // 2 * self._kept["w"]:
            raise CodegenError(
                f"a {size}-point transform needs {size // 2} twiddles packed by pack('w')"
            )
        stride = len(self._layout["x"])
        data = self._pack(ordered, stride)
        limbs = [
            limb
            for name, _ in self._params
            if name in self._uniform
            for limb in self._scalar_limbs(name, scalars[name])
        ]
        self._transform(data.buffer_info()[0], twiddles.buffer_info()[0], *limbs, size)
        return self._unpack(data, stride)
