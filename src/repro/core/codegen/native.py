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
* **Conversion.** One small C helper moves values between Python ints and
  that layout: ``repro_pack`` validates and packs a list or tuple in one
  pass (each element an ``int`` that fits its limbs and lies below an
  optional bound, optionally gathered through an index array) and
  ``repro_unpack`` builds the list back.  It uses the Python C API, so it
  is built once per interpreter against that interpreter's ``Python.h``
  and loaded with :class:`ctypes.PyDLL`; its cache entry adds the
  interpreter's ABI tag and include directory to the key.  The kernel
  libraries stay interpreter-independent.
* **Transform.** For a Cooley-Tukey butterfly the library also exports
  ``<kernel>_ntt``, which runs all ``log2(n)`` stages of the iterative
  transform (:mod:`repro.ntt.iterative`) in place over an array already in
  bit-reversed order, reading the twiddles from a table of the plan's
  ``n/2`` root powers.

The engines (:class:`~repro.poly.blas.MomaBlasEngine`,
:class:`~repro.ntt.generated.GeneratedNTT`) use :func:`native_build`, which
answers ``None`` on a machine without ``cc`` or without the interpreter's
headers, so they keep the ``python_exec`` path there.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import subprocess
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
    no ``cc`` on ``PATH``, no ``Python.h`` for this interpreter, or a word
    width other than 32 or 64 bits."""
    if (
        kernel.metadata.get("word_bits", 64) not in WORD_BITS
        or shutil.which("cc") is None
        or _python_headers() is None
    ):
        return None
    return compile_native(kernel)


def compile_native(kernel: Kernel) -> NativeKernel:
    """Build (or load from the cache) a legalized kernel's library."""
    word_bits = kernel.metadata.get("word_bits", 64)
    source = generate_c99(kernel)
    if _is_cooley_tukey(kernel):
        source += "\n" + generate_transform_function(kernel, CTypes.for_word_bits(word_bits)) + "\n"
    converter = _converter()  # first: without headers, nothing is compiled
    return NativeKernel(kernel, _load(source), converter)


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


# -- conversion helper -----------------------------------------------------------

#: The helper moving values between Python ints and the limb layout.  An
#: element is ``width`` bytes of ``word``-byte machine words, the most
#: significant first, each in native byte order.  It reads Python objects,
#: so it runs with the interpreter lock held (:class:`ctypes.PyDLL`), and
#: it never calls back into Python: no ``__index__``, no comparison hooks.
_CONVERTER_SOURCE = r"""
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* Reverse the order of the words at p: on a little-endian host, between a
   number's native byte order and the most significant word first. */
static void reverse_words(unsigned char *p, Py_ssize_t width, Py_ssize_t word)
{
    unsigned char *low = p, *high = p + width - word;
    if (word == 8) {
        for (; low < high; low += 8, high -= 8) {
            uint64_t a, b;
            memcpy(&a, low, 8); memcpy(&b, high, 8);
            memcpy(low, &b, 8); memcpy(high, &a, 8);
        }
    } else {
        for (; low < high; low += 4, high -= 4) {
            uint32_t a, b;
            memcpy(&a, low, 4); memcpy(&b, high, 4);
            memcpy(low, &b, 4); memcpy(high, &a, 4);
        }
    }
}

/* Whether the element at p is below the element at bound. */
static int below(const unsigned char *p, const unsigned char *bound,
                 Py_ssize_t width, Py_ssize_t word)
{
    Py_ssize_t at;
    for (at = 0; at < width; at += word) {
        uint64_t a, b;
        if (word == 8) {
            memcpy(&a, p + at, 8); memcpy(&b, bound + at, 8);
        } else {
            uint32_t a32, b32;
            memcpy(&a32, p + at, 4); memcpy(&b32, bound + at, 4);
            a = a32; b = b32;
        }
        if (a != b)
            return a < b;
    }
    return 0;
}

/* The int v as width bytes in native byte order: 0, or -1 with no
   exception set when v is negative or needs more than width bytes. */
static int to_bytes(PyObject *v, unsigned char *out, Py_ssize_t width)
{
#if PY_VERSION_HEX >= 0x030D0000
    Py_ssize_t needed = PyLong_AsNativeBytes(
        v, out, width,
        Py_ASNATIVEBYTES_NATIVE_ENDIAN | Py_ASNATIVEBYTES_UNSIGNED_BUFFER
            | Py_ASNATIVEBYTES_REJECT_NEGATIVE);
    if (needed >= 0 && needed <= width)
        return 0;
#else
    if (_PyLong_AsByteArray((PyLongObject *)v, out, (size_t)width, PY_LITTLE_ENDIAN, 0) == 0)
        return 0;
#endif
    PyErr_Clear();
    return -1;
}

static PyObject *from_bytes(const unsigned char *p, Py_ssize_t width)
{
#if PY_VERSION_HEX >= 0x030D0000
    return PyLong_FromUnsignedNativeBytes(p, (size_t)width, Py_ASNATIVEBYTES_NATIVE_ENDIAN);
#else
    return _PyLong_FromByteArray(p, (size_t)width, PY_LITTLE_ENDIAN, 0);
#endif
}

/* Validate and pack values, a list or tuple of count items, into out
   (count * width bytes): element i is values[i], or values[order[i]] when
   order is not NULL.  Each must be an int that fits width bytes and, when
   bound is not NULL, lies below the element there.  Returns -1 when all
   are packed, else the index in values of the first refused one; -2 when
   values is not a list or tuple of count items or an order index is out
   of range. */
Py_ssize_t repro_pack(PyObject *values, Py_ssize_t count, const long long *order,
                      const unsigned char *bound, Py_ssize_t width, Py_ssize_t word,
                      unsigned char *out)
{
    PyObject **items;
    Py_ssize_t i;
    if (!(PyList_Check(values) || PyTuple_Check(values))
            || PySequence_Fast_GET_SIZE(values) != count)
        return -2;
    items = PySequence_Fast_ITEMS(values);
    for (i = 0; i < count; ++i, out += width) {
        Py_ssize_t at = i;
        if (order != NULL) {
            if (order[i] < 0 || order[i] >= count)
                return -2;
            at = (Py_ssize_t)order[i];
        }
        if (!PyLong_Check(items[at]) || to_bytes(items[at], out, width) < 0)
            return at;
#if PY_LITTLE_ENDIAN
        reverse_words(out, width, word);
#endif
        if (bound != NULL && !below(out, bound, width, word))
            return at;
    }
    return -1;
}

/* A new list of the count elements at data (count * width bytes), or NULL
   with an exception set. */
PyObject *repro_unpack(const unsigned char *data, Py_ssize_t count,
                       Py_ssize_t width, Py_ssize_t word)
{
    PyObject *list = PyList_New(count);
    unsigned char *scratch;
    Py_ssize_t i;
    if (list == NULL)
        return NULL;
    scratch = PyMem_Malloc((size_t)width);
    if (scratch == NULL) {
        Py_DECREF(list);
        return PyErr_NoMemory();
    }
    for (i = 0; i < count; ++i, data += width) {
        PyObject *value;
        memcpy(scratch, data, (size_t)width);
#if PY_LITTLE_ENDIAN
        reverse_words(scratch, width, word);
#endif
        value = from_bytes(scratch, width);
        if (value == NULL) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, i, value);
    }
    PyMem_Free(scratch);
    return list;
}
"""


def _python_headers() -> str | None:
    """This interpreter's include directory, if it holds ``Python.h``."""
    # Imported here, not with the package: only a native build asks.
    import sysconfig

    include = sysconfig.get_path("include")
    return include if os.path.isfile(os.path.join(include, "Python.h")) else None


def _converter():
    """The conversion helper built for this interpreter, loaded."""
    import sysconfig

    include = _python_headers()
    if include is None:
        raise CodegenError(
            "the native target needs this interpreter's C headers: no Python.h under "
            f"{sysconfig.get_path('include')}"
        )
    return _load(_CONVERTER_SOURCE, (*FLAGS, f"-I{include}"), sysconfig.get_config_var("SOABI") or "")


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


def _load(source: str, flags: tuple[str, ...] = FLAGS, abi: str | None = None):
    """The loaded library for ``source``, building it on a cache miss.

    ``abi`` (an interpreter's ABI tag) marks a library that uses the Python
    C API: the tag joins its cache key, its entry is named ``convert-*``,
    and it is loaded with :class:`ctypes.PyDLL`, which holds the
    interpreter lock through each call.
    """
    # Imported at the first build, not with the package: processes that
    # never build (shard servers, say) do not pay for it.
    import ctypes

    compiler, identity = _compiler()
    parts = (source, identity, " ".join(flags)) + (() if abi is None else (abi,))
    key = hashlib.sha256("\0".join(parts).encode()).hexdigest()
    path = cache_directory() / (f"{key}.so" if abi is None else f"convert-{key}.so")
    with _LOCK:
        library = _LOADED.get(path)
    if library is not None:
        return library
    if not _intact(path):
        with path_lock(path):
            if not _intact(path):  # nobody installed it while we waited
                body = _compile(compiler, source, path.parent, flags)
                replace_atomically(
                    path, body + _TRAILER_MAGIC + hashlib.sha256(body).digest()
                )
    library = ctypes.CDLL(str(path)) if abi is None else ctypes.PyDLL(str(path))
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


def _compile(compiler: str, source: str, directory: Path, flags: tuple[str, ...]) -> bytes:
    """Run the compiler on ``source``; the shared library's bytes."""
    handle, output = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(handle)
    try:
        result = subprocess.run(
            [compiler, *flags, "-x", "c", "-", "-o", output],
            input=source,
            capture_output=True,
            text=True,
            check=False,
        )
        if result.returncode != 0:
            raise CodegenError(
                f"`{compiler}` exited with status {result.returncode} building a "
                f"native library:\n{result.stderr.strip()}"
            )
        return Path(output).read_bytes()
    finally:
        with contextlib.suppress(OSError):
            os.unlink(output)


# -- the loaded kernel -------------------------------------------------------------


class NativeKernel:
    """A legalized kernel's library, bound with :mod:`ctypes`.

    Vector values must be ``int``s that fit their parameter's limbs (and lie
    below the ``bound`` a call passes), and scalar (uniform) values must be
    non-negative ``int``s of at most their parameter's bit bound, or
    :class:`CodegenError` is raised naming the first value refused.

    Attributes:
        kernel: the legalized kernel the library was built from.
        word_bits: machine word width.
    """

    def __init__(self, kernel: Kernel, library, converter) -> None:
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
        size = ctypes.c_ssize_t
        self._pack_values = converter["repro_pack"]
        self._pack_values.argtypes = [
            ctypes.py_object, size, ctypes.c_void_p, ctypes.c_void_p, size, size, ctypes.c_void_p
        ]
        self._pack_values.restype = size
        self._unpack_values = converter["repro_unpack"]
        self._unpack_values.argtypes = [ctypes.c_void_p, size, size, size]
        self._unpack_values.restype = ctypes.py_object
        # Keep the shared objects mapped.
        self._libraries = (library, converter)

    # -- packing -----------------------------------------------------------

    def pack(self, name: str, values: Sequence[int]) -> array:
        """``values`` in parameter ``name``'s per-element limb layout."""
        return self._pack(values, self._kept[name])

    def _pack(
        self, values: Sequence[int], limbs: int, bound: int | None = None, order: array | None = None
    ) -> array:
        """``values`` -- element ``i`` being ``values[order[i]]`` when an
        ``order`` (``array('q')``) is given -- as ``limbs`` words each,
        validated and packed in one pass of the conversion helper."""
        if not isinstance(values, (list, tuple)):
            values = list(values)
        count = len(values)
        if order is not None and (order.typecode != "q" or len(order) != count):
            raise CodegenError(f"a gather order for {count} values must be array('q') of {count}")
        width = limbs * self._word_bytes
        data = array(self._typecode, bytes(count * width))
        # A bound no narrower than the limbs refuses nothing they can hold.
        below = (
            self._pack([bound], limbs)
            if bound is not None and bound < 1 << limbs * self.word_bits
            else None
        )
        refused = self._pack_values(
            values,
            count,
            None if order is None else order.buffer_info()[0],
            None if below is None else below.buffer_info()[0],
            width,
            self._word_bytes,
            data.buffer_info()[0],
        )
        if refused >= 0:
            limit = "" if below is None else f" below {bound}"
            raise CodegenError(
                f"element {refused} = {values[refused]!r} is not an int{limit} that fits "
                f"{limbs} {self.word_bits}-bit limbs"
            )
        if refused != -1:
            raise CodegenError(
                f"cannot pack: not a list or tuple of {count} values, or a gather index "
                f"outside [0, {count})"
            )
        return data

    def _unpack(self, data: array, limbs: int) -> list[int]:
        return self._unpack_values(
            data.buffer_info()[0], len(data) // limbs, limbs * self._word_bytes, self._word_bytes
        )

    def _scalar_limbs(self, name: str, value: int) -> list[int]:
        """A uniform value split into its kept limbs, most significant first."""
        limit = self._limits[name]
        try:
            fits = 0 <= value and value.bit_length() <= limit
        except (AttributeError, TypeError):
            fits = False
        if not fits:
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

    def batch(
        self,
        vectors: dict[str, Sequence[int]],
        scalars: dict[str, int],
        bound: int | None = None,
    ) -> dict[str, list[int]]:
        """One ``_batch`` call: every element of the equal-length ``vectors``
        (the per-element parameters) under the uniform ``scalars``.  With a
        ``bound``, every vector element must lie below it.

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
                buffers.append(self._pack(vectors[name], limbs, bound))
                arguments.append(buffers[-1].buffer_info()[0])
        outputs = []
        for name, limbs in self._outputs:
            outputs.append((name, limbs, array(self._typecode, bytes(count * limbs * self._word_bytes))))
            arguments.append(outputs[-1][2].buffer_info()[0])
        self._batch(*arguments, count)
        return {name: self._unpack(data, limbs) for name, limbs, data in outputs}

    def transform(
        self,
        values: Sequence[int],
        order: array,
        twiddles: array,
        scalars: dict[str, int],
        bound: int,
    ) -> list[int]:
        """All stages of the radix-2 NTT over ``values`` gathered through
        ``order`` (``array('q')``, the bit-reversal permutation), with
        ``twiddles`` from :meth:`pack` of the plan's ``n/2`` root powers;
        returns the transformed values.  Every value must lie below
        ``bound``."""
        if self._transform is None:
            raise CodegenError(f"kernel {self.kernel.name!r} is not a Cooley-Tukey butterfly")
        size = len(values)
        if size < 2 or size & (size - 1):
            raise CodegenError(f"transform size must be a power of two >= 2, got {size}")
        if twiddles.typecode != self._typecode or len(twiddles) != size // 2 * self._kept["w"]:
            raise CodegenError(
                f"a {size}-point transform needs {size // 2} twiddles packed by pack('w')"
            )
        stride = len(self._layout["x"])
        data = self._pack(values, stride, bound, order)
        limbs = [
            limb
            for name, _ in self._params
            if name in self._uniform
            for limb in self._scalar_limbs(name, scalars[name])
        ]
        self._transform(data.buffer_info()[0], twiddles.buffer_info()[0], *limbs, size)
        return self._unpack(data, stride)
