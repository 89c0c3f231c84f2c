"""Native execution target: the kernel's C unit, built and loaded.

The ``c99`` backend emits a scalar routine plus a ``<kernel>_batch`` loop.
This target compiles a C unit with that interface once with the host C
compiler (``cc -O2 -shared -fPIC``) and binds it with :mod:`ctypes`, so a
whole vector — and, for Cooley-Tukey butterflies, a whole NTT — runs in
machine code in one call instead of one Python call per element.

* **Unit.** On a host whose ``/proc/cpuinfo`` lists ``avx512f`` and
  ``avx512dq`` (read once per process, without spawning anything) the unit
  is the lane emitter's (:mod:`repro.core.codegen.lanes`): eight elements
  or butterflies per AVX-512 vector, built with
  :data:`~repro.core.codegen.lanes.ISA_FLAGS` added to the flags.  Every
  other host builds the ``c99`` unit, one element per call.

* **Cache.** Libraries live under ``$XDG_CACHE_HOME/repro/native``
  (``~/.cache/repro/native`` when the variable is unset), named by the
  SHA-256 of the C source, the compiler's identity (the executable ``cc``
  resolves to, with its size and modification time) and the flags.  An
  entry is installed by atomic rename and ends in a trailer holding the
  digest of the library bytes, so a truncated or damaged entry is rebuilt
  instead of loaded.  A kernel object built again in the same process (a
  second engine over a session's cached kernel) reuses its loaded library
  without emitting or hashing the source.
* **Compiler.** ``cc`` is looked up on ``PATH`` at each build, never at
  import, and runs only on a cache miss: a warm cache spawns no process.
* **Layout.** A vector argument is packed limb-major: each element's
  non-pruned limbs, most significant first, in native byte order — the
  layout of the ``_batch`` loop and of the CUDA kernel.
* **Conversion.** One small C helper moves values between Python ints and
  that layout: ``repro_pack`` validates and packs a list or tuple in one
  pass (each element an ``int`` that fits its limbs and lies below an
  optional bound, optionally gathered through an index array) and
  ``repro_unpack`` builds the list back.  It reads each int's
  ``PyLong_SHIFT``-bit digits in place and writes the words straight into
  the buffer, and builds a result from its digits the same way, through
  the layout ``longintrepr.h`` declares: the digit count and sign sit in
  ``ob_size`` on 3.10-3.11 and in ``lv_tag`` on 3.12+.  It uses the Python
  C API, so it is built once per interpreter against that interpreter's
  ``Python.h`` and loaded with :class:`ctypes.PyDLL`; its cache entry adds
  the interpreter's ABI tag and include directory to the key.  The kernel
  libraries stay interpreter-independent.  Each buffer is one allocation,
  and the limbs of uniform values and the packed bound are derived once
  per value and kept for later calls, so a fixed modulus costs nothing
  after the first call.
* **Transform.** For a Cooley-Tukey butterfly the library also exports
  ``<kernel>_ntt``, which runs all ``log2(n)`` stages of the iterative
  transform (:mod:`repro.ntt.iterative`) in place over an array already in
  bit-reversed order, reading the twiddles from a table of the plan's
  ``n/2`` root powers.  Given a packed ``n^{-1}`` it then scales every
  element by it, with ``n`` butterflies at ``x = 0`` (``x + w*y`` is
  ``w*y``): the inverse transform's last step.

The engines (:class:`~repro.poly.blas.MomaBlasEngine`,
:class:`~repro.ntt.generated.GeneratedNTT`) use :func:`native_build`, which
answers ``None`` on a machine without ``cc`` or without the interpreter's
headers, so they keep the ``python_exec`` path there.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import weakref
from array import array
from collections.abc import Sequence
from pathlib import Path

from repro.atomic_files import path_lock, replace_atomically
from repro.errors import CodegenError
from repro.core.codegen.c99 import generate_c99
from repro.core.codegen.common import CTypes
from repro.core.codegen.lanes import ISA_FLAGS, LANES, generate_lanes, transform_layout
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
#: Where the host's CPU features are listed.
_CPUINFO = "/proc/cpuinfo"
#: The features the lane unit is written for (ISA_FLAGS lets cc use them).
_LANE_FEATURES = frozenset({"avx512f", "avx512dq"})
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
# The cache path each live kernel object was built into, by its id and the
# lanes it was built for: a session's cached kernel built again (by a second
# engine over it) is neither emitted nor hashed.  The weak reference drops
# the entry with the kernel, whose id may then be reused.
_BUILT: dict[tuple[int, int], tuple[weakref.ref, Path]] = {}


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
    """Build (or load from the cache) a legalized kernel's library: the
    lane unit on a host with the AVX-512 features it needs, else the
    ``c99`` unit.  A kernel object this process has built before, while
    its library stays loaded, is not emitted again."""
    converter = _converter()  # first: without headers, nothing is compiled
    with _LOCK:  # concurrent first builds probe the CPU once
        lanes = _host_lanes()
        entry = (id(kernel), lanes)
        built = _BUILT.get(entry)
        library = None if built is None or built[0]() is not kernel else _LOADED.get(built[1])
    if library is None:
        if lanes == LANES:
            source = generate_lanes(kernel, transform=_is_cooley_tukey(kernel))
            path, library = _load(source, FLAGS + ISA_FLAGS)
        else:
            source = generate_c99(kernel)
            if _is_cooley_tukey(kernel):
                types = CTypes.for_word_bits(kernel.metadata.get("word_bits", 64))
                source += "\n" + generate_transform_function(kernel, types) + "\n"
            path, library = _load(source)
        # The callback takes no lock: it may run in a collection that this
        # thread starts while holding _LOCK.
        alive = weakref.ref(kernel, lambda _, entry=entry: _BUILT.pop(entry, None))
        with _LOCK:
            _BUILT[entry] = (alive, path)
    return NativeKernel(kernel, library, converter, lanes)


@functools.cache
def _host_lanes() -> int:
    """Elements per native kernel call on this host: :data:`LANES` when its
    CPU lists the lane unit's features, else 1.  Reads ``/proc/cpuinfo`` up
    to the first ``flags`` line, once per process; a host without the file
    gets 1."""
    try:
        with open(_CPUINFO, encoding="utf-8", errors="replace") as info:
            for line in info:
                if line.startswith("flags"):
                    return LANES if _LANE_FEATURES <= set(line.partition(":")[2].split()) else 1
    except OSError:
        pass
    return 1


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
    of :func:`repro.ntt.iterative.ntt_forward`.  A non-null ``scale`` (one
    value in the ``w`` layout) then multiplies every element by it: the
    butterfly at ``x = 0`` with ``y`` the element and ``w`` the scale.
    """
    param_layout = kernel.metadata["param_layout"]
    stride, twiddle_limbs = transform_layout(kernel)
    uniform = set(kernel.metadata.get("uniform_params", ()))
    word = types.word

    def call(x_out: str, y_out: str, x: str, y: str, w: str) -> str:
        """The butterfly call; each argument renders a limb by its index."""
        outputs = [
            f"&{element}[{index}]" for element in (x_out, y_out) for index in range(stride)
        ]
        inputs, twiddle = [], 0
        for name, limbs in param_layout.items():
            for index, limb in enumerate(limbs):
                if limb is None:
                    continue
                if name == "x":
                    inputs.append(x.format(index))
                elif name == "y":
                    inputs.append(y.format(index))
                elif name == "w":
                    inputs.append(w.format(twiddle))
                    twiddle += 1
                elif name in uniform:
                    inputs.append(limb)
                else:
                    raise CodegenError(f"unexpected butterfly parameter {name!r}")
        return f"{kernel.name}(" + ", ".join(outputs + inputs) + ");"

    scalars = [
        f"{word} {limb}"
        for name, limbs in param_layout.items()
        if name in uniform
        for limb in limbs
        if limb is not None
    ]
    arguments = [f"{word} *data", f"const {word} *twiddles", f"const {word} *scale"]
    arguments += [*scalars, "size_t size"]
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
            "                " + call("u", "v", "u[{}]", "v[{}]", "t[{}]"),
            "            }",
            "        }",
            "    }",
            "    if (scale == NULL)",
            "        return;",
            f"    {word} drop[{stride}];",
            "    for (size_t i = 0; i < size; ++i) {",
            f"        {word} *u = data + i * {stride};",
            "        " + call("u", "drop", "0", "u[{}]", "scale[{}]"),
            "    }",
            "}",
        ]
    )


# -- conversion helper -----------------------------------------------------------

#: The helper moving values between Python ints and the limb layout.  An
#: element is ``words`` machine words of ``word`` bytes (8 or 4), the most
#: significant first, each in native byte order.  It reads an int's digits
#: in place and writes a result's digits into a new int, through the
#: layout ``longintrepr.h`` declares (``Python.h`` includes it), so it runs
#: with the interpreter lock held (:class:`ctypes.PyDLL`) and never calls
#: back into Python: no ``__index__``, no comparison hooks.
_CONVERTER_SOURCE = r"""
#include <Python.h>
#include <stdint.h>

/* An int's magnitude is its digits, PyLong_SHIFT bits each, least
   significant first, the top one nonzero.  3.12 moved the digit count and
   the sign from ob_size into lv_tag. */
#if PY_VERSION_HEX >= 0x030C0000
#define DIGITS(v) (((PyLongObject *)(v))->long_value.ob_digit)
#define DIGIT_COUNT(v) \
    ((Py_ssize_t)(((PyLongObject *)(v))->long_value.lv_tag >> _PyLong_NON_SIZE_BITS))
#define NEGATIVE(v) ((((PyLongObject *)(v))->long_value.lv_tag & _PyLong_SIGN_MASK) == 2)
#else
#define DIGITS(v) (((PyLongObject *)(v))->ob_digit)
#define DIGIT_COUNT(v) Py_ABS(Py_SIZE(v))
#define NEGATIVE(v) (Py_SIZE(v) < 0)
#endif

/* Word k of the words words at p, counting from the least significant
   (the last); a word is 8 or 4 bytes. */
static uint64_t word_at(const void *p, Py_ssize_t words, Py_ssize_t k, Py_ssize_t word)
{
    return word == 8 ? ((const uint64_t *)p)[words - 1 - k]
                     : ((const uint32_t *)p)[words - 1 - k];
}

static void set_word(void *p, Py_ssize_t words, Py_ssize_t k, Py_ssize_t word, uint64_t value)
{
    if (word == 8)
        ((uint64_t *)p)[words - 1 - k] = value;
    else
        ((uint32_t *)p)[words - 1 - k] = (uint32_t)value;
}

/* Pack the int v into the words words at out: 0, or -1 when v is negative
   or needs more than words words. */
static int to_words(PyObject *v, void *out, Py_ssize_t words, Py_ssize_t word)
{
    const digit *d = DIGITS(v);
    const Py_ssize_t n = DIGIT_COUNT(v);
    const int size = (int)word * 8;
    Py_ssize_t j, k = 0;
    uint64_t acc = 0; /* the have bits not yet in a word */
    int have = 0;
    if (NEGATIVE(v)
            || (n > 0 && (n - 1) * PyLong_SHIFT + 32 - __builtin_clz(d[n - 1]) > words * size))
        return -1;
    for (j = 0; j < n; ++j) {
        acc |= (uint64_t)d[j] << have;
        have += PyLong_SHIFT;
        if (have >= size) {
            set_word(out, words, k++, word, acc);
            have -= size;
            acc = have ? (uint64_t)d[j] >> (PyLong_SHIFT - have) : 0;
        }
    }
    for (; k < words; ++k, acc = 0)
        set_word(out, words, k, word, acc);
    return 0;
}

/* A new int of the words words at p, or NULL with an exception set. */
static PyObject *from_words(const void *p, Py_ssize_t words, Py_ssize_t word)
{
    const int size = (int)word * 8;
    Py_ssize_t used = words, n, j = 0, k;
    PyLongObject *v;
    digit *d;
    uint64_t acc = 0; /* the have bits not yet in a digit */
    int have = 0;
    while (used > 1 && word_at(p, words, used - 1, word) == 0)
        --used;
    /* At most 64 bits: the interpreter's constructor, which shares small ints. */
    if (used * size <= 64)
        return PyLong_FromUnsignedLongLong(
            used == 1 ? word_at(p, words, 0, word)
                      : word_at(p, words, 1, word) << 32 | word_at(p, words, 0, word));
    n = ((used - 1) * size + 64 - __builtin_clzll(word_at(p, words, used - 1, word))
         + PyLong_SHIFT - 1) / PyLong_SHIFT;
    if ((v = _PyLong_New(n)) == NULL)
        return NULL;
    d = DIGITS(v);
    for (k = 0; k < used; ++k) {
        uint64_t w = word_at(p, words, k, word);
        int left = size; /* bits of w not yet in a digit */
        while (have + left >= PyLong_SHIFT && j < n) {
            d[j++] = (digit)((acc | w << have) & PyLong_MASK);
            left -= PyLong_SHIFT - have;
            w >>= PyLong_SHIFT - have;
            acc = 0;
            have = 0;
        }
        acc |= w << have;
        have += left;
    }
    if (j < n)
        d[j] = (digit)acc;
    return (PyObject *)v;
}

/* Whether the words words at p are below those at bound. */
static int below(const void *p, const void *bound, Py_ssize_t words, Py_ssize_t word)
{
    Py_ssize_t k = words;
    while (k-- > 0) {
        uint64_t a = word_at(p, words, k, word), b = word_at(bound, words, k, word);
        if (a != b)
            return a < b;
    }
    return 0;
}

/* Validate and pack values, a list or tuple of count items, into out
   (count * words words of word bytes): element i is values[i], or
   values[order[i]] when order is not NULL.  Each must be an int that fits
   words words and, when bound is not NULL, lies below the element there.
   Returns -1 when all are packed, else the index in values of the first
   refused one; -2 when values is not a list or tuple of count items or an
   order index is out of range. */
Py_ssize_t repro_pack(PyObject *values, Py_ssize_t count, const long long *order,
                      const void *bound, Py_ssize_t words, Py_ssize_t word, void *out)
{
    PyObject **items;
    Py_ssize_t i;
    if (!(PyList_Check(values) || PyTuple_Check(values))
            || PySequence_Fast_GET_SIZE(values) != count)
        return -2;
    items = PySequence_Fast_ITEMS(values);
    for (i = 0; i < count; ++i, out = (char *)out + words * word) {
        Py_ssize_t at = i;
        if (order != NULL) {
            if (order[i] < 0 || order[i] >= count)
                return -2;
            at = (Py_ssize_t)order[i];
        }
        if (!PyLong_Check(items[at]) || to_words(items[at], out, words, word) < 0
                || (bound != NULL && !below(out, bound, words, word)))
            return at;
    }
    return -1;
}

/* A new list of the count elements at data (count * words words of word
   bytes), or NULL with an exception set. */
PyObject *repro_unpack(const void *data, Py_ssize_t count, Py_ssize_t words, Py_ssize_t word)
{
    PyObject *list = PyList_New(count);
    Py_ssize_t i;
    for (i = 0; list != NULL && i < count; ++i, data = (const char *)data + words * word) {
        PyObject *value = from_words(data, words, word);
        if (value == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, value);
    }
    return list;
}
"""


@functools.cache
def _python_headers() -> str | None:
    """This interpreter's include directory, if it holds ``Python.h``: read
    once per process, since the running interpreter's cannot change."""
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
    return _load(_CONVERTER_SOURCE, (*FLAGS, f"-I{include}"), sysconfig.get_config_var("SOABI") or "")[1]


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


def _load(source: str, flags: tuple[str, ...] = FLAGS, abi: str | None = None) -> tuple[Path, object]:
    """The cache path and loaded library for ``source``, building it on a
    cache miss.

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
        return path, library
    if not _intact(path):
        with path_lock(path):
            if not _intact(path):  # nobody installed it while we waited
                body = _compile(compiler, source, path.parent, flags)
                replace_atomically(
                    path, body + _TRAILER_MAGIC + hashlib.sha256(body).digest()
                )
    library = ctypes.CDLL(str(path)) if abi is None else ctypes.PyDLL(str(path))
    with _LOCK:
        return path, _LOADED.setdefault(path, library)


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

#: How many modulus constants (uniform limbs, packed bounds) a kernel keeps.
_KEPT_CONSTANTS = 16
_MISSING = object()


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

    def __init__(self, kernel: Kernel, library, converter, lanes: int) -> None:
        import ctypes

        metadata = kernel.metadata
        self.kernel = kernel
        self._lanes = lanes
        self.word_bits = metadata.get("word_bits", 64)
        self._word_bytes = self.word_bits // 8
        self._typecode = _TYPECODES[self.word_bits]
        self._zero = array(self._typecode, [0])
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
                [ctypes.c_void_p] * 3 + [word] * scalars + [ctypes.c_size_t]
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
        # Limbs of uniform values and packed bounds, by (name or limbs, value).
        self._constants: dict[tuple, object] = {}

    @property
    def lanes(self) -> int:
        """Elements (or butterflies) one library call computes at once: 8
        for the lane unit, 1 for the ``c99`` unit."""
        return self._lanes

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
        data = self._zero * (count * limbs)
        below = None if bound is None else self._constant(self._packed_bound, limbs, bound)
        refused = self._pack_values(
            values,
            count,
            None if order is None else order.buffer_info()[0],
            None if below is None else below.buffer_info()[0],
            limbs,
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
        return self._unpack_values(data.buffer_info()[0], len(data) // limbs, limbs, self._word_bytes)

    def _packed_bound(self, limbs: int, bound: int) -> array | None:
        """``bound`` as one element of ``limbs`` words, or ``None`` when it
        refuses nothing they can hold."""
        return self._pack([bound], limbs) if bound < 1 << limbs * self.word_bits else None

    def _scalar_limbs(self, name: str, value: int) -> tuple[int, ...]:
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
        return tuple(
            (value >> (top - self.word_bits * index)) & mask
            for index, limb in enumerate(layout)
            if limb is not None
        )

    def _constant(self, derive, key, value):
        """``derive(key, value)``, kept for the next calls when ``value`` is
        an ``int``: callers pass the same modulus call after call.  A few
        values are kept at a time, never one ``derive`` refused; concurrent
        calls at worst derive one twice."""
        if type(value) is not int:
            return derive(key, value)
        found = self._constants.get((key, value), _MISSING)
        if found is _MISSING:
            found = derive(key, value)
            if len(self._constants) >= _KEPT_CONSTANTS:
                self._constants.clear()
            self._constants[key, value] = found
        return found

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
                arguments += self._constant(self._scalar_limbs, name, scalars[name])
            else:
                buffers.append(self._pack(vectors[name], limbs, bound))
                arguments.append(buffers[-1].buffer_info()[0])
        outputs = []
        for name, limbs in self._outputs:
            outputs.append((name, limbs, self._zero * (count * limbs)))
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
        scale: array | None = None,
    ) -> list[int]:
        """All stages of the radix-2 NTT over ``values`` gathered through
        ``order`` (``array('q')``, the bit-reversal permutation), with
        ``twiddles`` from :meth:`pack` of the plan's ``n/2`` root powers;
        returns the transformed values, each multiplied by ``scale`` (one
        value from :meth:`pack` of ``w``, say ``n^{-1}``) when one is
        given.  Every value must lie below ``bound``."""
        if self._transform is None:
            raise CodegenError(f"kernel {self.kernel.name!r} is not a Cooley-Tukey butterfly")
        size = len(values)
        if size < 2 or size & (size - 1):
            raise CodegenError(f"transform size must be a power of two >= 2, got {size}")
        limbs = self._kept["w"]
        if twiddles.typecode != self._typecode or len(twiddles) != size // 2 * limbs:
            raise CodegenError(
                f"a {size}-point transform needs {size // 2} twiddles packed by pack('w')"
            )
        if scale is not None and (scale.typecode != self._typecode or len(scale) != limbs):
            raise CodegenError("a transform's scale must be one value packed by pack('w')")
        stride = len(self._layout["x"])
        data = self._pack(values, stride, bound, order)
        limbs = [
            limb
            for name, _ in self._params
            if name in self._uniform
            for limb in self._constant(self._scalar_limbs, name, scalars[name])
        ]
        self._transform(
            data.buffer_info()[0],
            twiddles.buffer_info()[0],
            None if scale is None else scale.buffer_info()[0],
            *limbs,
            size,
        )
        return self._unpack(data, stride)
