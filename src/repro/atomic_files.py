"""Whole-file replacement that concurrent writers cannot corrupt.

Two pieces, used together by every writer of a shared file (the tuning
database, the native-library cache):

* :func:`path_lock` serializes a read-modify-write cycle on one path: a
  per-path lock between the threads of this process, plus ``fcntl.flock``
  on a sidecar ``<name>.lock`` file between processes (POSIX only; other
  platforms get the in-process lock alone).
* :func:`replace_atomically` writes the new contents to a uniquely named
  temporary file in the target's directory and renames it over the target,
  so a reader sees the old file or the new one, never a partial write, and
  two writers never share a temporary file.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

__all__ = ["path_lock", "replace_atomically"]

# Process-wide on purpose: every instance that writes one path must share
# the path's lock, so the table cannot belong to any one writer.
_LOCKS: dict[str, threading.Lock] = {}
_LOCKS_GUARD = threading.Lock()


def _thread_lock(path: str) -> threading.Lock:
    with _LOCKS_GUARD:
        return _LOCKS.setdefault(path, threading.Lock())


@contextlib.contextmanager
def path_lock(path: str | os.PathLike):
    """Hold ``path``'s lock for the body: one writer at a time, across
    threads and processes.  Creates the parent directory if needed."""
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with _thread_lock(path), open(path + ".lock", "a") as sidecar:
        if fcntl is not None:
            fcntl.flock(sidecar.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(sidecar.fileno(), fcntl.LOCK_UN)


def replace_atomically(path: str | os.PathLike, data: bytes) -> None:
    """Replace ``path``'s contents with ``data`` in one rename."""
    directory, name = os.path.split(os.path.abspath(path))
    handle, temporary = tempfile.mkstemp(dir=directory, prefix=f".{name}.", suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise
