"""The compiled loops of ``_oracle.c``, built on first use: the Q_{r,s}
recursion and count for the oracle, and the tuple join that numbers the
rule scan's windows and the kernel probe's blocks.

``library`` compiles the source with the system ``cc`` and loads it with
ctypes.  It runs on the first oracle call, never at import.  The shared
library is cached in ``$XDG_CACHE_HOME/vseq`` (by default
``~/.cache/vseq``), a directory only the user may write, under a name hashed
from the source, the compiler command and the machine, and is written
atomically.  When no library can be built or loaded, ``library`` prints one
``vseq: ...`` line on stderr and returns None; the oracle then runs its
Python loops and the joins their numpy passes.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_oracle.c")
COMPILE = ("cc", "-O2", "-shared", "-fPIC")

# the statuses of _oracle.c
OK, DEAD, NOT_MONOTONE, COUNT_OVERFLOW, VALUE_OVERFLOW, UNSETTLED = range(6)


class Oracle:
    """The loops of _oracle.c: the two oracle loops, which return a status
    and info[3], the kernel probe's distinct-byte count and the join."""

    def __init__(self, lib: ctypes.CDLL):
        i64 = ctypes.c_int64
        lib.vseq_qrs.argtypes = [ctypes.POINTER(ctypes.c_uint32), i64, i64, i64,
                                 i64, ctypes.POINTER(i64)]
        lib.vseq_count.argtypes = [ctypes.POINTER(ctypes.c_uint8), i64, i64, i64,
                                   ctypes.POINTER(ctypes.c_uint32), i64,
                                   ctypes.POINTER(i64)]
        lib.vseq_qrs.restype = lib.vseq_count.restype = ctypes.c_int
        ptr = ctypes.c_void_p
        lib.vseq_distinct_bytes.argtypes = [ptr, i64]
        lib.vseq_join.argtypes = [ptr, i64, i64, i64, i64, i64, i64, ptr,
                                  ctypes.c_uint64, ptr, i64]
        lib.vseq_distinct_bytes.restype = lib.vseq_join.restype = i64
        self._lib = lib

    def qrs(self, q: array, r: int, s: int, done: int) -> tuple[int, list[int]]:
        """Q_{r,s}(done + 1..len(q)) into the 32-bit array q, which holds
        Q_{r,s}(1..done) already."""
        info = (ctypes.c_int64 * 3)()
        view = (ctypes.c_uint32 * len(q)).from_buffer(q)
        status = self._lib.vseq_qrs(view, r, s, done, len(q), info)
        return status, list(info)

    def count(self, counts: bytearray, r: int, s: int) -> tuple[int, list[int]]:
        """counts[a] += #{n > s : Q_{r,s}(n) = a} for a below len(counts),
        with Q's last s terms in a ring of a power of two above s."""
        info = (ctypes.c_int64 * 3)()
        view = (ctypes.c_uint8 * len(counts)).from_buffer(counts)
        ring = (ctypes.c_uint32 * (1 << s.bit_length()))()
        status = self._lib.vseq_count(view, len(counts) - 1, r, s,
                                      ring, len(ring) - 1, info)
        return status, list(info)

    def distinct_bytes(self, vals: np.ndarray) -> int:
        """The number of distinct values in the uint8 array vals."""
        vals = np.ascontiguousarray(vals, dtype=np.uint8)
        return self._lib.vseq_distinct_bytes(vals.ctypes.data, vals.size)

    def join(self, ids: np.ndarray, first: int, stride: int, parts: int,
             count: int, k: int, d: int) -> tuple[np.ndarray, int]:
        """Dense ids, in order of first appearance, for the tuples
        (ids[first + stride i], ..., ids[first + stride i + parts - 1]),
        i < count, of ids below k that take at most d distinct values; and
        their number.  Tuples may overlap (parts > stride), but none reads
        outside the ids.  One rank table spans all k**parts tuples, so the
        caller keeps that space small: sequences.join_ids does."""
        ids = np.ascontiguousarray(ids)
        if (ids.dtype.kind != "u" or first < 0 or count < 1 or parts < 1
                or first + stride * (count - 1) + parts > ids.size):
            raise ValueError("join reads outside the ids")
        # at most min(count, d**parts) ids; the rank that marks the last one
        # seen is that number, so the dtype holds it
        dtype = np.min_scalar_type(min(count, d ** parts))
        rank = np.zeros(k ** parts, dtype=dtype)
        out = np.empty(count, dtype=dtype)
        distinct = self._lib.vseq_join(ids.ctypes.data, ids.itemsize, first, stride,
                                       parts, count, k, rank.ctypes.data, rank.size,
                                       out.ctypes.data, out.itemsize)
        if distinct < 0:
            raise ValueError(f"ids at or past {k}, more than {d} distinct, "
                             "or wider than 32 bits")
        return out, distinct


def _private_dir() -> Path:
    """The cache directory, created 0700; OSError if another user owns it
    or may write to it, because the library loaded from it runs as code."""
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    path = Path(root) / "vseq"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    if os.name == "posix" and (st.st_uid != os.getuid() or st.st_mode & 0o022):
        raise OSError(f"{path} is writable by another user")
    return path


def _load() -> Oracle:
    source = SOURCE.read_bytes()
    key = b"\0".join([source, " ".join(COMPILE).encode(),
                      platform.machine().encode(), sys.platform.encode()])
    cache = _private_dir()
    path = cache / f"oracle-{hashlib.sha256(key).hexdigest()[:16]}.so"
    if not path.exists():
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so")
        os.close(fd)
        try:
            subprocess.run([*COMPILE, "-o", tmp, str(SOURCE)], check=True,
                           capture_output=True, timeout=300)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return Oracle(ctypes.CDLL(str(path)))


@functools.cache
def library() -> Oracle | None:
    """The compiled loops, or None after one stderr line saying why not."""
    try:
        return _load()
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        print(f"vseq: no compiled oracle ({e}); running the slower Python loops",
              file=sys.stderr)
        return None
