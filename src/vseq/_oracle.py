"""The compiled loops of ``_oracle.c``, built on first use: the Q_{r,s}
recursion and count for the oracle, the pass that marks V's steps from F,
the tuple join that numbers the rule scan's windows, discovery's windows
and the kernel probe's blocks, and the two checks of the synthesize
pipeline: cross-validation's walk of the stride table against F, and the
rule scan's compare of each a's image pair with its window's.

``library`` compiles the source with the system ``cc`` and loads it with
ctypes.  It runs on the first oracle call, never at import.  The shared
library is cached in ``$XDG_CACHE_HOME/vseq`` (by default
``~/.cache/vseq``), a directory only the user may write, under a name hashed
from the source, the compiler command and the machine, and is written
atomically.  When no library can be built or loaded, ``library`` prints one
``vseq: ...`` line on stderr and returns None; the oracle then runs its
Python loops, and the joins and checks their numpy passes.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import numpy as np

try:  # hashlib would map OpenSSL, about 3.5 MB, to name one file
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

SOURCE = Path(__file__).with_name("_oracle.c")
COMPILE = ("cc", "-O2", "-shared", "-fPIC")

# the statuses of _oracle.c, and what vseq_join returns for ids wider than
# its output's
OK, DEAD, NOT_MONOTONE, COUNT_OVERFLOW, VALUE_OVERFLOW, UNSETTLED = range(6)
WIDER = -2


class Oracle:
    """The loops of _oracle.c: the two oracle loops, which return a status
    and info[3], the marking pass, the kernel probe's distinct-byte count,
    the join, and the cross-validation and image-pair checks."""

    def __init__(self, lib: ctypes.CDLL):
        i64 = ctypes.c_int64
        lib.vseq_qrs.argtypes = [ctypes.POINTER(ctypes.c_uint32), i64, i64, i64,
                                 i64, ctypes.POINTER(i64)]
        lib.vseq_count.argtypes = [ctypes.POINTER(ctypes.c_uint8), i64, i64, i64,
                                   i64, ctypes.POINTER(ctypes.c_uint32), i64,
                                   ctypes.POINTER(i64)]
        lib.vseq_qrs.restype = lib.vseq_count.restype = ctypes.c_int
        ptr = ctypes.c_void_p
        lib.vseq_marks.argtypes = [ptr, i64, ptr, i64]
        lib.vseq_distinct_bytes.argtypes = [ptr, i64]
        lib.vseq_join.argtypes = [ptr, i64, i64, i64, i64, i64, i64, ptr,
                                  ctypes.c_uint64, ptr, i64]
        lib.vseq_check.argtypes = [ptr, i64, ptr, ptr, i64, ptr, i64]
        lib.vseq_pairs.argtypes = [ptr, ptr, ptr, ptr, i64]
        for fn in (lib.vseq_marks, lib.vseq_distinct_bytes, lib.vseq_join,
                   lib.vseq_check, lib.vseq_pairs):
            fn.restype = i64
        self._lib = lib

    def qrs(self, q: array, r: int, s: int, done: int) -> tuple[int, list[int]]:
        """Q_{r,s}(done + 1..len(q)) into the 32-bit array q, which holds
        Q_{r,s}(1..done) already."""
        info = (ctypes.c_int64 * 3)()
        view = (ctypes.c_uint32 * len(q)).from_buffer(q)
        status = self._lib.vseq_qrs(view, r, s, done, len(q), info)
        return status, list(info)

    def count(self, counts: bytearray, r: int, s: int,
              done: int) -> tuple[int, list[int]]:
        """counts[a] += #{n > done : Q_{r,s}(n) = a} for a below len(counts),
        where counts holds Q_{r,s}(1..done) already, done >= s; Q's last s
        terms go in a ring of a power of two above s."""
        info = (ctypes.c_int64 * 3)()
        view = (ctypes.c_uint8 * len(counts)).from_buffer(counts)
        ring = (ctypes.c_uint32 * (1 << s.bit_length()))()
        status = self._lib.vseq_count(view, len(counts) - 1, r, s, done,
                                      ring, len(ring) - 1, info)
        return status, list(info)

    def marks(self, counts: np.ndarray, out: np.ndarray) -> int:
        """out[S(a) - 1] = 1 for each a >= 1 with 0 < S(a) <= out.size,
        where S(a) = counts[1] + ... + counts[a] over the uint8 counts; S at
        the first a whose S passes out.size, or at the counts' end if none
        does."""
        counts = np.ascontiguousarray(counts, dtype=np.uint8)
        if (counts.size < 1 or out.dtype != np.uint8
                or not (out.flags.c_contiguous and out.flags.writeable)):
            raise ValueError("marks takes counts from index 0 and a writable, "
                             "contiguous uint8 out")
        return self._lib.vseq_marks(counts.ctypes.data, counts.size - 1,
                                    out.ctypes.data, out.size)

    def distinct_bytes(self, vals: np.ndarray) -> int:
        """The number of distinct values in the uint8 array vals."""
        vals = np.ascontiguousarray(vals, dtype=np.uint8)
        return self._lib.vseq_distinct_bytes(vals.ctypes.data, vals.size)

    def join(self, ids: np.ndarray, first: int, stride: int, parts: int,
             count: int, k: int) -> tuple[np.ndarray, int]:
        """Dense ids, in order of first appearance, for the tuples
        (ids[first + stride i], ..., ids[first + stride i + parts - 1]),
        i < count, of ids below k; and their number.  The ids come in the
        narrowest dtype that holds their number, uint8 up to 255 of them:
        the join runs at one byte and again at each wider width its ids
        overflow.  Tuples may overlap (parts > stride), but none reads
        outside the ids.  One rank table spans all k**parts tuples, so the
        caller keeps that space small: sequences.join_ids does."""
        ids = np.ascontiguousarray(ids)
        if (ids.dtype.kind != "u" or first < 0 or count < 1 or parts < 1
                or first + stride * (count - 1) + parts > ids.size):
            raise ValueError("join reads outside the ids")
        for dtype in (np.uint8, np.uint16, np.uint32):
            # the rank that marks the last id seen is their number, so the
            # rank table has the ids' width
            rank = np.zeros(k ** parts, dtype=dtype)
            out = np.empty(count, dtype=dtype)
            distinct = self._lib.vseq_join(ids.ctypes.data, ids.itemsize, first,
                                           stride, parts, count, k, rank.ctypes.data,
                                           rank.size, out.ctypes.data, out.itemsize)
            if distinct != WIDER:
                break
        if distinct < 0:
            raise ValueError(f"ids at or past {k}, or more than 2^32 - 1 of them")
        return out, distinct

    def check(self, table: np.ndarray, head: np.ndarray, outputs: np.ndarray,
              f: np.ndarray, n_max: int) -> int:
        """The least n in [0, n_max] at which the output of state(n) differs
        from the oracle bytes f (F from index 0), or -1.  state(n) is
        head[n] for n below the width W of the S x W stride table, and
        table[head[n // W], n % W] from W on; outputs is S x w, one byte
        per state and digit, each row compared with F(n) (w = 1) or
        F(n-2..n+1) (w = 4, F(-2) = F(-1) = 0).  All four arrays are uint8,
        so at most 256 states."""
        width, w = table.shape[1], outputs.shape[1]
        states = table.shape[0]
        if (any(a.dtype != np.uint8 or not a.flags.c_contiguous
                for a in (table, head, outputs, f))
                or outputs.shape[0] != states or w not in (1, 4) or n_max < 0
                or head.size <= max(n_max // width, min(n_max, width - 1))
                or f.size <= n_max + (w == 4)
                or max(int(table.max()), int(head.max())) >= states):
            raise ValueError("check takes contiguous uint8 arrays that hold "
                             "every state and F value it reads")
        return self._lib.vseq_check(table.ctypes.data, width, head.ctypes.data,
                                    outputs.ctypes.data, w, f.ctypes.data, n_max)

    def pairs(self, ids: np.ndarray, expect: np.ndarray, known: np.ndarray,
              pairs: np.ndarray) -> int:
        """The least i with known[ids[i]] and pairs[i] != expect[ids[i]],
        or -1: ids uint8, known bool and expect and pairs little-endian
        uint16, one pair F(2a) + 256 F(2a+1) per a.  expect and known are
        read through all 256 one-byte ids, padded here past their end."""
        count = ids.size
        if (ids.dtype != np.uint8 or expect.dtype != np.dtype("<u2")
                or pairs.dtype != np.dtype("<u2") or pairs.size != count
                or expect.size != known.size or expect.size > 256):
            raise ValueError("pairs takes one-byte ids and a pair per id")
        table = np.zeros(256, dtype="<u2")
        table[:expect.size] = expect
        seen = np.zeros(256, dtype=np.uint8)
        seen[:known.size] = known
        ids, pairs = np.ascontiguousarray(ids), np.ascontiguousarray(pairs)
        return self._lib.vseq_pairs(ids.ctypes.data, table.ctypes.data,
                                    seen.ctypes.data, pairs.ctypes.data, count)


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
    path = cache / f"oracle-{blake2b(key, digest_size=8).hexdigest()}.so"
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
