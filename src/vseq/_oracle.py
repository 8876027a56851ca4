"""The compiled loops of ``_oracle.c``, built on first use: the Q_{r,s}
recursion and count for the oracle, the count resumed into a ring that keeps
F's windows at planned indices, the pass that marks V's steps from F,
the byte sum, maximum and distinct count, the tuple join that numbers the
rule scan's windows, discovery's windows and the kernel probe's blocks,
and the two checks of the synthesize pipeline: cross-validation's walk of
the stride table against F, and the rule scan's compare of each a's image
pair with its window's.

``library`` compiles the source with the system ``cc`` and loads it with
ctypes.  It runs on the first oracle call, never at import.  The shared
library is cached in ``$XDG_CACHE_HOME/vseq`` (by default
``~/.cache/vseq``), a directory only the user may write, under a name hashed
from the source, the compiler command and the machine, and is written
atomically.  When no library can be built or loaded, ``library`` prints one
``vseq: ...`` line on stderr and returns None; the oracle then runs its
Python loops, and the joins and checks their numpy passes.

Nothing here imports numpy.  The passes take any flat, contiguous buffer of
the format they read (a bytearray, bytes, an ``array.array``, a memoryview
or a numpy array) and pass a pointer into it, not a copy; only a read-only
buffer other than a whole bytes object is copied, as ctypes takes no
pointer into one.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from array import array
from pathlib import Path

try:  # hashlib would map OpenSSL, about 3.5 MB, to name one file
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

SOURCE = Path(__file__).with_name("_oracle.c")
COMPILE = ("cc", "-O2", "-shared", "-fPIC")

# the statuses of _oracle.c, and what vseq_join returns for ids wider than
# its output's
OK, DEAD, NOT_MONOTONE, COUNT_OVERFLOW, VALUE_OVERFLOW, UNSETTLED, RING_SHORT = range(7)
WIDER = -2

# array typecodes of the id widths the join reads and writes: 1, 2, 4 bytes
ID_CODES = "BHI"


def _view(buf, formats: str, what: str, writable: bool = False) -> memoryview:
    """buf as a memoryview, ValueError unless it is flat and C-contiguous,
    one of the unsigned struct formats ``formats`` at 1, 2 or 4 bytes an
    item, and writable where asked."""
    view = memoryview(buf)
    fmt = view.format.lstrip("@=")
    if (view.ndim != 1 or not view.c_contiguous or len(fmt) != 1
            or fmt not in formats or view.itemsize not in (1, 2, 4)
            or (writable and view.readonly)):
        raise ValueError(f"{what} must be a flat, contiguous"
                         f"{' writable' if writable else ''} buffer of "
                         f"{'bytes' if formats == 'B' else 'unsigned ids'}")
    return view


def _pointer(view: memoryview):
    """A c_void_p argument for the view's first byte: a ctypes array over
    it, or a bytes object itself, which ctypes passes by its own storage;
    any other read-only buffer is copied."""
    if not view.readonly:
        return (ctypes.c_char * view.nbytes).from_buffer(view)
    if type(view.obj) is bytes and len(view.obj) == view.nbytes:
        return view.obj
    return (ctypes.c_char * view.nbytes).from_buffer_copy(view)


class Oracle:
    """The loops of _oracle.c: the three oracle loops, which return a status
    and info[3], the marking pass, the byte passes, the join, and the
    cross-validation and image-pair checks.  Each pass checks the
    format, length and bounds of its buffers before it passes pointers."""

    def __init__(self, lib: ctypes.CDLL):
        i64 = ctypes.c_int64
        lib.vseq_qrs.argtypes = [ctypes.POINTER(ctypes.c_uint32), i64, i64, i64,
                                 i64, ctypes.POINTER(i64)]
        lib.vseq_count.argtypes = [ctypes.POINTER(ctypes.c_uint8), i64, i64, i64,
                                   i64, ctypes.POINTER(ctypes.c_uint32), i64,
                                   ctypes.POINTER(i64)]
        ptr = ctypes.c_void_p
        lib.vseq_ring_count.argtypes = [ptr, i64, ptr, i64, i64, i64, ptr, i64,
                                        ptr, ctypes.POINTER(i64)]
        lib.vseq_qrs.restype = lib.vseq_count.restype = ctypes.c_int
        lib.vseq_ring_count.restype = ctypes.c_int
        lib.vseq_marks.argtypes = [ptr, i64, ptr, i64]
        for fn in (lib.vseq_byte_sum, lib.vseq_byte_max, lib.vseq_distinct_bytes):
            fn.argtypes = [ptr, i64]
        lib.vseq_join.argtypes = [ptr, i64, i64, i64, i64, i64, i64, ptr,
                                  ctypes.c_uint64, ptr, i64, i64]
        lib.vseq_check.argtypes = [ptr, i64, ptr, ptr, i64, ptr, i64]
        lib.vseq_pairs.argtypes = [ptr, ptr, ptr, ptr, i64]
        for fn in (lib.vseq_marks, lib.vseq_byte_sum, lib.vseq_byte_max,
                   lib.vseq_distinct_bytes, lib.vseq_join, lib.vseq_check,
                   lib.vseq_pairs):
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

    def ring_count(self, prefix, done: int, a_max: int, size: int,
                   plan: list[int]) -> tuple[int, list[int], bytearray]:
        """count's loop for V resumed from F's finished counts prefix
        (values 0 to p = len(prefix) - 1, done their sum) up to a_max, the
        counts past p kept in a ring of ``size`` counts, a power of two of
        at least 64: the status, info, and the windows F(n-2..n+1) at the
        sorted, distinct planned n in [p, a_max - 1], four bytes each."""
        prefix = _view(prefix, "B", "ring_count's prefix")
        p = len(prefix) - 1
        if size < 64 or size & (size - 1):
            raise ValueError(f"a ring of {size} counts is not a power of two >= 64")
        if (p < 1 or a_max < p or any(b <= a for a, b in zip(plan, plan[1:]))
                or any(not p <= n < a_max for n in plan[:1] + plan[-1:])):
            raise ValueError("ring_count plans sorted, distinct windows from "
                             "the prefix's end to the count's")
        info = (ctypes.c_int64 * 3)()
        planned = array("q", plan)
        windows = bytearray(4 * len(plan))
        counts = bytearray(size)
        status = self._lib.vseq_ring_count(
            _pointer(prefix), p, _pointer(memoryview(counts)), size - 1, a_max,
            done, planned.buffer_info()[0], len(planned),
            _pointer(memoryview(windows)), info)
        return status, list(info), windows

    def marks(self, counts, out) -> int:
        """out[S(a) - 1] = 1 for each a >= 1 with 0 < S(a) <= len(out),
        where S(a) = counts[1] + ... + counts[a] over the byte counts; S at
        the first a whose S passes len(out), or at the counts' end if none
        does.  out is a writable byte buffer."""
        counts = _view(counts, "B", "marks' counts")
        out = _view(out, "B", "marks' out", writable=True)
        if len(counts) < 1:
            raise ValueError("marks takes counts from index 0")
        return self._lib.vseq_marks(_pointer(counts), len(counts) - 1,
                                    _pointer(out), len(out))

    def byte_sum(self, vals) -> int:
        """The sum of the bytes vals."""
        vals = _view(vals, "B", "byte_sum's input")
        return self._lib.vseq_byte_sum(_pointer(vals), len(vals))

    def byte_max(self, vals) -> int:
        """The largest of the bytes vals, 0 for none."""
        vals = _view(vals, "B", "byte_max's input")
        return self._lib.vseq_byte_max(_pointer(vals), len(vals))

    def distinct_bytes(self, vals) -> int:
        """The number of distinct values among the bytes vals."""
        vals = _view(vals, "B", "distinct_bytes' input")
        return self._lib.vseq_distinct_bytes(_pointer(vals), len(vals))

    def join(self, ids, first: int, stride: int, parts: int, count: int,
             k: int, pad: int = 0) -> tuple[array, int]:
        """Dense ids, in order of first appearance, for the tuples
        (ids[first + stride i], ..., ids[first + stride i + parts - 1]),
        i < count, of unsigned ids below k, 1, 2 or 4 bytes each; and their
        number.  The ids are read as if ``pad`` zero ids came before them,
        without a copy: the few tuples that reach into the pad are ranked
        here, the rest by the compiled loop after them.  The ids come as an
        ``array`` of the narrowest typecode that holds their number, 'B' up
        to 255 of them: the join runs at one byte and again at each wider
        width its ids overflow.  Tuples may overlap (parts > stride), but
        none reads outside the ids.  One rank table spans all k**parts
        tuples, so the caller keeps that space small: sequences.join_ids
        does."""
        view = _view(ids, "BHILQ", "join's ids")
        if (first < 0 or count < 1 or parts < 1 or pad < 0
                or first + stride * (count - 1) + parts > pad + len(view)):
            raise ValueError("join reads outside the ids")
        # the tuples that read the pad, each as its code
        lead = min(count, max(0, -(-(pad - first) // stride)))
        codes = []
        for i in range(lead):
            tuple_code = 0
            for j in range(first + stride * i, first + stride * i + parts):
                tuple_code = tuple_code * k + (view[j - pad] if j >= pad else 0)
            codes.append(tuple_code)
        if any(c >= k ** parts for c in codes):
            raise ValueError(f"ids at or past {k}")
        src = _pointer(view)
        for code in ID_CODES:
            # the rank that marks the last id seen is their number, so the
            # rank table has the ids' width
            rank = array(code, [0]) * k ** parts
            out = array(code, [0]) * count
            distinct = 0
            for i, c in enumerate(codes):
                if not rank[c]:
                    distinct += 1
                    rank[c] = distinct
                out[i] = rank[c] - 1
            if lead < count:
                distinct = self._lib.vseq_join(
                    src, view.itemsize, first + stride * lead - pad, stride,
                    parts, count - lead, k, rank.buffer_info()[0], len(rank),
                    out.buffer_info()[0] + lead * out.itemsize, out.itemsize,
                    distinct)
            if distinct != WIDER:
                break
        if distinct < 0:
            raise ValueError(f"ids at or past {k}, or more than 2^32 - 1 of them")
        return out, distinct

    def check(self, table, head, outputs, w: int, f, n_max: int) -> int:
        """The least n in [0, n_max] at which the output of state(n) differs
        from the oracle bytes f (F from index 0), or -1.  state(n) is
        head[n] for n below the width W of the S x W stride table (rows
        of W bytes, Dfao.stride_table), and table[W head[n // W] + n % W]
        from W on; outputs holds w bytes per state, compared with F(n)
        (w = 1) or F(n-2..n+1) (w = 4, F(-2) = F(-1) = 0).  All four are
        byte buffers, so at most 256 states."""
        table, head, outputs, f = (_view(b, "B", what) for b, what in (
            (table, "check's table"), (head, "check's head"),
            (outputs, "check's outputs"), (f, "check's oracle")))
        states = len(outputs) // w if w in (1, 4) else 0
        if (states < 1 or len(outputs) != states * w or len(table) % states
                or n_max < 0):
            raise ValueError("check takes a row of the stride table and w "
                             "output bytes for each state")
        width = len(table) // states
        if (width < 1 or len(head) <= max(n_max // width, min(n_max, width - 1))
                or len(f) <= n_max + (w == 4)
                or max(self.byte_max(table), self.byte_max(head)) >= states):
            raise ValueError("check takes buffers that hold every state and "
                             "F value it reads")
        return self._lib.vseq_check(_pointer(table), width, _pointer(head),
                                    _pointer(outputs), w, _pointer(f), n_max)

    def pairs(self, ids, expect, known, pairs) -> int:
        """The least i with known[ids[i]] and the pair pairs[2i:2i + 2]
        unlike expect[2 ids[i]:2 ids[i] + 2], or -1: one-byte ids, one
        known flag and one expected pair F(2a), F(2a+1) per id, and one pair
        per i, all byte buffers.  expect and known are read through all 256
        one-byte ids, padded here past their end."""
        ids, expect, known, pairs = (_view(b, "B", what) for b, what in (
            (ids, "pairs' ids"), (expect, "pairs' expected pairs"),
            (known, "pairs' known flags"), (pairs, "pairs' pairs")))
        if (len(pairs) != 2 * len(ids) or len(expect) != 2 * len(known)
                or len(known) > 256):
            raise ValueError("pairs takes one-byte ids and a pair per id")
        table = bytearray(512)
        table[:len(expect)] = expect
        seen = bytearray(256)
        seen[:len(known)] = known
        return self._lib.vseq_pairs(_pointer(ids), _pointer(memoryview(table)),
                                    _pointer(memoryview(seen)), _pointer(pairs),
                                    len(ids))


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


def _build(cache: Path, path: Path) -> None:
    """Compile SOURCE into path, through a temporary file in cache; a
    failed or timed-out compile raises RuntimeError with its message."""
    import subprocess  # a cache miss only
    import tempfile
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so")
    os.close(fd)
    try:
        subprocess.run([*COMPILE, "-o", tmp, str(SOURCE)], check=True,
                       capture_output=True, timeout=300)
        os.replace(tmp, path)
    except subprocess.SubprocessError as e:
        raise RuntimeError(e) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> Oracle:
    source = SOURCE.read_bytes()
    # os.uname().machine is platform.machine() on POSIX, without importing
    # platform
    machine = os.uname().machine if hasattr(os, "uname") else ""
    key = b"\0".join([source, " ".join(COMPILE).encode(), machine.encode(),
                      sys.platform.encode()])
    cache = _private_dir()
    path = cache / f"oracle-{blake2b(key, digest_size=8).hexdigest()}.so"
    if not path.exists():
        _build(cache, path)
    return Oracle(ctypes.CDLL(str(path)))


@functools.cache
def library() -> Oracle | None:
    """The compiled loops, or None after one stderr line saying why not."""
    try:
        return _load()
    except (OSError, RuntimeError) as e:
        print(f"vseq: no compiled oracle ({e}); running the slower Python loops",
              file=sys.stderr)
        return None
