"""The compiled loops of ``_oracle.c``, built on first use: V's count for
the oracle, the count resumed from F's counts alone into a ring that keeps
F's windows at planned indices, the pass that rewrites V's counts in place
as V's steps and the one that writes them out as V's terms, the byte
maximum, the tuple join that numbers the rule scan's windows and the kernel
probe's blocks, and the rule scan's compare of each a's image pair with its
window's.

``library`` compiles the source with the system ``cc`` and loads it with
ctypes.  It runs on the first oracle call, never at import.  The shared
library is cached in ``$XDG_CACHE_HOME/vseq`` (by default
``~/.cache/vseq``), a directory only the user may write, under a name hashed
from the source, the compiler command and the machine, and is written
atomically.  When no library can be built or loaded, ``library`` prints one
``vseq: ...`` line on stderr and returns None; every pass then runs its
plain-Python loop.

The passes take any flat, contiguous buffer of the format they read (a
bytearray, bytes, an ``array.array`` or a memoryview) and pass a pointer
into it, not a copy; only a read-only buffer other than a whole bytes
object is copied, as ctypes takes no pointer into one.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from array import array
from pathlib import Path

from .sequences import _dense

try:  # hashlib would map OpenSSL, about 3.5 MB, to name one file
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

SOURCE = Path(__file__).with_name("_oracle.c")
# -falign-loops=64 pins the hot loops' placement: without it, a change
# elsewhere in the file that moves a loop by 16 bytes can slow it by 10-20%
COMPILE = ("cc", "-O2", "-falign-loops=64", "-shared", "-fPIC")

# the statuses of _oracle.c, and what vseq_join returns for ids wider than
# its output's and for a hash table half full
(OK, DEAD, NOT_MONOTONE, COUNT_OVERFLOW, VALUE_OVERFLOW, UNSETTLED, RING_SHORT,
 OVERWRITE, TOO_FEW) = range(9)
WIDER, FULL = -2, -3

# array typecodes of the id widths the join writes: 1, 2, 4 bytes
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
                         f"{'bytes' if formats == 'B' else 'unsigned integers'}")
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
    """The loops of _oracle.c: the two counts, the in-place steps pass and
    the terms pass, which return a status and info[3], the byte maximum, the
    join, and the image-pair check.  Each pass checks the format, length
    and bounds of its buffers before it passes pointers; the counts of V
    take nothing that F's counts already fix."""

    def __init__(self, lib: ctypes.CDLL):
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        lib.vseq_count.argtypes = [ptr, i64, ptr]
        lib.vseq_ring_count.argtypes = [ptr, i64, ptr, i64, ptr, i64, ptr,
                                        ctypes.POINTER(i64)]
        lib.vseq_unary.argtypes = [ptr, i64, i64, i64, ptr]
        lib.vseq_expand.argtypes = [ptr, i64, ptr, i64, ptr]
        for fn in (lib.vseq_count, lib.vseq_ring_count, lib.vseq_unary,
                   lib.vseq_expand):
            fn.restype = ctypes.c_int
        lib.vseq_byte_max.argtypes = [ptr, i64]
        lib.vseq_join.argtypes = [ptr, i64, i64, i64, i64, i64, i64, ptr,
                                  ctypes.c_uint64, ptr, i64, i64]
        lib.vseq_pairs.argtypes = [ptr, ptr, ptr, i64, i64, i64]
        for fn in (lib.vseq_byte_max, lib.vseq_join, lib.vseq_pairs):
            fn.restype = i64
        # V's kernel tables, built here, holding the GIL, never inside a
        # loop that ctypes runs without it
        ctypes.PYFUNCTYPE(None)(("vseq_init", lib))()
        self._lib = lib

    def count(self, counts) -> tuple[int, list[int]]:
        """counts[a] = #{n : V(n) = a} for a below len(counts), at least 2,
        into the zeroed, writable byte buffer counts; the count writes the
        seed's counts[1] = 4 itself."""
        counts = _view(counts, "B", "count's counts", writable=True)
        if len(counts) < 2:
            raise ValueError("count takes counts of at least V = 0 and 1")
        info = (ctypes.c_int64 * 3)()
        status = self._lib.vseq_count(_pointer(counts), len(counts) - 1, info)
        return status, list(info)

    def ring_count(self, prefix, size: int,
                   plan: list[int]) -> tuple[int, list[int], bytearray]:
        """count's loop resumed from F's finished counts prefix (values 0
        to p = len(prefix) - 1), which fix V's terms up to their sum, to
        the plan's end + 1, the counts from p on kept in a ring of ``size``
        counts, a power of two of at least 64, at two bits a count
        (F(a) - 1, four counts a byte, so ``size // 4`` bytes): the status,
        info, and the windows F(n-2..n+1) at the sorted, distinct planned
        n from p on, four bytes each.  The read positions read the prefix
        in place until they pass it, then the ring.  The prefix's counts
        that the count reads, and every count past it, must lie in 1..4,
        or the status is COUNT_OVERFLOW."""
        prefix = _view(prefix, "B", "ring_count's prefix")
        p = len(prefix) - 1
        if size < 64 or size & (size - 1):
            raise ValueError(f"a ring of {size} counts is not a power of two >= 64")
        if (p < 1 or not plan or plan[0] < p
                or any(b <= a for a, b in zip(plan, plan[1:]))):
            raise ValueError("ring_count plans sorted, distinct windows from "
                             "the prefix's end on")
        info = (ctypes.c_int64 * 3)()
        planned = array("q", plan)
        windows = bytearray(4 * len(plan))
        counts = bytearray(size // 4)
        status = self._lib.vseq_ring_count(
            _pointer(prefix), p, _pointer(memoryview(counts)), size - 1,
            planned.buffer_info()[0], len(planned),
            _pointer(memoryview(windows)), info)
        return status, list(info), windows

    def unary(self, out, n: int, a_max: int) -> tuple[int, list[int]]:
        """V's steps on [1, n], out[k - 1] = V(k + 1) - V(k), written front
        to back over F(0..a_max), the counts that count left in the last
        a_max + 1 bytes of the writable byte buffer out: F's counts in
        unary, four at a time.  A count outside 1..4 is COUNT_OVERFLOW, a
        store that would reach a count not yet read OVERWRITE, and counts
        that run out, in whole blocks of four, before the steps pass n
        TOO_FEW; none writes outside out."""
        out = _view(out, "B", "unary's out", writable=True)
        if not 0 <= a_max < len(out) or n < 0:
            raise ValueError(f"unary takes F(0..{a_max}) at the end of "
                             f"{len(out)} bytes, and n >= 0")
        info = (ctypes.c_int64 * 3)()
        status = self._lib.vseq_unary(_pointer(out), len(out), a_max, n, info)
        return status, list(info)

    def expand(self, counts, v) -> tuple[int, list[int]]:
        """V(1..len(v)) into the writable buffer v of 32-bit terms, each a
        written F(a) times from the byte buffer counts, F(0..len(counts) - 1):
        counts that hold len(v) terms or fewer are TOO_FEW, and nothing is
        written past v."""
        counts = _view(counts, "B", "expand's counts")
        v = _view(v, "I", "expand's terms", writable=True)
        info = (ctypes.c_int64 * 3)()
        status = self._lib.vseq_expand(_pointer(counts), len(counts) - 1,
                                       _pointer(v), len(v), info)
        return status, list(info)

    def byte_max(self, vals) -> int:
        """The largest of the bytes vals, 0 for none."""
        vals = _view(vals, "B", "byte_max's input")
        return self._lib.vseq_byte_max(_pointer(vals), len(vals))

    def join(self, ids, first: int, stride: int, parts: int, count: int,
             k: int) -> tuple[array, int]:
        """sequences.join_ids, compiled, run at one byte and again at each
        wider width its ids overflow.  Where the k**parts tuples are few
        (_dense), one rank table spans them; past that, a hash table of
        2^12 slots, doubled each time the loop finds it half full."""
        view = _view(ids, "BHILQ", "join's ids")
        if (first < 0 or count < 1 or parts < 1 or count >= 2 ** 32 - 1
                or first + stride * (count - 1) + parts > len(view)):
            raise ValueError("join reads outside the ids")
        dense = _dense(k ** parts, count)
        src, width, slots = _pointer(view), 0, 1 << 12
        while True:
            out = array(ID_CODES[width], [0]) * count
            table = array(ID_CODES[width] if dense else "I", [0]) * (
                k ** parts if dense else slots)
            distinct = self._lib.vseq_join(
                src, view.itemsize, first, stride, parts, count, k,
                table.buffer_info()[0], len(table), out.buffer_info()[0],
                out.itemsize, not dense)
            if distinct == WIDER and width < 2:
                width += 1
            elif distinct == FULL:
                slots *= 2
            else:
                break
        if distinct < 0:
            raise ValueError(f"ids at or past {k}, or more than 2^32 - 1 of them")
        return out, distinct

    def pairs(self, ids, expect, pairs) -> int:
        """The least i with the pair pairs[2i:2i + 2] unlike
        expect[2 ids[i]:2 ids[i] + 2], or -1: ids 1, 2 or 4 bytes wide, one
        expected pair F(2a), F(2a+1) per id, in a table of at least the 256
        pairs one-byte ids reach, passed as it is, and one pair per i, all
        bytes.  An id past the table raises ValueError."""
        ids = _view(ids, "BHI", "pairs' ids")
        expect, pairs = (_view(b, "B", what) for b, what in (
            (expect, "pairs' expected pairs"), (pairs, "pairs' pairs")))
        if len(pairs) != 2 * len(ids) or len(expect) % 2 or len(expect) < 512:
            raise ValueError("pairs takes a table of 256 pairs or more, and a "
                             "pair per i")
        i = self._lib.vseq_pairs(_pointer(ids), _pointer(expect), _pointer(pairs),
                                 len(ids), ids.itemsize, len(expect) // 2)
        if i == -2:
            raise ValueError("pairs' ids must lie below their tables")
        return i


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
