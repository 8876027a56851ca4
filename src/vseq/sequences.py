"""Brute-force generators for the Hofstadter-Huber family of nested
recurrences and derived sequences.

The V sequence is Q_{1,4}: V(1..4) = 1 and V(n) = V(n-V(n-1)) + V(n-V(n-4))
for n > 4 (OEIS A063882).  Its frequency sequence F counts occurrences:
F(a) = #{n : V(n) = a} (A132157), stored from index 0 with F(0) = 0.

Everything downstream (rule derivation, automaton synthesis, certification)
treats the tables produced here as ground truth, so the generators guard
their own consistency: meta-Fibonacci recursions abort as soon as an
argument leaves the defined range, and the F scan re-checks that V is
non-decreasing with steps in {0, 1}.

Seed convention: general Q_{r,s} is seeded with s ones, Q_{r,s}(1..s) = 1,
matching V's seed at (r, s) = (1, 4).  Other seed choices give different
sequences, which is why the CLI prints the convention with every table.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np


class DeadSequence(Exception):
    """A recursion argument left [1, n-1]; the sequence has no term at n."""

    def __init__(self, label: str, n: int, argument: int, partial: Sequence[int]):
        self.label = label
        self.n = n
        self.argument = argument
        self.partial = partial
        super().__init__(
            f"{label} dies at n = {n}: argument {argument} outside [1, {n - 1}]"
        )


class MonotonicityViolation(Exception):
    """V failed to be non-decreasing with steps in {0, 1} during a scan."""


@dataclass(frozen=True)
class SequenceTable:
    """Integer sequence values on the inclusive index interval [lo, hi].

    ``values`` may be any integer sequence; generators pick a compact
    backing store: a 32-bit ``array("I")`` for V and Q_{r,s}, a bytearray
    for F, a numpy array in the narrowest integer dtype for first
    differences.  An F table is counted without a V table, so it costs one
    byte per index in all.

    The windows (S(n-2), S(n-1), S(n), S(n+1)) read 0 below lo, the F(-2)
    = F(-1) = 0 convention: window4 gives one, window_bytes the bytes of
    every window on a range.
    """

    lo: int
    hi: int
    values: Sequence[int]
    label: str = ""

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"hi={self.hi} < lo={self.lo}")
        if len(self.values) != self.hi - self.lo + 1:
            raise ValueError(
                f"length {len(self.values)} != hi-lo+1 = {self.hi - self.lo + 1}"
            )

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __getitem__(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise IndexError(f"index {n} outside [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def window4(self, n: int) -> tuple[int, int, int, int]:
        """The 4-window (S(n-2), S(n-1), S(n), S(n+1)), zero-padded below lo.

        Indices above hi are an error: padding exists for the F(-1) and
        F(-2) boundary convention, never to fake missing data.
        """
        if n + 1 > self.hi:
            raise IndexError(f"index {n + 1} above table end {self.hi}")
        vals, lo = self.values, self.lo
        return tuple(vals[i - lo] if i >= lo else 0 for i in range(n - 2, n + 2))

    def byte_values(self) -> np.ndarray:
        """The values as a uint8 array, without a copy for a bytearray store;
        ValueError unless every value fits one byte."""
        vals = np.asarray(self.values)
        if vals.dtype != np.uint8:
            if vals.size and (int(vals.min()) < 0 or int(vals.max()) > 255):
                raise ValueError(f"{self.label} values must lie in [0, 255]")
            vals = vals.astype(np.uint8)
        return vals

    def window_bytes(self, lo: int, hi: int) -> bytes:
        """S(lo-2) through S(hi+1), one byte each, in one copy: the window
        at n, window4(n), is the four bytes at offset n - lo.  Like window4,
        indices below the table read as 0 and indices above it are an
        error; ValueError unless every value fits one byte."""
        if hi + 1 > self.hi:
            raise IndexError(f"index {hi + 1} above table end {self.hi}")
        seg = self.byte_values()[max(lo - 2 - self.lo, 0):max(hi + 2 - self.lo, 0)]
        # the bytes missing from the table all lie below it
        return b"".join((bytes(hi - lo + 4 - seg.size), np.ascontiguousarray(seg).data))


def _narrowest(d: int) -> np.dtype:
    """The narrowest unsigned dtype holding every id below d."""
    return np.min_scalar_type(max(d - 1, 0))


def _dense(space: int, size: int) -> bool:
    """Whether ``size`` codes in [0, space) are compacted through a table
    over the whole space: only while it is not much larger than the codes."""
    return space <= size + (1 << 16)


def _compact(codes: np.ndarray, space: int) -> tuple[np.ndarray, int]:
    """Dense ids for codes in [0, space): equal codes get equal ids, in the
    narrowest dtype; and the number of distinct codes."""
    if _dense(space, codes.size):
        present = np.zeros(space, dtype=bool)
        present[codes] = True
        where = np.flatnonzero(present)
        rank = np.zeros(space, dtype=_narrowest(len(where)))
        rank[where] = np.arange(len(where))
        return rank[codes], len(where)
    distinct, ids = np.unique(codes, return_inverse=True)
    return ids.astype(_narrowest(len(distinct))), len(distinct)


def join_ids(ids: np.ndarray, k: int, first: int, stride: int, parts: int,
             count: int, d: int) -> tuple[np.ndarray, int]:
    """Dense ids for the tuples (ids[first + stride i + j])_{j < parts},
    i < count, of unsigned ids below k that take at most d distinct values:
    equal tuples get equal ids, in a narrow dtype; and their number.  Tuples
    may overlap (parts > stride), as the rule scan's 4-windows at stride 1 do.

    The compiled join (``_oracle.c``) runs when a library loads for ids.size
    steps and its rank table over all k**parts tuples is dense; otherwise
    each tuple is packed into one code, compacted early where a code could
    pass 64 bits, and _compact numbers the codes.  The two engines order the
    ids differently, so callers read only which ids are equal.
    """
    lib = _compiled(ids.size)
    if lib is not None and _dense(k ** parts, count):
        return lib.join(ids, first, stride, parts, count, k, d)
    children = [ids[first + j:first + j + stride * (count - 1) + 1:stride]
                for j in range(parts)]
    code, space = children[0], k
    for child in children[1:]:
        if space * k > 1 << 64:
            code, space = _compact(code, space)
        code = code.astype(_narrowest(space * k))  # a copy: ids stay intact
        code *= k
        code += child
        space *= k
    return _compact(code, space)


# V and Q_{r,s} are stored in 32 bits, so no size may pass this
MAX_SIZE = 2 ** 32 - 1


def _size(value, name: str, least: int, least_text: str = "") -> int:
    """``value`` as an int in [least, MAX_SIZE]: TypeError for a non-integer,
    ValueError outside the range."""
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least_text or least}")
    if value > MAX_SIZE:
        raise ValueError(f"{name} = {value} is past the oracle's 32-bit range")
    return value


# under this many recursion steps the Python loop takes a few ms, less than
# loading the compiled loops (let alone building them on first use)
COMPILED_FROM = 1 << 14


def _compiled(steps: int):
    """The compiled loops for a run of ``steps`` recursion steps, or None
    for the Python loops: for a short run, or when they cannot be built.
    They are built on the first long run, never at import."""
    if steps < COMPILED_FROM:
        return None
    from ._oracle import library
    return library()


def _raise(status: int, info: list[int], label: str, partial) -> None:
    """Raise what the Python loops raise for a status of _oracle.c;
    ``partial(n)`` gives the table before a dead index n."""
    from . import _oracle
    if status == _oracle.DEAD:
        n, argument = info[0], info[1]
        raise DeadSequence(label, n, argument, partial(n))
    if status == _oracle.NOT_MONOTONE:
        n, prev, val = info
        raise MonotonicityViolation(
            f"{label}({n - 1}) = {prev} followed by {label}({n}) = {val}")
    if status == _oracle.COUNT_OVERFLOW:
        raise ValueError(f"{label} takes the value {info[0]} more than 255 times")
    if status == _oracle.VALUE_OVERFLOW:
        raise OverflowError(f"{label}({info[0]}) = {info[1]} does not fit 32 bits")
    if status == _oracle.UNSETTLED:
        n, argument = info[0], info[1]
        raise RuntimeError(f"{label}({n}) read {label}({argument}) from a count "
                           "that was not final")


def _recursion(r: int, s: int, n_max: int, label: str) -> SequenceTable:
    """Q_{r,s}(1..n_max) under the all-ones seed, compiled when possible.

    The table grows by doubling, so that a sequence that dies early never
    holds memory for all of n_max.
    """
    lib = _compiled(n_max)
    if lib is None:
        return _recursion_py(r, s, n_max, label)
    q = array("I", [1]) * s
    while len(q) < n_max:
        done = len(q)
        q.frombytes(bytes(4 * (min(n_max, 2 * done + (1 << 16)) - done)))
        status, info = lib.qrs(q, r, s, done)
        _raise(status, info, label, lambda n: q[:n - 1])
    return SequenceTable(1, n_max, q, label)


def _recursion_py(r: int, s: int, n_max: int, label: str) -> SequenceTable:
    """The reference loop of _recursion.

    Values are always >= 1 (sums of two earlier values, all-ones seed), so
    both arguments stay at or below n-1; only the lower bound of the range
    guard can fail, and it does for some (r, s).  Without the guard a
    negative index would silently wrap around and corrupt the table.
    """
    q = array("I", [0])  # q[0] unused; 1-indexed
    q.extend([1] * s)
    append = q.append
    for n in range(s + 1, n_max + 1):
        i1 = n - q[n - r]
        i2 = n - q[n - s]
        if i1 < 1 or i2 < 1:
            raise DeadSequence(label, n, min(i1, i2), q[1:n])
        append(q[i1] + q[i2])
    return SequenceTable(1, n_max, q[1:], label)


def _frequency(r: int, s: int, a_max: int, label: str) -> bytearray:
    """counts[a] = #{n : Q_{r,s}(n) = a} for a in [0, a_max], compiled when
    possible; Q is generated and checked as in _frequency_py.  The compiled
    loop keeps only Q's last s terms and reads the older ones back from the
    counts (see _oracle.c), so the counts are all the memory it takes.
    gen_f counts V = Q_{1,4}; other (r, s) reach the checks V never trips."""
    lib = _compiled(2 * a_max)  # V(n) is about n / 2
    if lib is None:
        return _frequency_py(r, s, a_max, label)
    counts = bytearray(a_max + 1)
    counts[1] = s  # Q(1..s) = 1
    status, info = lib.count(counts, r, s)
    _raise(status, info, label,
           lambda n: _recursion(r, s, n - 1, label).values)
    return counts


def _frequency_py(r: int, s: int, a_max: int, label: str) -> bytearray:
    """The reference loop of _frequency.

    Q is scanned until its value first reaches a_max + 1; monotonicity
    (steps in {0, 1}) makes every count at or below a_max complete at that
    point, and is itself verified during the scan.  A count past 255 raises
    (a bytearray holds no more).
    """
    counts = bytearray(a_max + 1)
    counts[1] = s  # Q(1..s) = 1
    v = array("I", [0])  # v[0] unused; 1-indexed
    v.extend([1] * s)
    append = v.append
    n = s + 1
    prev = 1
    while True:
        i1 = n - v[n - r]
        i2 = n - v[n - s]
        if i1 < 1 or i2 < 1:
            raise DeadSequence(label, n, min(i1, i2), v[1:n])
        val = v[i1] + v[i2]
        append(val)
        if val != prev:
            if val != prev + 1:
                raise MonotonicityViolation(
                    f"{label}({n - 1}) = {prev} followed by {label}({n}) = {val}"
                )
            prev = val
            if val > a_max:
                break
        counts[val] += 1
        n += 1
    return counts


def gen_v(n_max: int) -> SequenceTable:
    """V(1..n_max) by direct recursion with a full memo table.

    The range guard can never fire for V itself (all values are >= 1, so
    both arguments stay in [1, n-1]) but is kept because the same recursion
    shape dies for other (r, s).
    """
    return _recursion(1, 4, _size(n_max, "n_max", 4), "V")


def gen_f(a_max: int) -> SequenceTable:
    """F(0..a_max) with F(0) = 0, by counting a freshly generated V.

    V is scanned until its value first reaches a_max + 1, and checked to be
    non-decreasing with steps in {0, 1} on the way.  V is never stored: it
    is slow (steps in {0, 1}), so V(p) = a exactly when
    F(1) + ... + F(a-1) < p <= F(1) + ... + F(a), and the compiled loop
    reads V's earlier terms back from the counts it is building.  Memory is
    the counts alone, one byte per a (F(a) <= 4).
    """
    counts = _frequency(1, 4, _size(a_max, "a_max", 1), "V")
    return SequenceTable(0, a_max, counts, "F")


def gen_qrs(r: int, s: int, n_max: int) -> SequenceTable:
    """Q_{r,s}(1..n_max) under the all-ones seed Q_{r,s}(1..s) = 1.

    Raises DeadSequence, carrying the first offending index and the partial
    table, when the recursion references an index outside [1, n-1].
    """
    r, s = operator.index(r), operator.index(s)
    if not s > r >= 1:
        raise ValueError(f"need s > r >= 1, got r={r}, s={s}")
    n_max = _size(n_max, "n_max", s, f"s = {s}")
    return _recursion(r, s, n_max, f"Q[{r},{s}]")


# first_difference works on this many entries at a time
DIFF_CHUNK = 1 << 20


def first_difference(t: SequenceTable) -> SequenceTable:
    """The table D(n) = t(n+1) - t(n) on [lo, hi-1], in the narrowest
    integer dtype holding every difference (uint8 for V's steps in {0, 1}).

    One pass over chunks finds the range of the differences and a second
    fills them, so no int64 copy of the whole table is ever held.
    """
    if len(t) < 2:
        raise ValueError("need at least 2 entries")
    vals = np.asarray(t.values)
    n = len(vals) - 1
    chunks = [(i, min(i + DIFF_CHUNK, n)) for i in range(0, n, DIFF_CHUNK)]
    wide = np.empty(min(DIFF_CHUNK, n), dtype=np.int64)
    least = most = 0
    for i, j in chunks:
        d = np.subtract(vals[i + 1:j + 1], vals[i:j], out=wide[:j - i], dtype=np.int64)
        least, most = min(least, int(d.min())), max(most, int(d.max()))
    # a signed k-bit type holds [-2^(k-1), 2^(k-1) - 1]
    dtype = np.min_scalar_type(min(least, -most - 1) if least < 0 else most)
    out = np.empty(n, dtype=dtype)
    for i, j in chunks:
        # the low k bits of a difference are the difference of the low k
        # bits, so subtracting in the k-bit dtype, each operand cut to it
        # first, is exact for every difference that dtype holds
        np.subtract(vals[i + 1:j + 1], vals[i:j], out=out[i:j], dtype=dtype,
                    casting="unsafe")
    return SequenceTable(t.lo, t.hi - 1, out, f"diff({t.label})")


def write_table(t: SequenceTable, fp: IO[str]) -> None:
    """Line-oriented text format: ``seq <label> <lo> <hi>``, one value per line."""
    fp.write(f"seq {t.label} {t.lo} {t.hi}\n")
    for v in t.values:
        fp.write(f"{v}\n")


def read_table(fp: IO[str]) -> SequenceTable:
    """Inverse of write_table.  Lines starting with '#' are ignored."""
    header = None
    values: list[int] = []
    for line in fp:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "seq":
                raise ValueError(f"bad header line: {line!r}")
            header = (parts[1], int(parts[2]), int(parts[3]))
        else:
            values.append(int(line))
    if header is None:
        raise ValueError("empty table file")
    label, lo, hi = header
    return SequenceTable(lo, hi, values, label)
