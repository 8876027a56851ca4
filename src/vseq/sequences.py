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
from typing import IO, Iterable, Sequence


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
    for F and for V's steps read off F, a numpy array in the narrowest
    integer dtype for the first difference of a table.  An F table is
    counted without a V table, so it costs one byte per index in all.

    The windows (S(n-2), S(n-1), S(n), S(n+1)) read 0 below lo, the F(-2)
    = F(-1) = 0 convention: window4 gives one, window_bytes the bytes of
    every window on a range, windows_at the bytes of the windows at a list
    of indices.
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

    def byte_values(self) -> memoryview:
        """The values as a memoryview of bytes (format 'B'), without a copy
        for a store of contiguous bytes: a bytearray, bytes, a uint8 array;
        any other store is converted.  ValueError unless every value fits
        one byte."""
        try:
            view = memoryview(self.values)
        except TypeError:  # a list, say
            view = None
        if view is not None and view.format == "B" and view.ndim == 1:
            return view if view.c_contiguous else memoryview(view.tobytes())
        try:
            return memoryview(bytes(self.values if view is None else view.tolist()))
        except ValueError:
            raise ValueError(f"{self.label} values must lie in [0, 255]") from None

    def window_bytes(self, lo: int, hi: int) -> bytes:
        """S(lo-2) through S(hi+1), one byte each, in one copy: the window
        at n, window4(n), is the four bytes at offset n - lo.  Like window4,
        indices below the table read as 0 and indices above it are an
        error; ValueError unless every value fits one byte."""
        if hi + 1 > self.hi:
            raise IndexError(f"index {hi + 1} above table end {self.hi}")
        seg = self.byte_values()[max(lo - 2 - self.lo, 0):max(hi + 2 - self.lo, 0)]
        # the bytes missing from the table all lie below it
        return b"".join((bytes(hi - lo + 4 - len(seg)), seg))

    def windows_at(self, at: Iterable[int]) -> bytes:
        """The windows at the indices ``at``, four bytes each, in order:
        window4(n) as bytes for each n, read as slices of the values, and
        padded or refused like window_bytes."""
        vals, lo, hi = self.byte_values(), self.lo, self.hi
        return b"".join(vals[n - 2 - lo:n + 2 - lo] if lo + 2 <= n < hi
                        else self.window_bytes(n, n) for n in at)


class PlannedWindows:
    """F's windows at a plan of indices, as count_windows counts them: F's
    prefix, a gen_f table, and the window at each planned index, four bytes
    each.  It holds no F past the prefix, and is read like an F table
    through windows_at, at the planned indices and at every index the
    prefix holds a window for.  (A plain class: a dataclass would add
    about 0.5 ms to ``import vseq``.)"""

    lo = 0

    def __init__(self, prefix: SequenceTable, windows: dict[int, bytes]):
        self.prefix = prefix
        self.windows = windows

    @property
    def hi(self) -> int:
        """The last index of F that some window here reads."""
        return max(self.prefix.hi, max(self.windows, default=0) + 1)

    def windows_at(self, at: Iterable[int]) -> bytes:
        """The windows at the indices ``at``, four bytes each, in order;
        IndexError for an index neither planned nor inside the prefix."""
        planned, prefix = self.windows, self.prefix
        return b"".join(planned[n] if n in planned else prefix.windows_at((n,))
                        for n in at)


def _narrowest(d: int):
    """The narrowest unsigned numpy dtype holding every id below d."""
    import numpy as np
    return np.min_scalar_type(max(d - 1, 0))


def _dense(space: int, size: int) -> bool:
    """Whether ``size`` codes in [0, space) are compacted through a table
    over the whole space: only while it is not much larger than the codes."""
    return space <= size + (1 << 16)


def _compact(codes, space: int):
    """Dense ids for the numpy array of codes in [0, space): equal codes get
    equal ids, in the narrowest dtype that holds their number, as the
    compiled join's ids are; and the number of distinct codes."""
    import numpy as np
    if _dense(space, codes.size):
        present = np.zeros(space, dtype=bool)
        present[codes] = True
        where = np.flatnonzero(present)
        rank = np.zeros(space, dtype=np.min_scalar_type(len(where)))
        rank[where] = np.arange(len(where))
        return rank[codes], len(where)
    distinct, ids = np.unique(codes, return_inverse=True)
    return ids.astype(np.min_scalar_type(len(distinct))), len(distinct)


def join_ids(ids, k: int, first: int, stride: int, parts: int, count: int,
             steps: int | None = None, pad: int = 0):
    """Dense ids for the tuples (ids[first + stride i + j])_{j < parts},
    i < count, of unsigned ids below k: equal tuples get equal ids, in the
    narrowest width that holds their number (one byte up to 255 ids); and
    their number.  Tuples may overlap (parts > stride), as the rule scan's
    4-windows at stride 1 do.  ids is any flat buffer of unsigned ids 1, 2
    or 4 bytes wide: bytes, a bytearray, an ``array.array``, a memoryview or
    a numpy array.  It is read as if ``pad`` zero ids came before it, as
    discovery reads F(-2) = F(-1) = 0 before F; the compiled join makes no
    padded copy.

    The compiled join (``_oracle.c``) runs when a library loads for
    ``steps`` steps (len(ids) unless given; a caller that joins level after
    level passes one figure for all of them) and its rank table over all
    k**parts tuples is dense.  It numbers the ids in order of first
    appearance and returns them as an ``array.array`` ('B', 'H' or 'I').
    Otherwise numpy packs each tuple into one code, compacted early where a
    code could pass 64 bits, and _compact numbers the codes into a numpy
    array, in another order; callers read only which ids are equal, or
    their first appearances from the compiled join's.
    """
    lib = _compiled(len(ids) if steps is None else steps)
    if lib is not None and _dense(k ** parts, count):
        return lib.join(ids, first, stride, parts, count, k, pad)
    import numpy as np
    ids = np.asarray(memoryview(ids))
    if pad:
        ids = np.concatenate((np.zeros(pad, dtype=ids.dtype), ids))
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


def max_byte(vals, steps: int) -> int:
    """The largest of the bytes vals, compiled where a library loads for
    ``steps`` steps, else in numpy, the reference."""
    lib = _compiled(steps)
    if lib is not None:
        return lib.byte_max(vals)
    import numpy as np
    return int(np.asarray(memoryview(vals)).max())


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
    if status == _oracle.RING_SHORT:
        value, lag, size = info
        raise RuntimeError(f"a ring of {size} counts is too short: counting "
                           f"{label} = {value}, a read position lags {lag} "
                           "values behind")


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


def _frequency(r: int, s: int, a_max: int, label: str,
               counted: memoryview | None = None) -> bytearray:
    """counts[a] = #{n : Q_{r,s}(n) = a} for a in [0, a_max], compiled when
    possible; Q is generated and checked as in _frequency_py.  The compiled
    loop keeps only Q's last s terms and reads the older ones back from the
    counts (see _oracle.c), so the counts are all the memory it takes.
    gen_f counts V = Q_{1,4}; other (r, s) reach the checks V never trips.

    ``counted``, a finished count of this Q for the values below its length
    (at most a_max + 1 of them, as bytes), is resumed: the compiled loop
    starts after the terms it counts, their number the counts' sum, and
    moves its read positions over the finished counts 64 at a time before
    it steps on.  The counts are copied straight into the new table through
    a memoryview of it, so no third F-sized buffer is held while the count
    resumes; the sum is a compiled pass too.  The Python loop counts from
    the start again.
    """
    lib = _compiled(2 * a_max)  # V(n) is about n / 2
    if lib is None:
        return _frequency_py(r, s, a_max, label)
    counts = bytearray(a_max + 1)
    if counted is None:
        counts[1] = done = s  # Q(1..s) = 1
    else:
        # a bytearray slice assignment would copy its source first
        memoryview(counts)[:len(counted)] = counted
        done = lib.byte_sum(counted)
    status, info = lib.count(counts, r, s, done)
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


def extend_f(f: SequenceTable, a_max: int) -> SequenceTable:
    """F(0..a_max), a_max >= f.hi, from gen_f's table f: byte for byte
    gen_f(a_max), but the compiled count resumes where f's stopped.  It
    reads V's last four terms back from f's prefix sums, as it reads every
    older term, so only V past f's end is computed.  Without the compiled
    loops F is counted from the start again.

    It holds f and all of F to a_max at once.  Certification reads F past
    the prefix only at planned windows, which count_windows keeps instead,
    so this serves first_difference, should its F fall short, and
    count_windows without the compiled loops.
    """
    if f.lo != 0:
        raise ValueError("extend_f takes an F table starting at index 0")
    a_max = _size(a_max, "a_max", f.hi, f"the table's end, {f.hi}")
    counts = _frequency(1, 4, a_max, "V", f.byte_values())
    return SequenceTable(0, a_max, counts, "F")


def _ring_size(a_max: int) -> int:
    """The ring count_windows counts to a_max in: a read position lags the
    count by at most a_max / 2 + 1.5 (measured for every a_max to 2^25),
    and the ring is zeroed 64 slots ahead of the count."""
    return 1 << (a_max // 2 + 128).bit_length()


def count_windows(f: SequenceTable, plan: Iterable[int]) -> PlannedWindows:
    """F's windows at the indices of ``plan`` (in any order, repeats
    allowed), from gen_f's table f: byte for byte those of
    gen_f(max(plan) + 1), but holding f and a ring of counts, never F to
    the plan's end.  Windows inside f are read from it.  For the rest, the
    compiled count resumes where f's stopped, like extend_f's, and keeps
    the counts past f in a ring of a power of two of them, just over
    a_max / 2 for a_max = max(plan) + 1, as a read position lags the count
    by about half its value (_ring_size).  Each planned window is copied out
    once its last count is final.  A ring too short for the count is
    refused, never returning a window read from a reused slot, and counted
    again in one twice its size.  Without the compiled loops F is counted
    flat, with extend_f.
    """
    if f.lo != 0:
        raise ValueError("count_windows takes an F table starting at index 0")
    plan = sorted(set(map(operator.index, plan)))
    inside = [n for n in plan if n < f.hi]
    past = plan[len(inside):]
    read = f.windows_at(inside)
    if past:
        a_max = _size(past[-1] + 1, "the plan's end", 1)
        lib = _compiled(2 * a_max)  # V(n) is about n / 2
        if lib is None:
            read += extend_f(f, a_max).windows_at(past)
        else:
            from . import _oracle
            counts = f.byte_values()
            done = lib.byte_sum(counts)
            size = _ring_size(a_max)
            status, info, windows = lib.ring_count(counts, done, a_max, size, past)
            while status == _oracle.RING_SHORT:
                size *= 2
                status, info, windows = lib.ring_count(counts, done, a_max, size, past)
            _raise(status, info, "V", lambda n: _recursion(1, 4, n - 1, "V").values)
            read += windows
    return PlannedWindows(f, {n: read[4 * i:4 * i + 4] for i, n in enumerate(plan)})


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
DIFF_CHUNK = 1 << 16


def first_difference(t: SequenceTable | int) -> SequenceTable:
    """The table D(n) = t(n+1) - t(n) on [lo, hi-1], in a numpy array of the
    narrowest integer dtype holding every difference (uint8 for V's steps
    in {0, 1}).

    One pass over chunks finds the range of the differences and a second
    fills them, so no int64 copy of the whole table is ever held.

    Given an int n >= 1 instead of a table, the first difference of V on
    [1, n], byte for byte ``first_difference(gen_v(n + 1))``, from F alone:
    V is slow, so V(k+1) - V(k) = 1 exactly when k = S(a) = F(1) + ... +
    F(a) for some a >= 1.  F is counted once, to n // 2 + n.bit_length():
    V(n) is about n / 2, and the margin brought S to n for every n
    measured (all n <= 2^20, and samples of each octave up to 2^27, with
    a least slack of 3).  Should S still fall short, F is extended until it
    reaches n, so the result never rests on the margin.  One pass over F
    marks each S(a) <= n, compiled when possible (see _marks), so F and
    the n steps, a bytearray, are all it holds.
    """
    if not isinstance(t, SequenceTable):
        return _v_steps(_size(t, "n", 1))
    if len(t) < 2:
        raise ValueError("need at least 2 entries")
    import numpy as np
    vals = np.asarray(t.values)
    n = len(vals) - 1
    chunks = [(i, min(i + DIFF_CHUNK, n)) for i in range(0, n, DIFF_CHUNK)]
    wide = np.empty(min(DIFF_CHUNK, n), dtype=np.int64)
    least = most = 0
    for i, j in chunks:
        d = np.subtract(vals[i + 1:j + 1], vals[i:j], out=wide[:j - i], dtype=np.int64)
        least, most = min(least, int(d.min())), max(most, int(d.max()))
    del wide, d  # before out, so the two are never held at once
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


def _v_steps(n: int) -> SequenceTable:
    """first_difference(n): V's steps on [1, n], marked at each S(a) <= n."""
    f = gen_f(n // 2 + n.bit_length())
    out = bytearray(n)
    lib = _compiled(n)
    while True:
        counts = f.byte_values()
        reached = _marks(counts, out) if lib is None else lib.marks(counts, out)
        if reached >= n:
            return SequenceTable(1, n, out, "diff(V)")
        # every F(a) >= 1, as V takes every value, so n - reached more
        # values bring S to n; marking again sets the same steps again
        f = extend_f(f, f.hi + n - reached)


def _marks(counts, out) -> int:
    """The reference pass of _oracle.Oracle.marks: out[S(a) - 1] = 1 for
    each a >= 1 with 0 < S(a) <= len(out), over byte buffers, taking the
    prefix sums S of the counts DIFF_CHUNK entries at a time in numpy;
    returns S at the counts' end."""
    import numpy as np
    counts, out = (np.asarray(memoryview(b)) for b in (counts, out))
    n = out.size
    buf = np.empty(min(DIFF_CHUNK, counts.size), dtype=np.intp)
    below = 0  # S(i - 1)
    for i in range(1, counts.size, DIFF_CHUNK):
        chunk = counts[i:i + DIFF_CHUNK]
        at = buf[:chunk.size]
        at[:] = chunk  # cast here, as np.cumsum would cast into a temporary
        np.cumsum(at, out=at)
        at += below - 1  # S(a) - 1, the offset of D(S(a)) in out
        below = int(at[-1]) + 1
        out[at[at.searchsorted(0):at.searchsorted(n)]] = 1
    return below


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
