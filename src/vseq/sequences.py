"""Brute-force generators for the V sequence and the sequences derived
from it.

The V sequence is Q_{1,4} of the Hofstadter-Huber family: V(1..4) = 1 and
V(n) = V(n-V(n-1)) + V(n-V(n-4)) for n > 4 (OEIS A063882).  Its frequency
sequence F counts occurrences: F(a) = #{n : V(n) = a} (A132157), stored
from index 0 with F(0) = 0.  V is slow, non-decreasing with steps in
{0, 1}, so F's counts fix it: V(k) = a exactly when S(a - 1) < k <= S(a),
S(a) = F(1) + ... + F(a).  There is one recursion, F's count; V's table
and V's steps are its counts written out.

Everything downstream (rule derivation, automaton synthesis, certification)
treats the tables produced here as ground truth, so the count guards its
own consistency: it re-checks that V is non-decreasing with steps in
{0, 1}, and refuses a count that would overflow.

Seed convention: V(1..4) = 1, the all-ones seed Q_{r,s}(1..s) = 1 of the
family at (r, s) = (1, 4).  Other seed choices give different sequences,
which is why the CLI prints the convention with every table.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Iterable, Sequence
from io import TextIOBase
from itertools import chain, islice, repeat, tee

from ._record import Record


class MonotonicityViolation(Exception):
    """V failed to be non-decreasing with steps in {0, 1} during a scan."""


class SequenceTable(Record):
    """Integer sequence values on the inclusive index interval [lo, hi].

    ``values`` may be any integer sequence; generators pick a compact
    backing store: a 32-bit ``array("I")`` for V, a bytearray for F and for
    V's steps written in place, an ``array`` of the narrowest
    typecode for the first difference of a table.  An F table is counted
    without a V table, so it costs one byte per index in all.

    windows_at is the one accessor of the windows (S(n-2), S(n-1), S(n),
    S(n+1)), which read 0 below lo, the F(-2) = F(-1) = 0 convention.

    Immutable, a Record: equal fields make equal tables.
    """

    _fields = ("lo", "hi", "values", "label")

    def __init__(self, lo: int, hi: int, values: Sequence[int], label: str = "") -> None:
        if hi < lo:
            raise ValueError(f"hi={hi} < lo={lo}")
        if len(values) != hi - lo + 1:
            raise ValueError(f"length {len(values)} != hi-lo+1 = {hi - lo + 1}")
        super().__init__(lo, hi, values, label)

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __getitem__(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise IndexError(f"index {n} outside [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

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

    def windows_at(self, at: Iterable[int]) -> bytes:
        """The windows (S(n-2), S(n-1), S(n), S(n+1)) at the indices
        ``at``, four bytes each, in order, sliced from byte_values().
        Indices below lo read 0, the F(-2) = F(-1) = 0 convention; a window
        reaching past hi is an IndexError, as padding exists for that
        convention, never to fake missing data.  ValueError unless every
        value fits one byte."""
        vals, lo, hi = self.byte_values(), self.lo, self.hi
        out = bytearray()
        for n in at:
            if n >= hi:
                raise IndexError(f"index {n + 1} above table end {hi}")
            start = n - 2 - lo
            out += (vals[start:start + 4] if start >= 0
                    else bytes(min(-start, 4)) + vals[:max(start + 4, 0)])
        return bytes(out)


def _dense(space: int, size: int) -> bool:
    """Whether the compiled join numbers ``size`` tuples of a space of
    ``space`` through a rank table over it, not a hash table: only while
    the space is not much larger than the tuples."""
    return space <= size + (1 << 16)


def join_ids(ids, k: int, first: int, stride: int, parts: int,
             count: int) -> tuple[array, int]:
    """Dense ids for the tuples (ids[first + stride i + j])_{j < parts},
    i < count, of unsigned ids below k: equal tuples get equal ids,
    numbered in order of first appearance, in an ``array`` of the narrowest
    typecode that holds their number ('B' up to 255 ids, then 'H', 'I');
    and their number.  Tuples may overlap (parts > stride), as the rule
    scan's 4-windows do.  ids is any flat buffer of ids 1, 2 or 4 bytes
    wide.  The compiled join runs where a library loads.  Without one, a
    dict numbers the bytes of each tuple, copied a chunk of about 16 KB at
    a time; the ids are written one byte each until their number needs two
    or four."""
    lib = _library()
    if lib is not None:
        return lib.join(ids, first, stride, parts, count, k)
    view = memoryview(ids)
    size = view.itemsize
    view, width, step = view.cast("B"), parts * size, stride * size
    per_chunk = max(1, (1 << 14) // step)
    seen, out = {}, array("B", [0]) * count
    for i in range(0, count, per_chunk):
        j = min(i + per_chunk, count)
        at = (first + stride * i) * size
        buf = view[at:at + step * (j - 1 - i) + width].tobytes()
        got = [seen.setdefault(buf[s:s + width], len(seen))
               for s in range(0, step * (j - i), step)]
        d = len(seen)
        code = "B" if d < 1 << 8 else "H" if d < 1 << 16 else "I"
        if code != out.typecode:
            out = array(code, out)
        out[i:j] = array(code, got)
    return out, len(seen)


def _first_seen(ids: array, distinct: int) -> list[int]:
    """first[u], the least i with ids[i] == u, for each id u < distinct:
    join_ids numbers first appearances in order, so each is found with
    index from the one before."""
    first = [-1]
    for u in range(distinct):
        first.append(ids.index(u, first[-1] + 1))
    return first[1:]


def _mismatch(a, b, start: int = 0) -> int:
    """The least i >= start with a[i] != b[i], or -1, for bytes of one length."""
    if a[start:] == b[start:]:
        return -1
    return next(i for i in range(start, len(a)) if a[i] != b[i])


# V's terms are stored in 32 bits, and the counts' sizes with them, so no
# size may pass this
MAX_SIZE = 2 ** 32 - 1


def _size(value, name: str, least: int) -> int:
    """``value`` as an int in [least, MAX_SIZE]: TypeError for a non-integer,
    ValueError outside the range."""
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    if value > MAX_SIZE:
        raise ValueError(f"{name} = {value} is past the oracle's 32-bit range")
    return value


def _library():
    """The compiled loops of ``_oracle.c``, or None for the Python loops
    when they cannot be built.  They are built on first use, never at
    import."""
    from ._oracle import library
    return library()


# the passes run compiled from this many steps on: under it the Python
# loop takes a few ms, less than loading the compiled loops (let alone
# building them on first use)
COMPILED_FROM = 1 << 14


def max_byte(vals) -> int:
    """The largest of the bytes vals, 0 for none: compiled where a library
    loads, else Python's max."""
    lib = _library()
    return lib.byte_max(vals) if lib is not None else max(memoryview(vals), default=0)


def _raise(status: int, info: list[int]) -> None:
    """Raise what the Python loops raise for a status of _oracle.c, and a
    RuntimeError for the statuses only corrupted counts or a short buffer
    can make."""
    from . import _oracle
    if status == _oracle.DEAD:
        n, argument = info[0], info[1]
        raise RuntimeError(f"V({n}) would read V({argument}), outside "
                           f"[1, {n - 1}]")
    if status == _oracle.NOT_MONOTONE:
        n, prev, val = info
        raise MonotonicityViolation(f"V({n - 1}) = {prev} followed by "
                                    f"V({n}) = {val}")
    if status == _oracle.COUNT_OVERFLOW:
        value, bound, count = info
        raise ValueError(f"V takes the value {value} more than {bound} times"
                         if count > bound else f"V skips the value {value}")
    if status == _oracle.VALUE_OVERFLOW:
        raise OverflowError(f"V({info[0]}) = {info[1]} does not fit 32 bits")
    if status == _oracle.UNSETTLED:
        n, argument = info[0], info[1]
        raise RuntimeError(f"V({n}) read V({argument}) before it was final")
    if status == _oracle.RING_SHORT:
        value, lag, size = info
        raise RuntimeError(f"a ring of {size} counts is too short: counting "
                           f"V = {value}, a read position lags {lag} values "
                           "behind")
    if status == _oracle.OVERWRITE:
        value, end, at = info
        raise RuntimeError(f"V's steps to byte {end} would overwrite the "
                           f"count of V = {value}, at byte {at}, before it is "
                           "read")
    if status == _oracle.TOO_FEW:
        a, terms, n = info
        raise RuntimeError(f"the counts of V = 1..{a} hold {terms} terms, "
                           f"too few for V's steps to {n}")


def _frequency_py(a_max: int) -> bytearray:
    """counts[a] = #{n : V(n) = a} for a in [0, a_max], the reference loop
    of gen_f's compiled count: V by its recursion, stored in full.

    V is scanned until its value first reaches a_max + 1; monotonicity
    (steps in {0, 1}) makes every count at or below a_max complete at that
    point, and is itself verified during the scan.  A count past 255 raises
    (a bytearray holds no more).
    """
    counts = bytearray(a_max + 1)
    counts[1] = 4  # V(1..4) = 1
    v = array("I", [0, 1, 1, 1, 1])  # v[0] unused; 1-indexed
    append = v.append
    n = 5
    prev = v[-1]
    while True:
        val = v[n - v[n - 1]] + v[n - v[n - 4]]
        append(val)
        if val != prev:
            if val != prev + 1:
                raise MonotonicityViolation(
                    f"V({n - 1}) = {prev} followed by V({n}) = {val}")
            prev = val
            if val > a_max:
                break
        counts[val] += 1
        n += 1
    return counts


def _v_end(n: int) -> int:
    """The a_max to which F is counted for V's table or steps to n: at
    least n // 2 + 64, and a multiple of four, the counts the compiled
    steps pass reads at a time.  S(a) - 2a lies in [-37, 2] for a up to
    2^26, falling about 1.5 a doubling, so S(a_max) > n."""
    return 4 * (n // 8 + 17)


def _too_few(terms: int, a_max: int, n: int) -> None:
    """The Python passes' refusal of counts F(1..a_max) that hold
    ``terms`` <= n terms, too few for V's steps to n: the compiled passes'
    TOO_FEW."""
    if terms <= n:
        from . import _oracle
        _raise(_oracle.TOO_FEW, [a_max, terms, n])


def _v_steps(n: int) -> bytearray:
    """out[k - 1] = V(k + 1) - V(k) for k in [1, n]: V's steps are F's
    counts to _v_end(n) in unary, 0^(F(a) - 1) 1 for a = 1, 2, ...  The
    compiled count writes F into the tail of the steps' own buffer of
    n + 128 bytes, about n / 2 bytes ahead of the steps' front, for the
    pass to rewrite them as steps in place, front to back; the buffer is
    then trimmed to n.  Without the library, _frequency_py's counts are
    written in unary.  Counts too few for n + 1 terms, S(a_max) <= n, are
    refused, never returned as short steps."""
    a_max = _v_end(n)
    lib = _library() if n >= COMPILED_FROM else None
    if lib is None:
        out = bytearray().join(bytes(c - 1) + b"\1"
                               for c in _frequency_py(a_max)[1:])
        _too_few(len(out), a_max, n)
    else:
        out = bytearray(n + 128)
        with memoryview(out)[-a_max - 1:] as counts:
            _raise(*lib.count(counts))
        _raise(*lib.unary(out, n, a_max))
    del out[n:]
    return out


def gen_v(n_max: int) -> SequenceTable:
    """V(1..n_max), F's counts written out: V holds each a F(a) times.  F
    is counted by gen_f to _v_end(n_max), as for V's steps, and refused
    alike where its counts hold n_max terms or fewer.  The table takes four
    bytes a term, and the counts half a byte a term beside it while it is
    written.  The compiled pass writes the table; without it, the counts
    are written out in Python."""
    n = _size(n_max, "n_max", 4)
    a_max = _v_end(n)
    counts = gen_f(a_max).values
    lib = _library() if n >= COMPILED_FROM else None
    if lib is None:
        terms = chain.from_iterable(map(repeat, range(a_max + 1), counts))
        v = array("I", islice(terms, n + 1))
        _too_few(len(v), a_max, n)
        del v[n:]
    else:
        v = array("I", [0]) * n
        _raise(*lib.expand(counts, v))
    return SequenceTable(1, n, v, "V")


def gen_f(a_max: int) -> SequenceTable:
    """F(0..a_max) with F(0) = 0, by counting a freshly generated V.

    V is scanned until its value first reaches a_max + 1, and checked to be
    non-decreasing with steps in {0, 1} on the way.  V is never stored: it
    is slow (steps in {0, 1}), so V(p) = a exactly when
    F(1) + ... + F(a-1) < p <= F(1) + ... + F(a), and the compiled count,
    which seeds F(1) = 4 itself, reads V's earlier terms back from the
    counts it is building.  Memory is the counts alone, one byte per a
    (F(a) <= 4).  Without the library, or below ``COMPILED_FROM`` steps,
    _frequency_py counts V.
    """
    a_max = _size(a_max, "a_max", 1)
    # V(n) is about n / 2
    lib = _library() if 2 * a_max >= COMPILED_FROM else None
    if lib is None:
        return SequenceTable(0, a_max, _frequency_py(a_max), "F")
    counts = bytearray(a_max + 1)
    _raise(*lib.count(counts))
    return SequenceTable(0, a_max, counts, "F")


def _ring_size(a_max: int, p: int) -> int:
    """The number of counts in the ring count_windows counts to a_max in,
    resuming gen_f's counts to p, two bits each, so a quarter of it in
    bytes.  A read position lags the count by at most a_max / 2 + 1.5
    (measured for every a_max to 2^25), so the read positions reach at
    most about a_max / 2.  While they stay below p they read the prefix
    in place, and the ring holds only the planned windows still to be
    copied out: 256 counts, four blocks of 64.  Past p they read the
    ring, which then holds just over half the count's values, zeroed 64
    slots ahead of the count."""
    if a_max // 2 + 128 < p:
        return 256
    return 1 << (a_max // 2 + 128).bit_length()


def count_windows(f: SequenceTable, plan: Iterable[int]) -> bytes:
    """F's windows at the indices of ``plan``, four bytes each, in plan
    order (repeats allowed), from gen_f's table f: byte for byte
    gen_f(max(plan) + 1).windows_at(plan), but holding f and a ring of
    counts, never F to the plan's end.  Windows inside f are sliced from
    it.  For the rest, the compiled count resumes where f's stopped, from
    f's counts alone, which fix V's terms up to their sum, and keeps the
    counts past f in a ring of a power of two of them (_ring_size).  Its
    read positions lag the count by about half its value: while they stay
    inside f they read f's counts in place, so a count to below twice f's
    end, such as depth 12's, takes a ring of a few blocks.  A count past
    that hands its read positions over to the ring, which then takes just
    over a_max / 2 counts for a_max = max(plan) + 1.  A ring count is
    F(a) - 1 in two bits, so the ring takes a_max / 8 to a_max / 4 bytes:
    16 MiB for the 2^26 counts of depth 16.  f's counts that the cursors
    read must lie in 1..4, and the count must take no value a fifth time,
    or ValueError.  Each planned window is copied out once its last count is
    final.  A ring too short for the count is refused, never returning a
    window read from a reused slot, and counted again in one twice its
    size.  Without the compiled loops the windows past f are read from
    gen_f(max(plan) + 1), counted flat from the start.
    """
    if f.lo != 0:
        raise ValueError("count_windows takes an F table starting at index 0")
    plan = list(map(operator.index, plan))
    at = sorted(set(plan))
    inside = [n for n in at if n < f.hi]
    past = at[len(inside):]
    read = f.windows_at(inside)
    if past:
        a_max = _size(past[-1] + 1, "the plan's end", 1)
        # V(n) is about n / 2
        lib = _library() if 2 * a_max >= COMPILED_FROM else None
        if lib is None:
            read += gen_f(a_max).windows_at(past)
        else:
            from . import _oracle
            counts, size = f.byte_values(), _ring_size(a_max, f.hi)
            status, info, windows = lib.ring_count(counts, size, past)
            while status == _oracle.RING_SHORT:
                size *= 2
                status, info, windows = lib.ring_count(counts, size, past)
            _raise(status, info)
            read += windows
    window = {n: read[4 * i:4 * i + 4] for i, n in enumerate(at)}
    # appended one by one: a join would hold an 80-byte buffer record per
    # planned window, 20 times the window
    out = bytearray()
    for n in plan:
        out += window[n]
    return bytes(out)


def first_difference(t: SequenceTable | int) -> SequenceTable:
    """The table D(n) = t(n+1) - t(n) on [lo, hi-1], in an ``array`` of
    the narrowest typecode holding every difference, the first of 'B', 'b',
    'H', 'h', 'I', 'i' and 'q' whose pass does not overflow: one pass ('B')
    for V's steps in {0, 1}.

    Given an int n >= 1 instead of a table, the first difference of V on
    [1, n], byte for byte ``first_difference(gen_v(n + 1))``, in a
    bytearray: F is counted into the tail of it and rewritten in place as
    V's steps, its counts in unary (see _v_steps), so the n steps, and 128
    bytes more until they are trimmed, are all it holds.
    """
    if not isinstance(t, SequenceTable):
        n = _size(t, "n", 1)
        return SequenceTable(1, n, _v_steps(n), "diff(V)")
    if len(t) < 2:
        raise ValueError("need at least 2 entries")
    for code in "BbHhIiq":
        ahead, behind = tee(t.values)  # each value read once, for two differences
        next(ahead)
        try:
            diffs = array(code, map(operator.sub, ahead, behind))
            return SequenceTable(t.lo, t.hi - 1, diffs, f"diff({t.label})")
        except OverflowError:
            if code == "q":
                raise


def write_table(t: SequenceTable, fp: TextIOBase) -> None:
    """Line-oriented text format: ``seq <label> <lo> <hi>``, one value per line."""
    fp.write(f"seq {t.label} {t.lo} {t.hi}\n")
    for v in t.values:
        fp.write(f"{v}\n")
