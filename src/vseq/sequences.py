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

from array import array
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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
    backing store (64-bit array for V and Q_{r,s}, bytearray for F).
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

    def get(self, n: int, pad: int = 0) -> int:
        """Value at n, padding indices below lo with ``pad``.

        Indices above hi are an error: padding exists for the F(-1) and
        F(-2) boundary convention, never to fake missing data.
        """
        if n < self.lo:
            return pad
        if n > self.hi:
            raise IndexError(f"index {n} above table end {self.hi}")
        return self.values[n - self.lo]

    def window4(self, n: int) -> tuple[int, int, int, int]:
        """The 4-window (S(n-2), S(n-1), S(n), S(n+1)), zero-padded below lo."""
        return (self.get(n - 2), self.get(n - 1), self.get(n), self.get(n + 1))

    def byte_values(self) -> np.ndarray:
        """The values as a uint8 array, without a copy for a bytearray store;
        ValueError unless every value fits one byte."""
        vals = np.asarray(self.values)
        if vals.dtype != np.uint8:
            if vals.size and (int(vals.min()) < 0 or int(vals.max()) > 255):
                raise ValueError(f"{self.label} values must lie in [0, 255]")
            vals = vals.astype(np.uint8)
        return vals

    def window_codes(self, lo: int, hi: int) -> np.ndarray:
        """pack_windows of window4(n) for every n in [lo, hi]: like window4,
        indices below the table read as 0, indices above it are an error."""
        if hi < lo:
            return np.zeros(0, dtype=np.uint32)
        if hi + 1 > self.hi:
            raise IndexError(f"index {hi + 1} above table end {self.hi}")
        start = lo - 2 - self.lo
        seg = self.byte_values()[max(start, 0):start + hi - lo + 4]
        if start < 0:
            seg = np.concatenate([np.zeros(-start, dtype=np.uint8), seg])
        return pack_windows(sliding_window_view(seg, 4))

    def iter_items(self) -> Iterator[tuple[int, int]]:
        for i, v in enumerate(self.values):
            yield self.lo + i, v


def pack_windows(windows) -> np.ndarray:
    """One uint32 per row (w0, w1, w2, w3) of an (N, 4) array of byte-sized
    values, w0 in the low byte: equal windows get equal codes."""
    w = np.asarray(windows, dtype=np.uint8)
    code = np.zeros(len(w), dtype=np.uint32)
    for k in range(4):
        code |= np.left_shift(w[:, k], 8 * k, dtype=np.uint32)
    return code


def gen_v(n_max: int) -> SequenceTable:
    """V(1..n_max) by direct recursion with a full memo table.

    The range guard can never fire for V itself (all values are >= 1, so
    both arguments stay in [1, n-1]) but is kept because the same recursion
    shape dies for other (r, s); a silent Python negative index would
    otherwise wrap around and corrupt the table.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    v = array("q", [0, 1, 1, 1, 1])  # v[0] unused; 1-indexed
    append = v.append
    for n in range(5, n_max + 1):
        i1 = n - v[n - 1]
        i2 = n - v[n - 4]
        if i1 < 1 or i2 < 1:
            raise DeadSequence("V", n, min(i1, i2), v[1:n])
        append(v[i1] + v[i2])
    return SequenceTable(1, n_max, v[1:], "V")


def gen_f(a_max: int) -> SequenceTable:
    """F(0..a_max) with F(0) = 0, by counting a freshly generated V.

    V is scanned until its value first reaches a_max + 1; monotonicity
    (steps in {0, 1}) makes every count at or below a_max complete at that
    point, and is itself verified during the scan.  The V prefix is not
    retained: only the counts survive, in a bytearray (F(a) <= 4).
    """
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    counts = bytearray(a_max + 1)
    counts[1] = 4  # V(1..4) = 1
    v = array("q", [0, 1, 1, 1, 1])
    append = v.append
    n = 5
    prev = 1
    while True:
        i1 = n - v[n - 1]
        i2 = n - v[n - 4]
        if i1 < 1 or i2 < 1:
            raise DeadSequence("V", n, min(i1, i2), v[1:n])
        val = v[i1] + v[i2]
        append(val)
        if val != prev:
            if val != prev + 1:
                raise MonotonicityViolation(
                    f"V({n - 1}) = {prev} followed by V({n}) = {val}"
                )
            prev = val
            if val > a_max:
                break
        counts[val] += 1
        n += 1
    return SequenceTable(0, a_max, counts, "F")


def gen_qrs(r: int, s: int, n_max: int) -> SequenceTable:
    """Q_{r,s}(1..n_max) under the all-ones seed Q_{r,s}(1..s) = 1.

    Raises DeadSequence, carrying the first offending index and the partial
    table, when the recursion references an index outside [1, n-1].
    """
    if not s > r >= 1:
        raise ValueError(f"need s > r >= 1, got r={r}, s={s}")
    if n_max < s:
        raise ValueError(f"n_max must be >= s = {s}")
    label = f"Q[{r},{s}]"
    q = array("q", [0])  # q[0] unused; 1-indexed
    q.extend([1] * s)
    append = q.append
    for n in range(s + 1, n_max + 1):
        i1 = n - q[n - r]
        i2 = n - q[n - s]
        # values are always >= 1 (sums of two earlier values, all-ones seed),
        # so i1, i2 <= n-1 holds automatically; only the lower bound can fail
        if i1 < 1 or i2 < 1:
            raise DeadSequence(label, n, min(i1, i2), q[1:n])
        append(q[i1] + q[i2])
    return SequenceTable(1, n_max, q[1:], label)


def first_difference(t: SequenceTable) -> SequenceTable:
    """The table D(n) = t(n+1) - t(n) on [lo, hi-1]."""
    if len(t) < 2:
        raise ValueError("need at least 2 entries")
    vals = t.values
    d = array("q", (vals[i + 1] - vals[i] for i in range(len(vals) - 1)))
    return SequenceTable(t.lo, t.hi - 1, d, f"diff({t.label})")


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
