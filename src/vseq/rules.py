"""Empirical derivation of the doubling rules for the frequency sequence.

For every a > 3 the pair (F(2a), F(2a+1)) is a function of the 4-window
(F(a-2), F(a-1), F(a), F(a+1)).  The even map g and odd map h are derived
here by scanning an F table, never transcribed from elsewhere: determinism
of the scan (no window ever demands two images) is itself the empirical
fact the rest of the pipeline leans on.

The maps are partial by design.  Only windows actually realized by F get
images; inventing values for the other tuples over {1,2,3}^4 would poison
automaton certification.

One scan derives the rules.  It sorts nothing: the windows are the
overlapping 4-tuples of F's bytes, numbered densely by the tuple join the
kernel probe uses too (sequences.join_ids), a chunk of a's at a time, and
the images are checked through one table of expected pairs per id.
Verifying a rule table is that scan and a compare of its images.
"""

from __future__ import annotations

from collections import namedtuple

from ._record import Record
from .sequences import (SequenceTable, _first_seen, _library, _mismatch, join_ids,
                        max_byte)

Window = tuple[int, int, int, int]

DERIVATION_START = 4  # the doubling rules hold for a > 3


class RuleConflict(Exception):
    """One window demanded two images: either the oracle is broken or the
    doubling property itself is false on this range."""

    def __init__(self, window: Window, parity: str, a_first: int, v_first: int,
                 a_second: int, v_second: int):
        self.window = window
        self.parity = parity
        self.a_first = a_first
        self.v_first = v_first
        self.a_second = a_second
        self.v_second = v_second
        super().__init__(
            f"{parity} image of window {window} is {v_first} at a={a_first} "
            f"but {v_second} at a={a_second}"
        )


class WindowRuleTable(Record):
    """The images F(2a) and F(2a+1) of each window realized on the scan,
    and its least a: a Record, not a tuple, as its length is the number of
    windows."""

    _fields = ("even_rule", "odd_rule", "first_seen")

    def __init__(self, even_rule: dict[Window, int],  # window -> F(2a)
                 odd_rule: dict[Window, int],  # window -> F(2a+1)
                 first_seen: dict[Window, int]) -> None:  # window -> least a realizing it
        super().__init__(even_rule, odd_rule, first_seen)

    @property
    def domain(self):
        """The windows that have images, as a set-like view."""
        return self.even_rule.keys()

    def __len__(self) -> int:
        return len(self.even_rule)


class RuleVerification(namedtuple("RuleVerification", "a_checked new_windows")):
    """Outcome of re-checking a rule table against a longer oracle:
    new_windows maps each window absent from the table to its least a.

    A conflict raises RuleConflict instead of being recorded, so an instance
    of this report always means zero violations.
    """

    __slots__ = ()


# the rule scan numbers and checks this many a's at a time, so that it holds
# one chunk's ids, never one per a of its range
SCAN_CHUNK = 1 << 16


def _scan(f: SequenceTable, a_min: int, a_max: int) -> WindowRuleTable:
    """The one pass over a in [a_min, a_max]: the windows realized on it,
    with their images and least a, in order of that a.

    It walks the range SCAN_CHUNK a's at a time.  In each chunk every
    window gets a dense id without sorting: join_ids numbers the 4-tuples
    of bytes at stride 1, ids below k = 1 + the largest byte in the range
    (k^4 = 625 tuples for F), and _first_seen finds the least a of each
    id.  A window not seen in an earlier chunk takes its images there: the
    pair of bytes F(2a), F(2a+1) at that a.  The chunk's pairs are then
    checked in one compare against each id's expected pair, and the first
    chunk that differs names the least conflicting a.  Where a library
    loads, the largest byte, the join and the compare run compiled
    (``_oracle.c``; vseq_pairs stops at the first conflict); otherwise
    their plain-Python loops run.  RuleConflict names the least conflicting
    a, even before odd.  Callers keep a_min > 3.
    """
    if f.lo != 0:
        raise ValueError("rule scans expect an F table starting at index 0")
    if f.hi < 2 * a_max + 1:
        raise ValueError(
            f"oracle ends at {f.hi}, need F up to {2 * a_max + 1} for a_max={a_max}"
        )
    even, odd, seen = {}, {}, {}  # window -> F(2a), F(2a+1), least a
    if a_max < a_min:
        return WindowRuleTable(even, odd, seen)
    vals = f.byte_values()
    # the largest byte over the bytes of every window
    k = max_byte(vals[a_min - 2:a_max + 2]) + 1
    lib = _library()
    for lo in range(a_min, a_max + 1, SCAN_CHUNK):
        count = min(SCAN_CHUNK, a_max + 1 - lo)
        pairs = vals[2 * lo:2 * (lo + count)]  # F(2a), F(2a+1) for each a
        ids, distinct = join_ids(vals, k, lo - 2, 1, 4, count)
        first = _first_seen(ids, distinct)  # increasing, as ids are numbered
        read = f.windows_at(lo + i for i in first)
        wins = [tuple(read[i:i + 4]) for i in range(0, len(read), 4)]
        for w, i in zip(wins, first):
            if w not in seen:
                even[w], odd[w], seen[w] = pairs[2 * i], pairs[2 * i + 1], lo + i
        if lib is not None:  # each id's expected pair, padded to 256 ids
            expect = bytes(v for w in wins for v in (even[w], odd[w]))
            i = lib.pairs(ids, expect.ljust(512, b"\0"), pairs)
        else:  # every a's expected pair, joined; -1 // 2 is -1, no conflict
            images = [bytes((even[w], odd[w])) for w in wins]
            i = _mismatch(b"".join(map(images.__getitem__, ids)), pairs) // 2
        if i >= 0:
            w = wins[ids[i]]
            g, h = pairs[2 * i], pairs[2 * i + 1]
            parity, table, image = (("even", even, g) if even[w] != g
                                    else ("odd", odd, h))
            raise RuleConflict(w, parity, seen[w], table[w], lo + i, image)
    return WindowRuleTable(even, odd, seen)


def check_range(a_min: int, a_max: int) -> None:
    """ValueError unless derive_rules can take [a_min, a_max], checked
    before any oracle is built for it."""
    if a_max < a_min:
        raise ValueError("a_max must be >= a_min")
    if a_min <= 3:
        raise ValueError("a_min must be > 3: the doubling rules start at a = 4")


def derive_rules(f: SequenceTable, a_min: int, a_max: int) -> WindowRuleTable:
    """Record window -> (F(2a), F(2a+1)) for every a in [a_min, a_max]."""
    check_range(a_min, a_max)
    return _scan(f, a_min, a_max)


def verify_rules(rules: WindowRuleTable, f: SequenceTable,
                 a_max: int) -> RuleVerification:
    """Re-check every a in [DERIVATION_START, a_max] against a rule table:
    one derive_rules scan, then a compare of its images with the table's.

    A window whose derived images differ from the table's raises
    RuleConflict at its least a, the first such window first.  Windows the
    table lacks are reported, not adopted: the table never changes.
    """
    derived = derive_rules(f, DERIVATION_START, a_max)
    for w, a in derived.first_seen.items():
        for parity, want, got in (("even", rules.even_rule, derived.even_rule),
                                  ("odd", rules.odd_rule, derived.odd_rule)):
            if w in want and want[w] != got[w]:
                raise RuleConflict(w, parity, rules.first_seen[w], want[w], a, got[w])
    new = {w: a for w, a in derived.first_seen.items() if w not in rules.even_rule}
    return RuleVerification(a_checked=a_max, new_windows=new)


def format_rules(rules: WindowRuleTable) -> str:
    """Rule table as ``g <wwww> -> <v>`` / ``h <wwww> -> <v>`` lines,
    windows in lexicographic order."""
    lines = []
    for name, table in (("g", rules.even_rule), ("h", rules.odd_rule)):
        for w in sorted(table):
            lines.append(f"{name} {''.join(map(str, w))} -> {table[w]}")
    return "\n".join(lines) + "\n"
