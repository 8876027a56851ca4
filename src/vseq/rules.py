"""Empirical derivation of the doubling rules for the frequency sequence.

For every a > 3 the pair (F(2a), F(2a+1)) is a function of the 4-window
(F(a-2), F(a-1), F(a), F(a+1)).  The even map g and odd map h are derived
here by scanning an F table, never transcribed from elsewhere: determinism
of the scan (no window ever demands two images) is itself the empirical
fact the rest of the pipeline leans on.

The maps are partial by design.  Only windows actually realized by F get
images; inventing values for the other tuples over {1,2,3}^4 would poison
automaton certification.

One scan serves derivation and verification.  It sorts nothing: the
windows are the overlapping 4-tuples of F's bytes, numbered densely by the
tuple join the kernel probe uses too (sequences.join_ids), and the images
are checked through one small table per id.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .sequences import SequenceTable, join_ids

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


@dataclass(frozen=True)
class WindowRuleTable:
    even_rule: dict[Window, int]  # window -> F(2a)
    odd_rule: dict[Window, int]   # window -> F(2a+1)
    first_seen: dict[Window, int]  # window -> least a realizing it

    @property
    def domain(self) -> frozenset[Window]:
        return frozenset(self.even_rule)

    def __len__(self) -> int:
        return len(self.even_rule)


@dataclass(frozen=True)
class RuleVerification:
    """Outcome of re-checking frozen rules against a longer oracle.

    A conflict raises RuleConflict instead of being recorded, so an instance
    of this report always means zero violations.
    """

    a_checked: int
    new_windows: dict[Window, int]  # windows absent from the frozen table


def _per_id(values: list[int]) -> np.ndarray:
    """One entry per window id, in the narrowest dtype holding them all:
    uint8 for the images of any table derived from bytes."""
    table = np.array(values)
    return table.astype(np.result_type(np.min_scalar_type(table.min()),
                                       np.min_scalar_type(table.max())))


def _scan(f: SequenceTable, a_min: int, a_max: int,
          frozen: WindowRuleTable | None = None) -> WindowRuleTable:
    """The one pass over a in [a_min, a_max]: the windows realized on it,
    with their images and least a, in order of that a.

    Each window gets a dense id without sorting: join_ids numbers the
    4-tuples of bytes at stride 1, ids below k = 1 + the largest byte in
    range (k^4 = 256 tuples for F).  The least a of each id comes from the
    shortest prefix, grown fourfold, that holds every id.
    Every image F(2a), F(2a+1) is then checked against ``frozen`` (windows
    it lacks are skipped) or else against the window's first occurrence,
    through per-id tables of the expected bytes; RuleConflict names the
    least conflicting a, even before odd.  Callers keep a_min > 3.
    """
    if f.lo != 0:
        raise ValueError("rule scans expect an F table starting at index 0")
    if f.hi < 2 * a_max + 1:
        raise ValueError(
            f"oracle ends at {f.hi}, need F up to {2 * a_max + 1} for a_max={a_max}"
        )
    if a_max < a_min:
        return WindowRuleTable(even_rule={}, odd_rule={}, first_seen={})
    vals = f.byte_values()
    even = vals[2 * a_min:2 * a_max + 1:2]
    odd = vals[2 * a_min + 1:2 * a_max + 2:2]
    k = int(vals[a_min - 2:a_max + 2].max()) + 1  # over the bytes of every window
    ids, distinct = join_ids(vals, k, a_min - 2, 1, 4, a_max - a_min + 1, k)
    span = 1 << 10
    while True:
        _, first = np.unique(ids[:span], return_index=True)
        if len(first) == distinct:
            break
        span *= 4
    wins = [f.window4(a_min + int(i)) for i in first]
    by_a = np.argsort(first)
    realized = WindowRuleTable(
        even_rule={wins[u]: int(even[first[u]]) for u in by_a},
        odd_rule={wins[u]: int(odd[first[u]]) for u in by_a},
        first_seen={wins[u]: a_min + int(first[u]) for u in by_a},
    )
    ref = realized if frozen is None else frozen
    known = np.array([w in ref.even_rule for w in wins])[ids]
    bad_even = _per_id([ref.even_rule.get(w, 0) for w in wins])[ids] != even
    bad_even &= known
    bad_odd = _per_id([ref.odd_rule.get(w, 0) for w in wins])[ids] != odd
    bad_odd &= known
    bad = bad_even | bad_odd
    if bad.any():
        i = int(bad.argmax())
        w = wins[ids[i]]
        parity, table, image = (("even", ref.even_rule, even) if bad_even[i]
                                else ("odd", ref.odd_rule, odd))
        raise RuleConflict(w, parity, ref.first_seen[w], table[w], a_min + i,
                           int(image[i]))
    return realized


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
    """Re-check every a in [DERIVATION_START, a_max] against the frozen table.

    Windows not present in the frozen domain are reported, not adopted:
    the table under verification never changes.
    """
    realized = _scan(f, DERIVATION_START, a_max, frozen=rules)
    new = {w: a for w, a in realized.first_seen.items() if w not in rules.even_rule}
    return RuleVerification(a_checked=a_max, new_windows=new)


def format_rules(rules: WindowRuleTable) -> str:
    """Rule table as ``g <wwww> -> <v>`` / ``h <wwww> -> <v>`` lines,
    windows in lexicographic order."""
    lines = []
    for name, table in (("g", rules.even_rule), ("h", rules.odd_rule)):
        for w in sorted(table):
            lines.append(f"{name} {''.join(map(str, w))} -> {table[w]}")
    return "\n".join(lines) + "\n"
