import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from vseq import (RuleConflict, SequenceTable, derive_rules, format_rules,
                  gen_f, verify_rules)
from vseq import _oracle, rules
from vseq.rules import DERIVATION_START, RuleVerification, WindowRuleTable, _scan

from conftest import on_each_engine, window4


@pytest.fixture(scope="module")
def f50k():
    return gen_f(50_000)


@pytest.fixture(scope="module")
def rules10k(f50k):
    return derive_rules(f50k, 4, 10_000)


def test_window_at_4(rules10k):
    # window (F(2), F(3), F(4), F(5)) = (1,1,1,2) maps to F(8), F(9)
    assert rules10k.even_rule[(1, 1, 1, 2)] == 2
    assert rules10k.odd_rule[(1, 1, 1, 2)] == 2


def test_window_at_5(rules10k):
    assert rules10k.even_rule[(1, 1, 2, 2)] == 1
    assert rules10k.odd_rule[(1, 1, 2, 2)] == 3


def test_unrealized_window(rules10k):
    assert (3, 3, 3, 3) not in rules10k.domain


def test_domain_size_and_first_occurrences(rules10k):
    # 24 realized windows, the last first appearing at a = 232
    assert len(rules10k) == 24
    assert rules10k.domain == set(rules10k.odd_rule)
    assert max(rules10k.first_seen.values()) == 232
    assert rules10k.first_seen[(1, 1, 1, 2)] == 4


def test_images_stay_in_range(rules10k):
    for table in (rules10k.even_rule, rules10k.odd_rule):
        assert set(table.values()) <= {1, 2, 3}
    for w in rules10k.domain:
        assert set(w) <= {1, 2, 3}


def test_reconstruction(f50k, rules10k):
    for a in range(4, 20_001):
        w = (f50k[a - 2], f50k[a - 1], f50k[a], f50k[a + 1])
        assert w in rules10k.domain
        assert rules10k.even_rule[w] == f50k[2 * a]
        assert rules10k.odd_rule[w] == f50k[2 * a + 1]


def test_verify_beyond_derivation(f50k, rules10k):
    report = verify_rules(rules10k, f50k, 24_000)
    assert report.a_checked == 24_000
    assert report.new_windows == {}  # every window occurs by a = 232


def test_verify_on_derivation_range(f50k, rules10k):
    report = verify_rules(rules10k, f50k, 10_000)
    assert report.new_windows == {}


def test_verify_reports_new_windows(f50k):
    # deriving on a tiny range misses windows the longer range realizes
    small = derive_rules(f50k, 4, 6)
    report = verify_rules(small, f50k, 1000)
    assert report.new_windows
    assert all(a > 6 for a in report.new_windows.values())


def test_conflict_detected(f50k):
    # corrupt the image of a repeated window; the rescan must object
    clean = derive_rules(f50k, 4, 1000)
    first_at = {}
    repeat_a = None
    for a in range(4, 1001):
        w = (f50k[a - 2], f50k[a - 1], f50k[a], f50k[a + 1])
        if w in first_at:
            repeat_a = a
            break
        first_at[w] = a
    assert repeat_a is not None
    corrupt = bytearray(f50k.values)
    corrupt[2 * repeat_a] = f50k[2 * repeat_a] % 3 + 1
    bad = SequenceTable(0, f50k.hi, corrupt, "F")
    with pytest.raises(RuleConflict) as excinfo:
        derive_rules(bad, 4, 1000)
    assert excinfo.value.a_second == repeat_a
    with pytest.raises(RuleConflict):
        verify_rules(clean, bad, 1000)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_conflict_detected_across_chunks(f50k, monkeypatch, chunk):
    monkeypatch.setattr(rules, "SCAN_CHUNK", chunk)
    test_conflict_detected(f50k)


def test_derivation_preconditions(f50k):
    with pytest.raises(ValueError):
        derive_rules(f50k, 3, 100)  # rules only hold from a = 4
    with pytest.raises(ValueError):
        derive_rules(f50k, 4, f50k.hi)  # needs F(2a+1)
    with pytest.raises(ValueError):
        verify_rules(derive_rules(f50k, 4, 10), f50k, f50k.hi)


def test_format(rules10k):
    text = format_rules(rules10k)
    lines = text.splitlines()
    assert len(lines) == 2 * len(rules10k)
    assert lines[0] == "g 1112 -> 2"
    assert "h 1122 -> 3" in lines
    g_lines = [l for l in lines if l.startswith("g ")]
    assert g_lines == sorted(g_lines)


def test_determinism(f50k):
    a = derive_rules(f50k, 4, 5000)
    b = derive_rules(f50k, 4, 5000)
    assert a.even_rule == b.even_rule
    assert a.odd_rule == b.odd_rule
    assert a.first_seen == b.first_seen


def _scan_by_sorting(f, a_min, a_max, frozen=None):
    """The reference _scan: sort the uint32 codes of every window to find
    the distinct ones, their least a and each a's window, and check the
    images through int64 arrays."""
    vals = f.byte_values()
    even = vals[2 * a_min:2 * a_max + 1:2]
    odd = vals[2 * a_min + 1:2 * a_max + 2:2]
    win = sliding_window_view(vals[a_min - 2:a_max + 2], 4).astype(np.uint32)
    codes = win[:, 0] | win[:, 1] << 8 | win[:, 2] << 16 | win[:, 3] << 24
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    wins = [window4(f, a_min + int(i)) for i in first]
    by_a = np.argsort(first)
    realized = WindowRuleTable(
        even_rule={wins[u]: int(even[first[u]]) for u in by_a},
        odd_rule={wins[u]: int(odd[first[u]]) for u in by_a},
        first_seen={wins[u]: a_min + int(first[u]) for u in by_a},
    )
    ref = realized if frozen is None else frozen
    known = np.array([w in ref.even_rule for w in wins], dtype=bool)[inverse]
    ref_even = np.array([ref.even_rule.get(w, 0) for w in wins], dtype=np.int64)[inverse]
    ref_odd = np.array([ref.odd_rule.get(w, 0) for w in wins], dtype=np.int64)[inverse]
    bad_even = known & (ref_even != even)
    bad = np.flatnonzero(bad_even | (known & (ref_odd != odd)))
    if bad.size:
        i = int(bad[0])
        w = wins[inverse[i]]
        parity, table, image = (("even", ref.even_rule, even) if bad_even[i]
                                else ("odd", ref.odd_rule, odd))
        raise RuleConflict(w, parity, ref.first_seen[w], table[w], a_min + i,
                           int(image[i]))
    return realized


def _fields(e: RuleConflict) -> tuple:
    return e.window, e.parity, e.a_first, e.v_first, e.a_second, e.v_second


def _outcome(scan, *args):
    """What a scan or verify_rules gives, in a form that compares dict
    order too: the three rule dicts as item lists, the range and new
    windows verified, or the fields of its RuleConflict."""
    try:
        t = scan(*args)
    except RuleConflict as e:
        return ("conflict", *_fields(e))
    if isinstance(t, RuleVerification):
        return ("verified", t.a_checked, list(t.new_windows.items()))
    return ("table", list(t.even_rule.items()), list(t.odd_rule.items()),
            list(t.first_seen.items()))


def _on_both(scan, *args):
    """_outcome(scan, *args), the same on the compiled passes, where a
    library loads, and on the plain-Python passes."""
    got = on_each_engine(lambda: _outcome(scan, *args))
    assert got.count(got[0]) == len(got), got
    return got[0]


def _byte_table(palette, hi, late, follow_rule, rng) -> SequenceTable:
    """An F-like table on [0, hi] over the palette: from n = 8 on its
    images follow a random doubling rule (so a scan finds no conflict) or
    are random.  The last palette value is held back until n = late, so
    that the windows holding it are first seen late in a scan."""
    vals, rule = [], {}
    for n in range(hi + 1):
        choices = palette if n >= late else palette[:-1] or palette
        key = (tuple(vals[n // 2 - 2:n // 2 + 2]), n % 2)
        if n < 8 or not follow_rule:
            vals.append(rng.choice(choices))
        else:
            vals.append(rule.setdefault(key, rng.choice(choices)))
    return SequenceTable(0, hi, bytearray(vals), "F")


@st.composite
def byte_tables(draw):
    """(table, a_min, a_max): a _byte_table over up to five values in 0-255,
    or over all of them, and a scan range that fits it."""
    palette = draw(st.one_of(
        st.lists(st.one_of(st.integers(0, 3), st.integers(0, 255)),
                 min_size=1, max_size=5, unique=True),
        st.just(list(range(256)))))
    # each table is scanned on both engines: the compiled join runs unless
    # the palette's largest byte makes the tuple space too large to tabulate
    hi = draw(st.one_of(st.integers(9, 300), st.integers(3000, 6000)))
    f = _byte_table(palette, hi, draw(st.sampled_from([0, hi // 3])),
                    draw(st.booleans()), random.Random(draw(st.integers(0, 2 ** 32))))
    a_max = draw(st.one_of(st.just((hi - 1) // 2), st.integers(4, (hi - 1) // 2)))
    a_min = draw(st.one_of(st.integers(4, min(a_max, 12)), st.integers(4, a_max)))
    return f, a_min, a_max


def _flip(f, a_min, a_max, rng):
    """f with one image F(2a) or F(2a+1), a in [a_min, a_max], changed:
    often at a_max, whose window is the likeliest to have been seen."""
    n = 2 * rng.choice([a_max, rng.randint(a_min, a_max)]) + rng.randint(0, 1)
    vals = bytearray(f.values)
    vals[n] = (vals[n] + rng.randint(1, 255)) % 256
    return SequenceTable(0, f.hi, vals, "F")


@settings(max_examples=100, deadline=None)
@given(byte_tables(), st.integers(0, 2 ** 32))
# F itself: 24 windows, the last first seen at a = 232
@example((gen_f(2 ** 14 + 1), 4, 2 ** 13), 1)
# windows first seen past the first prefix, for either kind of id
@example((_byte_table([1, 2, 3], 6000, 3000, False, random.Random(2)), 4, 2999), 3)
@example((_byte_table(list(range(256)), 4000, 0, True, random.Random(4)), 5, 1999), 5)
# all 256 byte values, whose 256^4 tuples the compiled join hashes
@example((_byte_table(list(range(256)), 2 ** 14 + 9, 0, True, random.Random(6)),
          4, 2 ** 13), 7)
def test_scan_matches_sorting_scan(case, seed):
    _check_scan(case, seed)


# the scan in chunks of 1, 7 and 64 a's, so that every case crosses chunks
@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=20, deadline=None)
@given(case=byte_tables(), seed=st.integers(0, 2 ** 32))
@example(case=(_byte_table([1, 2, 3], 600, 300, False, random.Random(2)), 4, 299), seed=3)
def test_scan_matches_sorting_scan_across_chunks(chunk, case, seed):
    with mock.patch.object(rules, "SCAN_CHUNK", chunk):
        _check_scan(case, seed)


def _check_scan(case, seed):
    """A scan and a scan of one image flipped, on both engines, against
    the sorting scan; and verify_rules of a table missing some windows."""
    f, a_min, a_max = case
    rng = random.Random(seed)
    assert _on_both(_scan, f, a_min, a_max) == _outcome(_scan_by_sorting, f, a_min, a_max)
    bad = _flip(f, a_min, a_max, rng)
    assert _on_both(_scan, bad, a_min, a_max) == _outcome(_scan_by_sorting, bad, a_min, a_max)
    # a frozen table missing some of its windows: verify_rules reports them.
    # It derives the rules first, so a table that conflicts with itself
    # fails at its own least conflicting a
    try:
        full = _scan_by_sorting(f, a_min, (a_min + a_max) // 2)
    except RuleConflict:
        return
    keep = [w for w in full.even_rule if rng.random() < 0.7]
    frozen = WindowRuleTable({w: full.even_rule[w] for w in keep},
                             {w: full.odd_rule[w] for w in keep},
                             {w: full.first_seen[w] for w in keep})
    for table in (f, bad):
        # verify_rules scans from the start of the doubling rules
        want = _outcome(_scan_by_sorting, table, DERIVATION_START, a_max)
        if want[0] != "conflict":
            want = _outcome(_scan_by_sorting, table, DERIVATION_START, a_max, frozen)
        if want[0] != "conflict":
            want = ("verified", a_max,
                    [(w, a) for w, a in want[3] if w not in frozen.even_rule])
        assert _on_both(verify_rules, frozen, table, a_max) == want


def test_frozen_image_outside_bytes_conflicts(f50k, rules10k):
    # an image no byte can equal is a conflict at the window's first a
    w = (1, 1, 2, 2)
    frozen = WindowRuleTable({**rules10k.even_rule, w: 300}, rules10k.odd_rule,
                             rules10k.first_seen)
    with pytest.raises(RuleConflict) as excinfo:
        verify_rules(frozen, f50k, 1000)
    assert _fields(excinfo.value) == (w, "even", 5, 300, 5, 1)


def test_frozen_image_that_packs_like_a_real_pair_conflicts():
    # even 300 with odd 0 packs into 16 bits as 300 = 44 + 256 * 1, the
    # pair F(2a) = 44, F(2a+1) = 1 of the window at a = 5
    vals = bytearray(range(22))
    vals[10], vals[11] = 44, 1
    f = SequenceTable(0, 21, vals, "F")
    rules = derive_rules(f, 4, 10)
    w = window4(f, 5)
    assert (rules.even_rule[w], rules.odd_rule[w]) == (44, 1)
    frozen = WindowRuleTable({**rules.even_rule, w: 300}, {**rules.odd_rule, w: 0},
                             rules.first_seen)
    with pytest.raises(RuleConflict) as excinfo:
        verify_rules(frozen, f, 10)
    assert _fields(excinfo.value) == (w, "even", 5, 300, 5, 44)


# -- the compiled pair compare against the Python compare -----------------------

A_MAX = 24_999  # f50k's last a: 24,996 pairs


@pytest.fixture
def on_both(monkeypatch):
    """call() forced through _oracle.library onto each engine: the compiled
    pair compare, then the plain-Python compare; each call's table,
    verification or RuleConflict fields, and the number of compiled
    compares the first call ran."""
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: only the Python compare runs here")
    runs = []
    pairs = _oracle.Oracle.pairs

    def spy(self, *args):
        runs.append(args)
        return pairs(self, *args)

    monkeypatch.setattr(_oracle.Oracle, "pairs", spy)

    def run(call):
        runs.clear()
        monkeypatch.setattr(_oracle, "library", lambda: lib)
        compiled = _outcome(call)
        monkeypatch.setattr(_oracle, "library", lambda: None)
        return compiled, _outcome(call), len(runs)

    return run


def _with_pairs(f: SequenceTable, changes: dict[int, int]) -> SequenceTable:
    vals = bytearray(f.values)
    for n, v in changes.items():
        vals[n] = v
    return SequenceTable(0, f.hi, vals, "F")


# verify_rules derives the rules before it compares them with the table:
# where the changed image F(2a) also changes windows that then conflict
# with themselves, it names that conflict, at a later a
MOVED = {(4, 0): 11, (5, 0): 26}


@pytest.mark.parametrize("a", [4, 5, 300, 12_345, A_MAX])
@pytest.mark.parametrize("parity", [0, 1])
def test_compiled_pair_compare_matches_numpy(on_both, f50k, rules10k, a, parity):
    n = 2 * a + parity
    image = f50k[n] % 3 + 1
    assert image != f50k[n]
    bad = _with_pairs(f50k, {n: image})
    derived, python_compare, runs = on_both(lambda: derive_rules(bad, 4, A_MAX))
    assert derived == python_compare and runs == 1
    compiled, python_compare, runs = on_both(lambda: verify_rules(rules10k, bad, A_MAX))
    assert compiled == python_compare and runs == 1
    w = window4(f50k, a)
    table = rules10k.odd_rule if parity else rules10k.even_rule
    if (a, parity) in MOVED:
        assert compiled == derived and compiled[5] == MOVED[a, parity]
    else:
        assert compiled == ("conflict", w, ("even", "odd")[parity],
                            rules10k.first_seen[w], table[w], a, image)


# -- the scan in chunks ----------------------------------------------------------

@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("where", ["first", "last"])
def test_conflict_at_a_chunk_edge(f50k, monkeypatch, where, parity):
    # chunks of 64 a's from a = 4: the sixth starts at a = 324 and the fifth
    # ends at 323, both past a = 232, where every window of F has been seen
    monkeypatch.setattr(rules, "SCAN_CHUNK", 64)
    a = 4 + 5 * 64 - (where == "last")
    n = 2 * a + parity
    bad = SequenceTable(0, f50k.hi, bytearray(f50k.values), "F")
    bad.values[n] = f50k[n] % 3 + 1
    want = _outcome(_scan_by_sorting, bad, 4, 1000)
    assert want[0] == "conflict" and want[5] == a
    assert _on_both(_scan, bad, 4, 1000) == want


def test_a_window_first_seen_in_a_later_chunk(f50k, monkeypatch):
    # F's last new window appears at a = 232, in the fourth chunk of 64
    monkeypatch.setattr(rules, "SCAN_CHUNK", 64)
    got = _on_both(_scan, f50k, 4, 1000)
    assert got == _outcome(_scan_by_sorting, f50k, 4, 1000)
    assert max(a for _, a in got[3]) == 232



def test_scan_builds_its_expected_pairs_once_a_window_order(f50k, monkeypatch):
    # the compiled compare's table of each id's expected pair is built again
    # only for a chunk whose windows, in id order, differ from the last
    # chunk's: chunks of 64 a's to 2^14, whose first few meet new windows
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: the plain-Python compare runs")
    monkeypatch.setattr(rules, "SCAN_CHUNK", 64)
    tables = []
    pairs = _oracle.Oracle.pairs
    monkeypatch.setattr(_oracle.Oracle, "pairs",
                        lambda self, ids, expect, got: tables.append(expect)
                        or pairs(self, ids, expect, got))
    got = _scan(f50k, 4, 2 ** 14)
    orders = []
    for lo in range(4, 2 ** 14 + 1, 64):
        order = []
        for a in range(lo, min(lo + 64, 2 ** 14 + 1)):
            if window4(f50k, a) not in order:
                order.append(window4(f50k, a))
        orders.append(order)
    assert len(tables) == len(orders)
    for j, order in enumerate(orders):
        want = bytes(v for w in order for v in (got.even_rule[w], got.odd_rule[w]))
        assert tables[j] == want.ljust(512, b"\0"), j
        if j:
            assert (tables[j] is tables[j - 1]) == (order == orders[j - 1]), j
    assert 1 < len({id(t) for t in tables}) < len(tables)

# a_max around 2^16, and 2^16 a's from a = 4, the scan's first chunk (a_max
# = 2^16 + 3): the range ends in the first chunk, at its last a, or in the
# second
@pytest.mark.parametrize("a_max", [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 16 + 2,
                                   2 ** 16 + 3, 2 ** 16 + 4])
def test_scan_at_the_first_chunk_end(a_max):
    assert rules.SCAN_CHUNK == 2 ** 16
    f = gen_f(2 * a_max + 1)
    want = _outcome(_scan_by_sorting, f, 4, a_max)
    assert _on_both(derive_rules, f, 4, a_max) == want
    # the last a's odd image changed: a conflict at the range's last a
    bad = SequenceTable(0, f.hi, bytearray(f.values), "F")
    bad.values[-1] = f[f.hi] % 3 + 1
    got = _on_both(derive_rules, bad, 4, a_max)
    assert got == _outcome(_scan_by_sorting, bad, 4, a_max)
    assert got[:3] == ("conflict", window4(f, a_max), "odd") and got[5] == a_max


def test_scan_holds_a_chunk_not_the_range():
    # the compiled scan to 2^21 holds one chunk's ids and pairs, where one
    # id per a took 2 MiB
    if _oracle.library() is None:
        pytest.skip("no C compiler: the plain-Python join runs")
    f = gen_f(2 ** 22 + 2)
    derive_rules(f, 4, 2 ** 21)
    tracemalloc.start()
    try:
        got = derive_rules(f, 4, 2 ** 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 24
    assert peak <= 256 * 2 ** 10, peak / 2 ** 10
