import contextlib
import ctypes
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vseq import (MonotonicityViolation, ProbeReport, SequenceTable, cert_plan,
                  count_windows, first_difference, gen_f, gen_v, kernel_probe,
                  write_table)
from vseq import _oracle, sequences
from vseq.sequences import COMPILED_FROM, join_ids
from vseq.synthesis import _family_reads

V20 = [1, 1, 1, 1, 2, 3, 4, 5, 5, 6, 6, 7, 8, 8, 9, 9, 10, 11, 11, 11]
F20 = [4, 1, 1, 1, 2, 2, 1, 2, 2, 1, 3, 2, 1, 2, 2, 1, 3, 2, 1, 2]


def _v_by_recursion(n: int) -> array:
    """V(1..n) by its recursion alone: the tests' reference for V's table
    and steps, which the package writes out from F's counts."""
    v = array("I", [0, 1, 1, 1, 1])
    for k in range(5, n + 1):
        v.append(v[k - v[k - 1]] + v[k - v[k - 4]])
    return v[1:n + 1]


def _v_steps_by_recursion(n: int) -> bytes:
    """V(k + 1) - V(k) for k in [1, n], one byte each, from _v_by_recursion."""
    return np.diff(np.frombuffer(_v_by_recursion(n + 1), np.uint32)).astype(
        np.uint8).tobytes()


def test_v_first_20():
    assert list(gen_v(20).values) == V20


def test_v_seed():
    assert list(gen_v(4).values) == [1, 1, 1, 1]


def test_v_bounds_and_label():
    t = gen_v(20)
    assert (t.lo, t.hi, t.label) == (1, 20, "V")
    assert t[1] == 1 and t[20] == 11


def test_v_requires_four_terms():
    with pytest.raises(ValueError):
        gen_v(3)


def test_v_prefix_stable():
    assert list(gen_v(60).values) == list(gen_v(300).values)[:60]


def test_v_million_regression():
    t = gen_v(10 ** 6)
    assert t[10 ** 6] == 500012
    assert list(t.values[-5:]) == [500010, 500011, 500011, 500012, 500012]


def test_v_steps_in_01():
    t = gen_v(100_000)
    vals = t.values
    assert all(vals[i + 1] - vals[i] in (0, 1) for i in range(len(vals) - 1))


def test_f_first_20():
    t = gen_f(20)
    assert (t.lo, t.hi) == (0, 20)
    assert t[0] == 0
    assert list(t.values[1:]) == F20


def test_f_tiny():
    t = gen_f(1)
    assert list(t.values) == [0, 4]


def test_f_spot_461_464():
    t = gen_f(464)
    assert [t[a] for a in range(461, 465)] == [2, 1, 3, 3]


def test_f_range():
    t = gen_f(5000)
    assert t[1] == 4
    assert all(t[a] in (1, 2, 3) for a in range(2, 5001))


def test_f_requires_positive_bound():
    with pytest.raises(ValueError):
        gen_f(0)


def test_counting_identity():
    # partial sums of F are the right edges of the value runs in V, V by
    # its recursion; on the compiled count and on the Python loop
    a_max = 2000
    v = _v_by_recursion(2 * a_max + 100)
    for engine in _engines():
        f = _on(engine, gen_f, a_max)
        s = 0
        for a in range(1, a_max + 1):
            s += f[a]
            assert v[s - 1] == a, engine
            assert v[s] == a + 1, engine


@pytest.mark.parametrize("n", [4, 5, 300, 1127, COMPILED_FROM + 5, 10 ** 5 + 3])
def test_v_is_its_recursion(n):
    # F's counts written out, compiled at every size and in Python, against
    # V's recursion
    want = _v_by_recursion(n)
    for engine in _engines():
        t = _on(engine, gen_v, n)
        assert (t.lo, t.hi, t.label, t.values.typecode) == (1, n, "V", "I"), engine
        assert t.values == want, engine


def test_first_difference_of_v():
    d = first_difference(gen_v(20))
    assert list(d.values) == [0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0]
    assert (d.lo, d.hi) == (1, 19)
    assert set(d.values) <= {0, 1}


def test_first_difference_of_f_prefix():
    t = SequenceTable(1, 6, F20[:6], "F")
    assert list(first_difference(t).values) == [-3, 0, 0, 1, 0]


def test_first_difference_constant():
    t = SequenceTable(0, 9, [7] * 10, "c")
    assert list(first_difference(t).values) == [0] * 9


def test_first_difference_dtype_is_narrowest():
    # the typecode of each, the dtype np.min_scalar_type picks for its range
    assert first_difference(gen_v(20)).values.typecode == "B"
    assert first_difference(SequenceTable(1, 6, F20[:6], "F")).values.typecode == "b"
    t = SequenceTable(0, 2, [0, 128, 0], "x")  # +128 and -128 need 16 bits
    assert first_difference(t).values.typecode == "h"
    assert list(first_difference(t).values) == [128, -128]
    wide = SequenceTable(0, 1, [0, 2 ** 31], "x")
    assert first_difference(wide).values.typecode == "I"
    # 32-bit operands far outside the differences' int8
    big = first_difference(SequenceTable(0, 2, array("I", [70000, 70003, 69999]), "x"))
    assert big.values.typecode == "b"
    assert list(big.values) == [3, -4]


def test_first_difference_across_chunks():
    # differences past one byte both ways, after ones that fit 'B' and 'b'
    rng = np.random.default_rng(5)
    vals = rng.integers(-300, 300, 50)
    d = first_difference(SequenceTable(2, 51, vals, "x"))
    assert (d.lo, d.hi) == (2, 50)
    assert d.values.typecode == "h"
    assert list(d.values) == list(np.diff(vals))


def test_first_difference_frees_its_range_buffer_before_the_result():
    # V's steps to 2^18 take 256 KiB as bytes; nothing else of their size
    # is held while they are written: the bound is 2.5 times their size.
    # tracemalloc traces every int read from V, so 2^22 took 7-9 s
    n = 2 ** 18
    v = gen_v(n + 1)
    tracemalloc.start()
    try:
        d = first_difference(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.values.typecode == "B"
    assert peak < 5 * n // 2, peak


def test_first_difference_needs_two():
    with pytest.raises(ValueError):
        first_difference(SequenceTable(5, 5, [1], "x"))
    with pytest.raises(ValueError):
        first_difference(0)  # no step of V on [1, 0]


def _on(engine, call, *args):
    """call(*args) on the compiled loops, the recursions at every size
    ("compiled"), or on the Python loops ("python")."""
    if engine == "compiled":
        with mock.patch.object(sequences, "COMPILED_FROM", 0):
            return call(*args)
    with mock.patch.object(_oracle, "library", lambda: None):
        return call(*args)


def _engines():
    return ("compiled", "python") if _oracle.library() is not None else ("python",)


def _assert_v_steps(n):
    """first_difference(n) is V's steps on [1, n], one byte each, byte for
    byte those of V by its recursion, on the compiled loop (where a library
    loads) and on the Python loop."""
    want = _v_steps_by_recursion(n)
    for engine in _engines():
        d = _on(engine, first_difference, n)
        assert (d.lo, d.hi, d.label, np.asarray(d.values).dtype) == (
            1, n, "diff(V)", np.uint8), engine
        assert bytes(d.values) == want, engine
    return d


def test_first_difference_of_n_is_v_steps():
    for n in range(1, 301):
        _assert_v_steps(n)


def test_first_difference_of_n_at_and_below_a_step():
    f = gen_f(50000)
    s = np.cumsum(f.byte_values(), dtype=np.int64)  # s[a] = S(a)
    a = next(a for a in range(40000, 50000) if f[a] > 1)
    assert _assert_v_steps(int(s[a])).values[-1] == 1
    assert _assert_v_steps(int(s[a]) - 1).values[-1] == 0


@pytest.mark.parametrize("n", [2 ** 20 + 3, 2 ** 24])
def test_first_difference_of_n_at_scale(n):
    _assert_v_steps(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 5000))
def test_first_difference_of_n_is_v_steps_at_any_n(n):
    _assert_v_steps(n)


def test_first_difference_of_n_holds_the_steps_alone():
    # the steps, 4 MB at 2^22, and neither V (16 MB) nor F (2 MB) beside them
    gen_f(COMPILED_FROM)  # loads the compiled loops before tracing
    tracemalloc.start()
    try:
        d = first_difference(2 ** 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.hi == 2 ** 22
    assert peak < 2 ** 22 + 2 ** 16, peak


def test_table_invariants():
    with pytest.raises(ValueError):
        SequenceTable(3, 2, [], "x")
    with pytest.raises(ValueError):
        SequenceTable(0, 2, [1, 2], "x")


def test_table_access_and_padding():
    t = SequenceTable(0, 4, [0, 4, 1, 1, 1], "F")
    assert t[0] == 0 and t[4] == 1
    with pytest.raises(IndexError):
        t[5]
    with pytest.raises(IndexError):
        t[-1]
    # below lo, the padded windows at 0 and 1, and the last window, at hi - 1
    assert t.windows_at([-3]) == bytes(4)
    assert t.windows_at([0, 1]) == bytes([0, 0, 0, 4, 0, 0, 4, 1])
    assert t.windows_at([3, -3]) == bytes([4, 1, 1, 1, 0, 0, 0, 0])
    assert t.windows_at([]) == b""
    with pytest.raises(IndexError):
        t.windows_at([4])  # needs index 5


def test_io_round_trip():
    t = gen_f(30)
    buf = io.StringIO()
    write_table(t, buf)
    text = buf.getvalue()
    assert text.startswith("seq F 0 30\n")
    assert text.splitlines()[1:] == [str(v) for v in t.values]


# -- compiled oracle against the Python loops ---------------------------------------

def _outcome(call):
    """What a call gives: its table's type and bytes (a probe report as it
    is), or its exception's type and message."""
    try:
        values = call()
    except MonotonicityViolation as e:
        return type(e), str(e)
    if isinstance(values, ProbeReport):
        return type(values), values
    return type(values), bytes(values)


ORACLE_CALLS = {
    "gen_f(2^20)": (lambda: gen_f(2 ** 20).values,
                    lambda: sequences._frequency_py(2 ** 20)),
    "gen_v(10^6)": (lambda: gen_v(10 ** 6).values,
                    lambda: _on("python", gen_v, 10 ** 6).values),
    "kernel_probe(F to 2^20)": (lambda: kernel_probe(gen_f(2 ** 20), 2, 8, 256),
                                lambda: _on("python", kernel_probe, gen_f(2 ** 20), 2, 8, 256)),
    "first_difference(2^20 + 3)": (lambda: first_difference(2 ** 20 + 3).values,
                                   lambda: _on("python", first_difference, 2 ** 20 + 3).values),
}


@pytest.mark.parametrize("name", ORACLE_CALLS)
def test_compiled_oracle_matches_python_loops(name):
    if _oracle.library() is None:
        pytest.skip("no C compiler: only the Python loops run here")
    compiled, python = ORACLE_CALLS[name]
    assert _outcome(compiled) == _outcome(python)


def test_frequency_py_refuses_a_jump():
    # V's recursion from a seed whose V(4) is corrupted to 3, which the
    # count of V never sees: V(5..7) = 4, 5, 6, and then
    # V(8) = V(8 - V(7)) + V(8 - V(4)) = V(2) + V(5) = 5 steps down
    def corrupted(typecode, seed):
        return array(typecode, [0, 1, 1, 1, 3])

    with mock.patch.object(sequences, "array", corrupted):
        with pytest.raises(MonotonicityViolation,
                           match=r"^V\(7\) = 6 followed by V\(8\) = 5$"):
            sequences._frequency_py(100)


def test_count_refuses_a_corrupted_count_as_a_jump():
    # a count of 3 planted at V = 100 adds to the compiled count of V = 100,
    # which its read positions then take for F(100), and V later steps by 2
    lib = _compiled()
    counts = bytearray(5001)
    counts[100] = 3
    status, info = lib.count(counts)
    assert status == _oracle.NOT_MONOTONE and info[2] == info[1] + 2, info
    with pytest.raises(MonotonicityViolation,
                       match=rf"^V\({info[0] - 1}\) = {info[1]} followed by "
                             rf"V\({info[0]}\) = {info[2]}$"):
        sequences._raise(status, info)


@pytest.mark.parametrize("status, info, error, message", [
    (_oracle.DEAD, [9, 0, 0], RuntimeError, r"V\(9\) would read V\(0\), outside \[1, 8\]"),
    (_oracle.UNSETTLED, [9, 7, 0], RuntimeError, r"V\(9\) read V\(7\) before it was final"),
    (_oracle.VALUE_OVERFLOW, [9, 2 ** 32, 0], OverflowError,
     r"V\(9\) = 4294967296 does not fit 32 bits"),
    (_oracle.COUNT_OVERFLOW, [7, 255, 256], ValueError, "V takes the value 7 more than 255 times"),
], ids=["dead", "unsettled", "value-overflow", "count-overflow"])
def test_raise_reports_the_statuses_of_corrupted_counts(status, info, error, message):
    # statuses that V's count, seeded by the loop itself, cannot reach; the
    # compiled loops keep their guards against corrupted counts or a prefix
    with pytest.raises(error, match=f"^{message}$"):
        sequences._raise(status, info)


def test_oracle_falls_back_to_python_loops(monkeypatch, capsys):
    expected = [_outcome(compiled) for compiled, _ in ORACLE_CALLS.values()]

    def no_compiler():
        raise FileNotFoundError("no such file: 'cc'")

    monkeypatch.setattr(_oracle, "_load", no_compiler)
    _oracle.library.cache_clear()
    try:
        capsys.readouterr()
        got = [_outcome(compiled) for compiled, _ in ORACLE_CALLS.values()]
    finally:
        _oracle.library.cache_clear()
    assert got == expected
    err = capsys.readouterr().err
    assert err.startswith("vseq: no compiled oracle") and err.count("\n") == 1, err


def test_oracle_source_compiles_without_warnings(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    # an object built as the library is, not -fsyntax-only, which skips the
    # warnings that come from the optimization passes
    result = subprocess.run([*_oracle.COMPILE, "-Wall", "-Wextra", "-Werror", "-c",
                             "-o", str(tmp_path / "oracle.o"), str(_oracle.SOURCE)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


# Run under ASan and UBSan by test_oracle_loops_are_clean_under_sanitizers:
# every compiled loop, each checked against the plain-Python one.
SANITIZED_RUN = """
import ctypes, shutil, sys, tempfile
import numpy as np
from vseq import (SequenceTable, _oracle, count_windows, first_difference, gen_f,
                  gen_v, kernel_probe, sequences)
from vseq.rules import _scan
from vseq.sequences import join_ids

widths = set()  # (ids, joined ids) itemsizes of the compiled joins
hashed = set()  # the same, of the joins past their rank table

class Traced(_oracle.Oracle):
    def join(self, ids, first, stride, parts, count, k):
        out, distinct = super().join(ids, first, stride, parts, count, k)
        widths.add((ids.itemsize, out.itemsize))
        if not sequences._dense(k ** parts, count):
            hashed.add((ids.itemsize, out.itemsize))
        return out, distinct

lib = Traced(ctypes.CDLL(sys.argv[1]))

def both(call):
    _oracle.library = lambda: lib
    compiled = call()
    _oracle.library = lambda: None
    return compiled, call()

def raised(call):
    try:
        call()
    except Exception as e:
        return repr(e)

def same_ids(compiled, python_ids):
    (a, da), (b, db) = compiled, python_ids
    assert (a.typecode, a.tolist(), da) == (b.typecode, b.tolist(), db), (da, db)

# the count
a, b = both(lambda: gen_f(2 ** 16).values)
assert a == b
# the ring count's planned windows against the Python loop's flat count,
# from prefix ends mid-block or not, windows straddling the prefix's end and
# ending the count; and rings too short for it, which refuse at the hand-over
# from the prefix to the ring or mid-count
for end in (1, 2, 5, 2 ** 12 + 1, 2 ** 15 - 3):
    plan = [max(end - 2, 0), end - 1, end, end + 1, end + 70, 2 ** 16 - 1, 2 ** 16]
    a, b = both(lambda: count_windows(gen_f(end), plan))
    assert a == b
    window = {n: a[4 * i:4 * i + 4] for i, n in enumerate(plan)}
    past = sorted({n for n in plan if n >= end})
    prefix = gen_f(end).byte_values()
    for size in (64, 2 ** 10, 2 ** 15, 2 ** 16):
        status, info, got = lib.ring_count(prefix, size, past)
        if status == _oracle.RING_SHORT:
            assert info[1] >= size == info[2], (end, size, info)
        else:
            assert (status, got) == (_oracle.OK, b"".join(map(window.get, past))), (end, size)
# a count that ends before its read positions leave the prefix, in a ring
# of 256 counts that it wraps about 60 times
end = 2 ** 14 + 1000
plan = [end, end + 1, 32700]
prefix = gen_f(end).byte_values()
status, info, got = lib.ring_count(prefix, 256, plan)
assert (status, got) == (_oracle.OK, gen_f(plan[-1] + 1).windows_at(plan)), (status, info)
# the hand-over: the read positions leave a prefix to 2^12 + 1 when the
# count reaches about 2^13.  A ring of 2^12 is refused there, one of 2^13
# later in the count, and one of 2^14 holds it
end = 2 ** 12 + 1
plan = [end, 2 ** 13 + 7, 2 ** 14 + 5]
prefix = gen_f(end).byte_values()
runs = [lib.ring_count(prefix, size, plan) for size in (2 ** 12, 2 ** 13, 2 ** 14)]
assert [status for status, _, _ in runs] == [_oracle.RING_SHORT] * 2 + [_oracle.OK], runs
assert runs[0][1][0] < 2 ** 13 < runs[1][1][0], runs
assert runs[2][2] == gen_f(plan[-1] + 1).windows_at(plan)
assert count_windows(gen_f(end), plan) == runs[2][2]
# the resume from prefixes to p = 1..70 held in exact-length numpy buffers,
# where V's last four terms are read off the top counts across F(1)'s seed
f = gen_f(2 ** 12)
for end in range(1, 71):
    plan = [end, end + 1, 2 * end + 70]
    prefix = np.frombuffer(f.byte_values()[:end + 1], np.uint8).copy()
    status, info, got = lib.ring_count(prefix, 2 ** 10, plan)
    assert (status, got) == (_oracle.OK, f.windows_at(plan)), (end, status, info)
# the ring count's kernel, in the prefix loop and after the hand-over, into
# numpy buffers of the exact length, so that its four-byte loads from the
# prefix and its four-byte stores to the ring stay inside them: from prefix
# ends on and around a block start, in rings that hold the count, in one
# refused in the middle of the count, where the kernel hands back inside
# the ring loop, and in a ring of 256 counts that its stores wrap about 60
# times before the hand-over
def exact_ring_count(prefix, size, plan):
    counts = np.zeros(size // 4, np.uint8)
    windows = np.zeros(4 * len(plan), np.uint8)
    planned = np.array(plan, np.int64)
    info = (ctypes.c_int64 * 3)()
    status = lib._lib.vseq_ring_count(
        prefix.ctypes.data, len(prefix) - 1, counts.ctypes.data, size - 1,
        planned.ctypes.data, len(plan), windows.ctypes.data, info)
    return status, list(info), windows.tobytes()

f = gen_f(2 ** 16)
for end in (2 ** 12 - 1, 2 ** 12, 2 ** 12 + 1, 2 ** 13 + 37):
    plan = [end, end + 1, 2 * end - 1, 2 * end + 64, 5 * end]
    prefix = np.frombuffer(f.byte_values()[:end + 1], np.uint8).copy()
    size = sequences._ring_size(plan[-1] + 1, end)
    assert exact_ring_count(prefix, size, plan) == (
        _oracle.OK, [0, 0, 0], f.windows_at(plan)), end
    status, info, _ = exact_ring_count(prefix, size // 2, plan)
    assert status == _oracle.RING_SHORT and info[0] > 3 * end, (end, info)
end = 2 ** 14 + 1000
plan = [end, end + 1, 32700]
prefix = np.frombuffer(f.byte_values()[:end + 1], np.uint8).copy()
assert exact_ring_count(prefix, 256, plan) == (_oracle.OK, [0, 0, 0],
                                               f.windows_at(plan))
# the resume's block scan from every prefix end p = 1..200, every alignment
# of p and of V's last term against the blocks of 64 values, down to value 1
# for p < 64: the block it stops on starts the check, at the least of its
# first value and p - 2 (or 1), so a count of 0 or 5 there is refused and
# one just below it, summed but never read, changes no window
for end in range(1, 201):
    clean = np.frombuffer(f.byte_values()[:end + 1], np.uint8).copy()
    v = ((end - 1) & -64) + 1
    while v > 1 and int(clean[v:].sum()) < end:
        v -= 64
    first = min(v, max(end - 2, 1))
    for plan in ([end], [end + 1, 2 * end + 7]):
        size = sequences._ring_size(plan[-1] + 1, end)
        want = (_oracle.OK, [0, 0, 0], f.windows_at(plan))
        assert exact_ring_count(clean, size, plan) == want, end
        for planted in (0, 5):
            prefix = clean.copy()
            prefix[first] = planted
            assert exact_ring_count(prefix, size, plan)[:2] == (
                _oracle.COUNT_OVERFLOW, [first, 4, planted]), (end, plan)
            prefix = clean.copy()
            prefix[first - 1] = planted
            assert exact_ring_count(prefix, size, plan) == want, (end, plan)
# counts of 0 at the top, or everywhere: the top read stops at V = 1, inside
# the buffer, and the count refuses the first 0 it would read
for end in (1, 2, 70):
    prefix = np.zeros(end + 1, np.uint8)
    assert lib.ring_count(prefix, 2 ** 10, [end])[:2] == (_oracle.COUNT_OVERFLOW, [1, 4, 0])
prefix = np.frombuffer(f.byte_values()[:71], np.uint8).copy()
prefix[-3:] = 0
assert lib.ring_count(prefix, 2 ** 10, [70])[:2] == (_oracle.COUNT_OVERFLOW, [68, 4, 0])
# V's terms written out from its counts, against the Python loop's, and
# in exact-length numpy buffers at every phase of the last value's count
# against n, with counts that run out a term before n and on n
a, b = both(lambda: gen_v(10 ** 5).values)
assert a == b
v = gen_v(2 ** 13 + 20).values
f = gen_f(2 ** 12 + 128)
for n in (*range(4, 40), *range(2 ** 13, 2 ** 13 + 20)):
    terms = np.zeros(n, np.uint32)
    assert lib.expand(f.values, terms) == (_oracle.OK, [0, 0, 0]), n
    assert terms.tobytes() == v[:n].tobytes(), n
    a = v[n - 1]
    counts = np.frombuffer(f.byte_values()[:a + 1], np.uint8).copy()
    status, info = lib.expand(counts, np.zeros(n, np.uint32))
    assert status == (_oracle.OK if v[n] == a else _oracle.TOO_FEW), (n, info)
    counts = np.frombuffer(f.byte_values()[:a], np.uint8).copy()
    assert lib.expand(counts, np.zeros(n, np.uint32))[0] == _oracle.TOO_FEW, n

# V's steps rewritten in place from its counts, against the Python loop's
# counts written in unary
for n in (2 ** 15 + 3, 2 ** 16):
    a, b = both(lambda: bytes(first_difference(n).values))
    assert a == b

# V's kernel, six terms a block: counts from before its entry (V = 129)
# past its first blocks, and in every phase of its last block against the
# end, into numpy buffers of the exact length (a bytearray keeps a byte
# past its end), so that the blocks' eight-byte stores, the cursors'
# four-byte loads and the scalar loop that finishes each run stay inside
# them
want = sequences._frequency_py(2 ** 13 + 12)
for a_max in (*range(125, 150), *range(2 ** 13, 2 ** 13 + 12)):
    counts = np.zeros(a_max + 1, np.uint8)
    assert lib.count(counts) == (_oracle.OK, [0, 0, 0]), a_max
    assert counts.tobytes() == want[:a_max + 1], a_max
# the count into the tail of the steps' buffer and the pass that rewrites
# it as V's steps, in buffers of the exact length, at every phase of the
# pass's last block of four counts against n; and the pass's refusals
# there: a store that would reach an unread count, and too few counts
want = bytes(first_difference(gen_v(2 ** 14 + 13)).values)
for n in (*range(250, 280), *range(2 ** 14, 2 ** 14 + 12)):
    a_max = 4 * (n // 8 + 17)
    for size in (n + 128, a_max + 21):
        out = np.zeros(size, np.uint8)
        assert lib.count(out[-a_max - 1:]) == (_oracle.OK, [0, 0, 0]), n
        status, info = lib.unary(out, n, a_max)
        if size == n + 128:
            assert (status, out[:n].tobytes()) == (_oracle.OK, want[:n]), n
        else:
            assert status == _oracle.OVERWRITE and info[1] > info[2] == 20 + info[0], info
    few = n // 4
    out = np.zeros(n + 128, np.uint8)
    assert lib.count(out[-few - 1:]) == (_oracle.OK, [0, 0, 0]), n
    assert lib.unary(out, n, few)[0] == _oracle.TOO_FEW, n
# a count planted at V = 100 that a read position reaches as 5 while the
# kernel runs: the kernel hands back mid-count, and the scalar loop goes
# on to V's step of 2, as in a copy of the library whose kernel tables
# were never built, where the scalar loop runs alone
with tempfile.TemporaryDirectory() as tmp:
    scalar = ctypes.CDLL(shutil.copy(sys.argv[1], tmp))
    runs = []
    for engine in (lib._lib, scalar):
        counts = np.zeros(5001, np.uint8)
        counts[100] = 3
        info = (ctypes.c_int64 * 3)()
        at = counts.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8))
        status = engine.vseq_count(at, ctypes.c_int64(5000), info)
        runs.append((status, list(info), counts.tobytes()))
assert runs[0] == runs[1] and runs[0][0] == _oracle.NOT_MONOTONE, runs[0][:2]

# the 4-windows of the rule scan (the q = 1, parts = 4 loop) over 1-, 2-
# and 4-byte ids, the last one ending at the last id
rng = np.random.default_rng(7)

# the byte maximum, reading to the last byte of lengths on both sides of
# its 64-byte blocks, the maximum in a block and past them
for n in (1, 63, 64, 65, 2 ** 12 + 37):
    vals = rng.integers(0, 200, n, dtype=np.uint8)
    for at in (0, n // 2, n - 1):
        top = vals.copy()
        top[at] = 255
        assert lib.byte_max(top) == 255, (n, at)
for dtype in (np.uint8, np.uint16, np.uint32):
    for top in (4, 16, 256):
        vals = rng.integers(0, top, 2 ** 15, dtype=dtype)
        same_ids(*both(lambda: join_ids(vals, top, 5, 1, 4, vals.size - 8)))

# the rule scan's pair compare, the last pair ending at F's last byte, with
# and without a conflict there
f16 = gen_f(2 ** 16 + 2)
exact = SequenceTable(0, 2 ** 16 + 1, np.array(f16.byte_values()[:-1]), "F")
a, b = both(lambda: _scan(exact, 4, 2 ** 15))
assert a == b
last = np.array(exact.values)
last[-1] = last[-1] % 3 + 1
a, b = both(lambda: raised(lambda: _scan(SequenceTable(0, exact.hi, last, "F"), 4,
                                         2 ** 15)))
assert a == b != None, (a, b)
# a table of six values whose images follow a random rule: 1,292 windows,
# two-byte ids, clean and with one image changed
pick = np.random.default_rng(7)
rule, wide = {}, bytearray(pick.integers(0, 6, 8, dtype=np.uint8).tobytes())
for n in range(8, 2 ** 14 + 2):
    key = (bytes(wide[n // 2 - 2:n // 2 + 2]), n % 2)
    if key not in rule:
        rule[key] = int(pick.integers(0, 6))
    wide.append(rule[key])
table = SequenceTable(0, len(wide) - 1, wide, "F")
a, b = both(lambda: _scan(table, 4, 2 ** 13))
assert a == b and len(a) > 255, len(a)
# the odd image of the last a whose window was seen before
at = max(n for n in range(5, 2 ** 13 + 1)
         if a.first_seen[tuple(table.windows_at((n,)))] < n)
wide[2 * at + 1] ^= 1
a, b = both(lambda: raised(lambda: _scan(table, 4, 2 ** 13)))
assert a == b != None and f"at a={at}" in a, (a, b)

# probe joins at q = 2 and 3 over 1-, 2- and 4-byte ids into 1-, 2- and
# 4-byte ids, the last tuple ending at the last id, and one join that
# would read one id past them
for dtype in (np.uint8, np.uint16, np.uint32):
    for q, ks in ((2, (3, 60, 256)), (3, (3, 40, 45))):
        for k in ks:
            ids = rng.integers(0, k, 3 * 2 ** 16 + 1, dtype=dtype)
            first, count = (ids.size - q) % q, (ids.size - q) // q + 1
            same_ids(*both(lambda: join_ids(ids, k, first, q, q, count)))
            err = raised(lambda: lib.join(ids, first, q, q, count + 1, k))
            assert err and err.startswith("ValueError"), err
# the probe's level E joined straight from the bytes, q^E = 8 and 16 of
# them a tuple (F's five values, V's two steps), the last tuple ending at
# the last byte
for parts, k in ((8, 5), (16, 2)):
    vals = rng.integers(0, k, 3 + parts * 2 ** 12, dtype=np.uint8)
    vals[-parts:] = k - 1
    same_ids(*both(lambda: join_ids(vals, k, 3, parts, parts, 2 ** 12)))
# more than 65,535 ids: the join overflows one and two bytes, then fits four
for dtype in (np.uint8, np.uint16, np.uint32):
    ids = rng.integers(0, 41, 3 * 2 ** 18, dtype=dtype)
    same_ids(*both(lambda: join_ids(ids, 41, 0, 3, 3, 2 ** 18)))
# sparse joins, hashed: 3-tuples of ids below 332 and 1,065 into 1-, 2-
# and 4-byte ids, from the first id and from the second, and a tuple of
# 100 bytes at stride 128; the hash table fills and doubles on the way
for dtype, ks in ((np.uint8, (256,)), (np.uint16, (332, 1065)),
                  (np.uint32, (332, 1065))):
    for k in ks:
        # drawn from 200, 1,065 and 2^17 tuples: about 200, 1,065 and
        # 69,000 distinct ones, past one and two bytes
        for distinct in (200, 1065, 2 ** 17):
            pool = rng.integers(0, k, (distinct, 3), dtype=dtype)
            ids = pool[rng.integers(0, distinct, 3 * 2 ** 15)].ravel()
            same_ids(*both(lambda: join_ids(ids, k, 0, 3, 3, ids.size // 3)))
            same_ids(*both(lambda: join_ids(ids, k, 1, 3, 3, ids.size // 3 - 1)))
vals = rng.integers(0, 5, 128 * 2 ** 10, dtype=np.uint8)
same_ids(*both(lambda: join_ids(vals, 5, 0, 128, 100, 2 ** 10)))
same_ids(*both(lambda: join_ids(vals, 5, 28, 128, 100, 2 ** 10)))
f = gen_f(2 ** 15 + 1)
for q in (2, 3):
    a, b = both(lambda: kernel_probe(f, q, 8, 64))
    assert a == b
assert widths == {(i, o) for i in (1, 2, 4) for o in (1, 2, 4)}, widths
assert hashed == widths, hashed
print("ok")
"""


def test_oracle_loops_are_clean_under_sanitizers(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    asan = subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                          text=True, timeout=60).stdout.strip()
    if not os.path.isabs(asan) or not os.path.exists(asan):
        pytest.skip("no libasan")
    lib = tmp_path / "oracle_sanitized.so"
    built = subprocess.run([cc, "-O1", "-g", "-fsanitize=address,undefined",
                            "-fno-sanitize-recover=all", "-shared", "-fPIC",
                            "-o", str(lib), str(_oracle.SOURCE)],
                           capture_output=True, text=True, timeout=120)
    if built.returncode != 0:
        pytest.skip(f"cc cannot build with sanitizers: {built.stderr[-200:]}")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sequences.__file__)))
    env = dict(os.environ, PYTHONPATH=src, LD_PRELOAD=asan,
               ASAN_OPTIONS="detect_leaks=0")
    done = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(lib)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0 and done.stdout.split() == ["ok"], done.stderr[-3000:]


# -- V's kernel: six terms a table lookup ----------------------------------------

def _compiled() -> _oracle.Oracle:
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: only the Python loops run here")
    return lib


def test_count_kernel_equals_the_python_loop_at_its_entry_and_exit():
    # V's count runs its scalar loop until V reaches 129, then the kernel
    # while a block writes at or below a_max; from a_max = 2, where only
    # the scalar loop runs, past the kernel's first blocks; and gen_f from
    # 8192, its first compiled size, through every phase of the kernel's
    # last block against a_max
    lib = _compiled()
    want = sequences._frequency_py(8192 + 120)
    for a_max in range(2, 400):
        counts = bytearray(a_max + 1)
        assert lib.count(counts) == (_oracle.OK, [0, 0, 0]), a_max
        assert counts == want[:a_max + 1], a_max
    for a_max in range(8192, 8192 + 121):
        assert gen_f(a_max).values == want[:a_max + 1], a_max


@pytest.mark.parametrize("call, digest", [
    (lambda: gen_f(2 ** 24),
     "e425707a5fa3dd1e6bb941b964275637ce53ac1a56b7caf6e8bd7ec169ac8ec5"),
    (lambda: first_difference(2 ** 24),
     "816766c3f599c90a9155951d3c37726f9b51cfd3e0b4259ef17488ea5014e7e0"),
    (lambda: gen_v(2 ** 24 + 2),
     "83d3f39bfb554368a8a01793e95b2ce7bed69cbbdd1ef068a7860ec9614da18e"),
], ids=["gen_f", "first_difference", "gen_v"])
def test_v_to_2_to_the_24_is_pinned(call, digest):
    # the sha256 of the scalar loops' bytes, before the kernel, and of V's
    # own recursion, before V was written out from F's counts
    _compiled()
    assert hashlib.sha256(bytes(call().values)).hexdigest() == digest


def _raw_count(lib: ctypes.CDLL, counts: bytearray) -> tuple:
    """vseq_count of V into counts through lib: status, info, counts."""
    info = (ctypes.c_int64 * 3)()
    status = lib.vseq_count((ctypes.c_uint8 * len(counts)).from_buffer(counts),
                            ctypes.c_int64(len(counts) - 1), info)
    return status, list(info), bytes(counts)


@pytest.mark.parametrize("value, planted", [(70, 1), (70, 3), (100, 2), (120, 250),
                                            (128, 3)])
def test_count_kernel_hands_back_to_the_scalar_loop(tmp_path, value, planted):
    # a count planted at a value the scalar loop counts before the kernel
    # starts adds to V's count there; where that count passes 4, the kernel
    # hands back the block that would add to it or read it, and V later
    # takes a step of 2.  The status, info and counts equal those of a copy
    # of the library whose kernel tables were never built, in which the
    # kernel hands back at once and the scalar loop runs alone
    lib = _compiled()
    copy = tmp_path / "scalar.so"
    shutil.copyfile(lib._lib._name, copy)
    scalar = ctypes.CDLL(str(copy))
    runs = []
    for engine in (lib._lib, scalar):
        counts = bytearray(5001)
        counts[value] = planted
        runs.append(_raw_count(engine, counts))
    assert runs[0] == runs[1]
    status, info, _ = runs[0]
    if planted == 1:
        assert status == _oracle.OK
    else:  # a term past the kernel's entry, at about V = 128
        assert status == _oracle.NOT_MONOTONE and info[0] > 256, info


# -- V's steps rewritten in place from its counts --------------------------------

def _raw_unary(lib: ctypes.CDLL, counts: bytes, at: int, n: int) -> tuple:
    """vseq_unary through lib over a buffer of at zeros and then counts,
    F(0..len(counts) - 1), between two guards of 64 bytes: status, info,
    the buffer, and whether the guards are intact."""
    i64 = ctypes.c_int64
    size = at + len(counts)
    mem = bytearray(b"\xaa" * 64 + bytes(at) + counts + b"\xaa" * 64)
    info = (i64 * 3)()
    status = lib.vseq_unary((ctypes.c_uint8 * size).from_buffer(mem, 64), i64(size),
                            i64(len(counts) - 1), i64(n), info)
    return status, list(info), bytes(mem[64:-64]), mem[:64] + mem[-64:] == b"\xaa" * 128


# F(0..568), the counts first_difference(1000) reads, and V's steps to 1200
F568 = bytes(sequences._frequency_py(568))
V_STEPS = _v_steps_by_recursion(1200)


def test_unary_pass_writes_v_steps_while_its_counts_cover_n():
    # S(568) = 1,126: the counts cover n = 1,125 steps and their next term,
    # and not n = 1,126, whose step V(1127) - V(1126) they cannot tell
    lib = _compiled()._lib
    total = sum(F568)
    status, info, out, guards = _raw_unary(lib, F568, total + 127 - 568, total - 1)
    assert (status, out[:total - 1], guards) == (_oracle.OK, V_STEPS[:total - 1], True)
    status, info, _, guards = _raw_unary(lib, F568, total + 128 - 568, total)
    assert (status, info, guards) == (_oracle.TOO_FEW, [568, total, total], True)
    # counts to 570 read in whole blocks of four, through F(568)
    status, info, _, _ = _raw_unary(lib, F568 + b"\1\1", total + 130 - 570, total)
    assert (status, info) == (_oracle.TOO_FEW, [568, total, total])
    with pytest.raises(RuntimeError, match=rf"V = 1\.\.568 hold {total} terms, too few "
                       rf"for V's steps to {total}"):
        sequences._raise(status, info)


def test_first_difference_refuses_counts_too_few_without_the_library():
    # the Python loop's counts, cut to F(1..3) = 4, 1, 1: 6 terms, which
    # tell V's steps to 5 and not to 6
    counts = sequences._frequency_py

    def short(a_max):
        return counts(a_max)[:4]

    with mock.patch.object(sequences, "_frequency_py", short):
        assert bytes(_on("python", first_difference, 5).values) == V_STEPS[:5]
        with pytest.raises(RuntimeError, match=r"V = 1\.\.68 hold 6 terms, too few "
                           r"for V's steps to 6"):
            _on("python", first_difference, 6)


def test_gen_v_refuses_counts_too_few_without_the_library(monkeypatch):
    # counts cut to F(1..3) = 4, 1, 1: 6 terms, which the Python loop writes
    # out as V(1..5) and not as V(1..6), as the compiled pass and the steps
    # refuse them
    monkeypatch.setattr(sequences, "gen_f",
                        lambda a_max: SequenceTable(0, 3, bytearray([0, 4, 1, 1]), "F"))
    assert list(_on("python", gen_v, 5).values) == [1, 1, 1, 1, 2]
    with pytest.raises(RuntimeError, match=r"V = 1\.\.68 hold 6 terms, too few "
                       r"for V's steps to 6"):
        _on("python", gen_v, 6)


def test_expand_pass_writes_v_while_its_counts_cover_n():
    # S(568) = 1,126: the counts write V(1..1,125), and refuse V(1..1,126),
    # whose next term they cannot tell, as the steps pass does; nothing is
    # written outside the terms
    lib = _compiled()
    total = sum(F568)
    want = np.frombuffer(_v_by_recursion(total - 1), np.uint32)
    mem = np.full(total + 32, 0xAAAAAAAA, np.uint32)
    assert lib.expand(F568, mem[16:total + 15]) == (_oracle.OK, [0, 0, 0])
    assert (mem[16:total + 15] == want).all()
    assert (mem[:16] == 0xAAAAAAAA).all() and (mem[total + 15:] == 0xAAAAAAAA).all()
    mem[:] = 0xAAAAAAAA
    status, info = lib.expand(F568, mem[16:total + 16])
    assert (status, info) == (_oracle.TOO_FEW, [568, total, total])
    assert (mem[:16] == 0xAAAAAAAA).all() and (mem[total + 16:] == 0xAAAAAAAA).all()
    with pytest.raises(RuntimeError, match=rf"V = 1\.\.568 hold {total} terms, too few "
                       rf"for V's steps to {total}"):
        sequences._raise(status, info)
    with pytest.raises(ValueError, match="expand's terms"):
        lib.expand(F568, array("H", [0]) * 10)


@pytest.mark.parametrize("planted", [0, 5])
def test_unary_pass_refuses_a_count_outside_1_to_4(planted):
    # F(301) leads the block of F(301..304): the blocks before it are
    # written, and the counts past it left as they were
    lib = _compiled()._lib
    counts = bytearray(F568)
    counts[301] = planted
    at = 1000 + 128 - 569
    status, info, out, guards = _raw_unary(lib, counts, at, 1000)
    assert (status, info, guards) == (_oracle.COUNT_OVERFLOW, [301, 4, planted], True)
    written = sum(F568[1:301])
    assert out[:written] == V_STEPS[:written]
    assert out[at + 301:] == counts[301:]
    with pytest.raises(ValueError, match="V skips the value 301" if planted == 0
                       else "V takes the value 301 more than 4 times"):
        sequences._raise(status, info)


@pytest.mark.parametrize("at, refused", [(4, [5, 16, 9]), (20, [17, 38, 37])],
                         ids=["first-store", "mid-pass"])
def test_unary_pass_refuses_to_overwrite_an_unread_count(at, refused):
    # the counts 4 and 20 bytes into the buffer: the first store would reach
    # F(5), or the store of F(13..16), from S(12) = 22 on, would reach F(17)
    lib = _compiled()._lib
    status, info, out, guards = _raw_unary(lib, F568, at, 1000)
    assert (status, info, guards) == (_oracle.OVERWRITE, refused, True)
    value, end, place = info
    assert out[:end - 16] == V_STEPS[:end - 16] and out[place:] == F568[value:]
    with pytest.raises(RuntimeError, match=rf"V's steps to byte {end} would overwrite "
                       rf"the count of V = {value}, at byte {place}, before it is read"):
        sequences._raise(status, info)


# -- the ring count --------------------------------------------------------------

@pytest.fixture(scope="module")
def f_ring() -> SequenceTable:
    """F past every window the ring-count tests plan, to 2^20 + 1."""
    return gen_f(2 ** 20 + 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_count_windows_equal_a_flat_count(f_ring, data):
    # any prefix end, the plan's end past it, and indices inside the
    # prefix, straddling its end, in adjacent runs and repeated
    end = data.draw(st.integers(1, 2 ** 19), label="end")
    top = data.draw(st.integers(end, 2 ** 20), label="top")
    picks = data.draw(st.lists(st.integers(0, top), max_size=20), label="picks")
    runs = data.draw(st.lists(st.sampled_from([0, end - 2, end - 1, end, end + 1])
                              | st.integers(0, top), max_size=4), label="runs")
    plan = picks + [top] + [min(max(a + i, 0), top) for a in runs for i in range(4)]
    plan += picks[:3]
    assert count_windows(gen_f(end), plan) == f_ring.windows_at(plan)


def test_count_windows_at_the_depth_12_plan(f_main):
    # the benchmark's certificate: two windows past the 2^22 + 2 prefix
    plan = [0, 1, 2, 4195000, 7593983, 7593984, 7593985]
    assert count_windows(f_main, plan) == gen_f(7593986).windows_at(plan)


def test_count_windows_read_nothing_else(f_ring):
    # the planned windows, in plan order, and nothing more
    plan = [3000, 5, 999, 5]
    assert count_windows(gen_f(1000), plan) == f_ring.windows_at(plan)
    assert count_windows(gen_f(1000), []) == b""
    with pytest.raises(ValueError, match="starting at index 0"):
        count_windows(SequenceTable(1, 100, gen_f(100).values[1:], "F"), [200])


@pytest.mark.parametrize("end, size, at", [(2 ** 16, 2 ** 12, (2 ** 17 - 64, 2 ** 17)),
                                           (2 ** 16, 2 ** 17, (2 ** 17, 2 ** 18))],
                         ids=["at-the-hand-over", "mid-count"])
def test_ring_count_refuses_a_ring_too_short(f_ring, end, size, at):
    # the read positions leave the prefix, to 2^16, when the count reaches
    # about 2^17, and lag about 2^17 behind the count's end: a ring of 2^12
    # is refused at the hand-over, from the prefix to the ring, and one of
    # 2^17 near the count's end
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    plan = [2 ** 18 - 5]
    prefix = gen_f(end).byte_values()
    status, info, _ = lib.ring_count(prefix, size, plan)
    assert status == _oracle.RING_SHORT
    assert at[0] <= info[0] < at[1], info
    with pytest.raises(RuntimeError, match=rf"a ring of {size} counts is too "
                       r"short: counting V = \d+, a read position lags (\d+) ") as e:
        sequences._raise(status, info)
    assert int(e.value.args[0].split("lags ")[1].split()[0]) >= size
    assert count_windows(gen_f(end), plan) == f_ring.windows_at(plan)


@pytest.mark.parametrize("size, plan", [(32, [200]), (100, [200]), (64, [300, 200]),
                                        (64, [200, 200]), (64, [50]), (64, [])],
                         ids=["small", "odd", "unsorted", "repeated", "inside",
                              "empty"])
def test_ring_count_refuses_what_it_cannot_count(size, plan):
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    prefix = gen_f(100).values
    with pytest.raises(ValueError):
        lib.ring_count(prefix, size, plan)


@pytest.fixture
def ring_runs(monkeypatch):
    """The (size, status, info[0]) of each ring count run, through a spy on
    Oracle.ring_count: info[0] is the value counted at a refusal."""
    if _oracle.library() is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    runs = []
    ring_count = _oracle.Oracle.ring_count

    def spy(self, prefix, size, plan):
        status, info, windows = ring_count(self, prefix, size, plan)
        runs.append((size, status, info[0]))
        return status, info, windows

    monkeypatch.setattr(_oracle.Oracle, "ring_count", spy)
    return runs


def test_count_windows_double_a_default_ring_too_short(f_ring, ring_runs, monkeypatch):
    plan = [2 ** 18 - 5, 2 ** 20]
    default = sequences._ring_size(2 ** 20 + 1, 2 ** 16)
    monkeypatch.setattr(sequences, "_ring_size", lambda a_max, p: 2 ** 12)
    assert count_windows(gen_f(2 ** 16), plan) == f_ring.windows_at(plan)
    # the lag reaches about 2^19 at the count's end, so 2^20 is the first
    # ring that holds it, and the default
    sizes = [size for size, _, _ in ring_runs]
    assert sizes == [2 ** k for k in range(12, 21)] and sizes[-1] == default
    # the read positions leave the prefix when the count reaches about
    # 2^17: the rings of 2^16 counts and less are refused there
    refused = [value for size, status, value in ring_runs if size <= 2 ** 16]
    assert all(2 ** 17 - 64 <= value < 2 ** 17 for value in refused), ring_runs


@pytest.mark.parametrize("top, size", [(2 ** 17 - 300, 256), (2 ** 17 + 300, 2 ** 17)],
                         ids=["below-twice-the-prefix", "past-twice-the-prefix"])
def test_count_windows_read_the_prefix_in_place(f_ring, ring_runs, top, size):
    # the read positions reach about half the count's end: below twice the
    # prefix's end they never leave it, and the ring takes a few blocks;
    # past it they hand over to a ring of just over half the count
    end = 2 ** 16
    plan = [end - 2, end, end + 3, end + 64, top - 70, top]
    assert sequences._ring_size(top + 1, end) == size
    assert count_windows(gen_f(end), plan) == f_ring.windows_at(plan)
    assert [run[:2] for run in ring_runs] == [(size, _oracle.OK)]


def test_count_windows_from_every_short_prefix(f_ring):
    # prefix ends from 1 to 80, whose read positions leave them within a
    # block or two of the count's start, with windows still to be copied
    # out; and the same prefixes past the seed's four terms with their last
    # count one short, whose value the resumed count then finishes
    if _oracle.library() is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    for end in range(1, 81):
        plan = [end, end + 1, 2 * end + 70, 9000]
        prefix = gen_f(end)
        assert count_windows(prefix, plan) == f_ring.windows_at(plan), end
        if end > 1 and prefix[end] > 1:
            short = bytearray(prefix.values)
            short[end] -= 1
            got = count_windows(SequenceTable(0, end, short, "F"), plan)
            assert got == f_ring.windows_at(plan), end


@pytest.mark.parametrize("ends", [range(1, 401), (2 ** 14 + 1, 2 ** 15 - 3, 2 ** 16)],
                         ids=["1-400", "large"])
def test_ring_count_resumes_from_the_prefix_alone(f_ring, ends):
    # V's terms before the count resumes, and where, read off the prefix:
    # every window from the prefix's end past the hand-over, or a few
    # straddling the prefix's end and the hand-over, from each prefix end
    lib = _compiled()
    for end in ends:
        plan = (list(range(end, 3 * end + 100)) if end <= 400
                else [end, end + 1, 2 * end + 5, 3 * end])
        size = sequences._ring_size(plan[-1] + 1, end)
        status, info, windows = lib.ring_count(gen_f(end).byte_values(), size, plan)
        assert (status, windows) == (_oracle.OK, f_ring.windows_at(plan)), (end, info)


@pytest.mark.parametrize("f0", [0, 255])
@pytest.mark.parametrize("f1", [1, 2, 3, 4])
def test_ring_count_reads_no_value_below_1(f_ring, f0, f1):
    # a prefix F(0..1) that holds f1 of V's four seed terms: the top read
    # stops at V = 1, so the terms before them read 1, as in the seed, the
    # count goes on as V's, and F(0) is never read
    status, _, windows = _compiled().ring_count(bytes([f0, f1]), 64, [1, 10])
    assert (status, windows) == (_oracle.OK, bytes([0, 0, f1, 1])
                                 + f_ring.windows_at([10]))


def test_ring_size_is_a_few_blocks_at_depth_12():
    # the depth-12 certificate counts to 7,593,986 past a prefix to 2^22 + 2:
    # its read positions stay below 3.8 million
    assert sequences._ring_size(7_593_986, 2 ** 22 + 2) == 256
    assert sequences._ring_size(121_503_746, 2 ** 22 + 2) == 2 ** 26


def test_ring_count_wraps_a_small_ring_before_the_hand_over(f_ring):
    # a count to 32,701 past a prefix to 17,384: its read positions stay in
    # the prefix, and its counts wrap a ring of 256 about 60 times, which
    # must keep only the windows still to be copied out
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    end = 2 ** 14 + 1000
    prefix = gen_f(end).byte_values()
    plan = [end, end + 1, 32700]
    status, _, windows = lib.ring_count(prefix, 256, plan)
    assert (status, windows) == (_oracle.OK, f_ring.windows_at(plan))
    # a window across the block that starts at 24,576: a ring of 64 would
    # zero its first three counts before they are copied out, so it is
    # refused, and one of 128 holds them
    plan = [end, 24575, 24600]
    runs = [lib.ring_count(prefix, size, plan) for size in (64, 128)]
    assert runs[0][:2] == (_oracle.RING_SHORT, [24576, 66, 64]), runs[0]
    assert runs[1][::2] == (_oracle.OK, f_ring.windows_at(plan))


@pytest.mark.parametrize("count, message", [
    (0, "V skips the value 65526"),
    (5, "V takes the value 65526 more than 4 times"),
])
def test_ring_count_refuses_a_seeded_count_outside_1_to_4(count, message):
    # the resumed cursors start about halfway along the prefix and read it
    # from there, so its count at 65,526 is checked; a ring count holds 1
    # to 4
    if _oracle.library() is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    vals = bytearray(gen_f(2 ** 16).byte_values())
    vals[2 ** 16 - 10] = count
    with pytest.raises(ValueError) as e:
        count_windows(SequenceTable(0, 2 ** 16, vals, "F"), [2 ** 17])
    assert str(e.value) == message


def test_ring_count_refuses_the_least_count_a_window_reads():
    # a count of 200 at p = 129 ends the resume's block scan on p's own
    # block, from 129; the window planned at p still reads F(127), so a 0
    # there is the least count refused
    lib = _compiled()
    prefix = bytearray(gen_f(129).byte_values())
    prefix[129] = 200
    assert lib.ring_count(prefix, 2 ** 10, [129])[:2] == (_oracle.COUNT_OVERFLOW,
                                                         [129, 4, 200])
    prefix[127] = 0
    assert lib.ring_count(prefix, 2 ** 10, [129])[:2] == (_oracle.COUNT_OVERFLOW,
                                                         [127, 4, 0])


@pytest.mark.parametrize("planted", [0, 5, 200, 255])
def test_ring_count_ignores_a_count_below_its_cursors(f_ring, planted):
    # F(10) of a prefix to 2^16, far below the block the resumed cursors
    # start on: it is summed into S(p) but never read, and V's recursion
    # reads only differences of S, so it is not refused and moves no window,
    # in the prefix loop or past the hand-over
    if _oracle.library() is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    vals = bytearray(gen_f(2 ** 16).byte_values())
    vals[10] = planted
    plan = [2 ** 16, 2 ** 16 + 1, 2 ** 17 + 5, 3 * 2 ** 16]
    got = count_windows(SequenceTable(0, 2 ** 16, vals, "F"), plan)
    assert got == count_windows(gen_f(2 ** 16), plan) == f_ring.windows_at(plan)


def test_ring_count_refuses_a_fifth_term_of_a_value():
    # F(58) = 3 set to 4: read back through it, the resumed count takes
    # V = 116 five times, past a ring count's two bits
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    prefix = bytearray(gen_f(101).byte_values())
    prefix[58] = 4
    status, info, _ = lib.ring_count(prefix, 2 ** 10, [200])
    assert (status, info) == (_oracle.COUNT_OVERFLOW, [116, 4, 5])
    with pytest.raises(ValueError, match=r"^V takes the value 116 more than 4 times$"):
        sequences._raise(status, info)



# -- the ring count's kernel: six terms a table lookup -----------------------------

@pytest.fixture(scope="module")
def ring_engines(tmp_path_factory) -> tuple:
    """The library, its kernel tables built, and a copy of it whose tables
    were never built, in which the kernel hands back at once and the scalar
    loops run alone."""
    lib = _compiled()
    copy = tmp_path_factory.mktemp("scalar") / "scalar.so"
    shutil.copyfile(lib._lib._name, copy)
    return lib._lib, ctypes.CDLL(str(copy))


def _raw_ring_count(lib: ctypes.CDLL, prefix: bytes, size: int, plan: list) -> tuple:
    """vseq_ring_count through lib, of a ring of size counts: status, info,
    windows."""
    i64 = ctypes.c_int64
    counts, windows = bytearray(size // 4), bytearray(4 * len(plan))
    info = (i64 * 3)()
    status = lib.vseq_ring_count(
        prefix, i64(len(prefix) - 1), (ctypes.c_uint8 * len(counts)).from_buffer(counts),
        i64(size - 1), (i64 * len(plan))(*plan), i64(len(plan)),
        (ctypes.c_uint8 * len(windows)).from_buffer(windows), info)
    return status, list(info), bytes(windows)


def _ring_count_on_both(engines: tuple, prefix: bytes, size: int, plan: list) -> tuple:
    """The ring count with the kernel and with the scalar loops alone, which
    must return the same status, info and windows."""
    runs = [_raw_ring_count(lib, prefix, size, plan) for lib in engines]
    assert runs[0] == runs[1], (size, plan, runs[0][:2], runs[1][:2])
    return runs[0]


@pytest.mark.parametrize("end", [4095, 4096, 4097, 4159, 4160, 4161])
def test_ring_count_kernel_equals_the_scalar_loop(f_ring, ring_engines, end):
    # prefix ends on and around block starts; windows at the prefix's end,
    # straddling the first block start past it, one in the middle of the
    # prefix loop, and the hand-over, where the count reaches about twice
    # the prefix's end; and rings that wrap many times in the prefix loop,
    # are refused at the hand-over or in the middle of the count, or hold it
    first = (end | 63) + 1
    middle = (3 * end // 2) & -64
    late = (4 * end) & -64
    plan = sorted({end, end + 1, first - 1, first, first + 1, middle - 1, middle,
                   middle + 1, *range(2 * end - 64, 2 * end + 65, 16), late,
                   5 * end + 1})
    prefix = bytes(gen_f(end).byte_values())
    short = {}
    for size in (64, 128, 256, 2 ** 12, 2 ** 13, 2 ** 14):
        status, info, windows = _ring_count_on_both(ring_engines, prefix, size, plan)
        if status == _oracle.RING_SHORT:
            short[size] = info[0]
        else:
            assert (status, windows) == (_oracle.OK, f_ring.windows_at(plan)), size
    # 2^12 counts are refused at the hand-over, 2^13 later, 2^14 hold it
    assert abs(short[2 ** 12] - 2 * end) <= 128, short
    assert short[2 ** 13] > 3 * end and 2 ** 14 not in short, short
    # a window of each block's first four values to the hand-over: a ring
    # of 64 holds them, though the kernel refuses to start any block in it
    plan = [64 * k + 2 for k in range(end // 64 + 1, 2 * end // 64 - 1)]
    for size in (64, 128):
        got = _ring_count_on_both(ring_engines, prefix, size, plan)
        assert got == (_oracle.OK, [0, 0, 0], f_ring.windows_at(plan)), size


@pytest.mark.parametrize("at", [0.7, 1.0], ids=["middle", "before-the-hand-over"])
def test_ring_count_kernel_hands_back_a_planted_count(ring_engines, at):
    # counts of 0 or 5 planted in the prefix are refused before the count;
    # counts one more and one less at two adjacent values keep the prefix's
    # sum, so the count resumes as before, and once a read position reads
    # them, in the middle of the prefix loop or just before the hand-over,
    # V's terms move: the count goes on, takes a step of 2, or takes a value
    # a fifth time, which the kernel hands back to the scalar loop
    end = 2 ** 14 + 1
    plan = [end, 2 * end + 5, 3 * end]
    vals = gen_f(end).byte_values()
    size = sequences._ring_size(plan[-1] + 1, end)
    first = int(at * end) - 30
    outcomes = set()
    for x in range(first, first + 26):
        for planted in (0, 5):
            prefix = bytearray(vals)
            prefix[x] = planted
            got = _ring_count_on_both(ring_engines, bytes(prefix), size, plan)
            assert got[:2] == (_oracle.COUNT_OVERFLOW, [x, 4, planted]), got[:2]
        for d in (1, -1):
            prefix = bytearray(vals)
            prefix[x] += d
            prefix[x + 1] -= d
            if 1 <= prefix[x] <= 4 and 1 <= prefix[x + 1] <= 4:
                status, info, _ = _ring_count_on_both(ring_engines, bytes(prefix),
                                                      size, plan)
                outcomes.add((status, info[2] if status == _oracle.COUNT_OVERFLOW
                              else None))
    assert outcomes == {(_oracle.OK, None), (_oracle.NOT_MONOTONE, None),
                        (_oracle.COUNT_OVERFLOW, 5)}, outcomes


def test_count_windows_at_the_depth_16_plan_are_pinned(f_main, truth_a):
    # the sha256 of the depth-16 certificate's windows as the scalar loops
    # counted them, before the kernel
    if _oracle.library() is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    windows = count_windows(f_main, cert_plan(truth_a, 16))
    assert hashlib.sha256(windows).hexdigest() == (
        "69d7298f3de88194ba398ace3521db3bade81589ba5cf6319261fdb315211485")

def test_count_windows_hold_a_ring_of_two_bit_counts(f_main, truth_a):
    # the depth-16 certificate's windows, to F(121,503,745): a ring of 2^26
    # counts, 16 MiB at two bits a count, where a byte a count took 64 MiB
    if _oracle.library() is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    plan = cert_plan(truth_a, 16)
    assert sequences._ring_size(plan[-1] + 1, f_main.hi) == 2 ** 26
    tracemalloc.start()
    try:
        windows = count_windows(f_main, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(windows) == 4 * len(plan)
    assert peak <= 17 * 2 ** 20, peak / 2 ** 20


def test_count_windows_hold_a_few_blocks_at_depth_12(f_main, truth_a):
    # every window the depth-12 certificate reads, repeats and all, as
    # certify_transitions asks for them: the count to 7,593,986 reads the
    # prefix in place, in a ring of 256 counts, where a ring of 2^22 took
    # 1 MiB
    if _oracle.library() is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    values, _, _, left, right, _ = _family_reads(truth_a, 12)
    plan = [*values, *left, *right]
    assert max(plan) == 7_593_985
    tracemalloc.start()
    try:
        windows = count_windows(f_main, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert windows == gen_f(max(plan) + 1).windows_at(plan)
    assert peak <= 512 * 2 ** 10, peak / 2 ** 10


def test_count_windows_count_flat_without_the_compiled_loops(f_ring):
    plan = [7, 3 * COMPILED_FROM, 2 ** 20]
    with mock.patch.object(_oracle, "library", lambda: None):
        got = count_windows(gen_f(100), plan)
    assert got == f_ring.windows_at(plan)


def _pair_ids(k: int, distinct: int) -> np.ndarray:
    """Ids below k whose pairs at stride 2 are the first ``distinct`` pairs
    of ids below k, twice over."""
    pairs = np.array([(a, b) for a in range(k) for b in range(k)][:distinct],
                     dtype=np.min_scalar_type(k - 1)).ravel()
    return np.tile(pairs, 2)


@pytest.mark.parametrize("engine", ["compiled", "python"])
@pytest.mark.parametrize("k, distinct, dtype", [
    (16, 255, np.uint8), (16, 256, np.uint16),
    (256, 65535, np.uint16), (256, 65536, np.uint32),
])
def test_join_ids_take_the_narrowest_dtype_holding_their_number(engine, k, distinct,
                                                                 dtype):
    ids = _pair_ids(k, distinct)
    if engine == "compiled" and _oracle.library() is None:
        pytest.skip("no C compiler: only the Python passes run here")
    with (contextlib.nullcontext() if engine == "compiled"
          else mock.patch.object(_oracle, "library", lambda: None)):
        out, got = join_ids(ids, k, 0, 2, 2, ids.size // 2)
    assert (got, np.asarray(out).dtype) == (distinct, np.dtype(dtype))
    # equal pairs, and only they, get equal ids
    assert len(set(zip(out.tolist(), ids[0::2].tolist(), ids[1::2].tolist()))) == distinct


@pytest.mark.parametrize("at", ["first", "last"])
def test_join_ids_past_k_raise_after_a_wider_retry(at):
    # 256 pairs overflow the one-byte join at once; an id at or past k is
    # refused before that ("first") or by the two-byte join that follows
    if _oracle.library() is None:
        pytest.skip("no C compiler: only the Python passes run here")
    ids = _pair_ids(16, 256)
    ids[0 if at == "first" else -1] = 16
    with pytest.raises(ValueError, match="ids at or past 16"):
        join_ids(ids, 16, 0, 2, 2, ids.size // 2)


def test_v_is_stored_in_32_bits():
    for n_max in (20, 10 ** 5):
        values = gen_v(n_max).values
        assert values.typecode == "I" and values.itemsize == 4
        assert isinstance(values[-1], int)


@pytest.mark.parametrize("call, error", [
    (lambda: gen_f(2048.0), TypeError),
    (lambda: gen_v(10.0 ** 5), TypeError),
    (lambda: gen_f(2 ** 32), ValueError),
    (lambda: gen_v(2 ** 32), ValueError),
], ids=["f-float", "v-float", "f-2^32", "v-2^32"])
def test_oracle_sizes_checked_before_the_loops(call, error):
    with pytest.raises(error):
        call()


def _check_windows_at(t: SequenceTable, lo: int, hi: int) -> None:
    """windows_at(range(lo, hi + 1)) holds, at offset 4 (n - lo), the
    values at n - 2 to n + 1, 0 below the table, and nothing more."""
    buf = t.windows_at(range(lo, hi + 1))
    assert type(buf) is bytes and len(buf) == 4 * (hi + 1 - lo)
    for n in range(lo, hi + 1):
        want = bytes(t.values[i - t.lo] if i >= t.lo else 0 for i in range(n - 2, n + 2))
        assert buf[4 * (n - lo):4 * (n - lo) + 4] == want, n


@pytest.mark.parametrize("table_lo", [0, 5])
@pytest.mark.parametrize("offset", [-3, 0, 1, 2, 3, "random"])
@pytest.mark.parametrize("end", ["last", "random"])
def test_window_codes_equal_packed_windows(table_lo, offset, end):
    # windows_at on every n of a range, from below the table to its last
    # window or short of it
    rng = np.random.default_rng(table_lo)
    values = bytearray(rng.integers(0, 256, 600, dtype=np.uint8).tobytes())
    t = SequenceTable(table_lo, table_lo + len(values) - 1, values, "x")
    if offset == "random":
        offset = int(rng.integers(4, 300))
    lo = table_lo + offset
    hi = t.hi - 1 if end == "last" else lo + int(rng.integers(0, 200))
    _check_windows_at(t, lo, hi)
    with pytest.raises(IndexError):
        t.windows_at(range(lo, t.hi + 1))
    for wide in (256, -1):
        bad = np.array(values, dtype=np.int16)
        bad[int(rng.integers(0, len(bad)))] = wide
        with pytest.raises(ValueError):
            SequenceTable(t.lo, t.hi, bad, "x").windows_at(range(lo, hi + 1))


def test_window_codes_bounds():
    t = SequenceTable(3, 40, bytearray(range(1, 39)), "x")  # S(n) = n - 2
    assert t.windows_at(range(10, 10)) == b""
    assert t.windows_at([39]) == bytes([35, 36, 37, 38])
    assert t.windows_at([0, 1, 2]) == bytes(4) + bytes(4) + bytes([0, 0, 0, 1])
    assert t.windows_at([3, 4]) == bytes([0, 0, 1, 2, 0, 1, 2, 3])
    assert t.windows_at(range(-9, -3)) == bytes(24)  # wholly below the table
    _check_windows_at(t, -9, -4)
    _check_windows_at(t, -3, 39)
    with pytest.raises(IndexError):
        t.windows_at([40])
    f = gen_f(64)
    padded = bytes(2) + bytes(f.values)
    assert f.windows_at(range(64)) == b"".join(padded[n:n + 4] for n in range(64))
    _check_windows_at(f, 0, 63)


def test_compiled_loops_are_built_on_first_use_never_at_import():
    # the query path loads neither numpy nor the compiled loops, and short
    # oracles run the Python loops; a pass, here a short probe's, loads the
    # compiled loops, or tries to, and no numpy
    script = "\n".join([
        "import sys",
        "import vseq, vseq.cli",
        "from vseq import SINGLE, Dfao, gen_f, gen_v, kernel_probe",
        "m = Dfao(2, 0, [(0, 1), (1, 0)], [0, 1], SINGLE)",
        "Dfao.deserialize(m.serialize()).eval_big('9' * 5000)",
        "print('numpy' in sys.modules, 'vseq._oracle' in sys.modules)",
        "gen_f(20), gen_v(20)",
        "print('vseq._oracle' in sys.modules)",
        "kernel_probe(gen_f(4096), 2, 4, 16)",
        "print('vseq._oracle' in sys.modules, 'numpy' in sys.modules)",
        # naming the cached library loads no OpenSSL
        "print('hashlib' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(sequences.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "False", "True", "False", "False"]
