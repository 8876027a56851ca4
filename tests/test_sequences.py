import contextlib
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

from vseq import (DeadSequence, MonotonicityViolation, ProbeReport,
                  SequenceTable, count_windows, extend_f, first_difference,
                  gen_f, gen_qrs, gen_v, kernel_probe, read_table, write_table)
from vseq import _oracle, sequences
from vseq.sequences import COMPILED_FROM, join_ids

V20 = [1, 1, 1, 1, 2, 3, 4, 5, 5, 6, 6, 7, 8, 8, 9, 9, 10, 11, 11, 11]
F20 = [4, 1, 1, 1, 2, 2, 1, 2, 2, 1, 3, 2, 1, 2, 2, 1, 3, 2, 1, 2]


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
    # partial sums of F are the right edges of the value runs in V
    a_max = 2000
    f = gen_f(a_max)
    v = gen_v(2 * a_max + 100)
    s = 0
    for a in range(1, a_max + 1):
        s += f[a]
        assert v[s] == a
        assert v[s + 1] == a + 1


def test_qrs_14_equals_v():
    assert list(gen_qrs(1, 4, 2000).values) == list(gen_v(2000).values)


def test_qrs_12_regression():
    t = gen_qrs(1, 2, 12)
    assert list(t.values) == [1, 1, 2, 3, 3, 4, 5, 5, 6, 6, 6, 8]
    assert t.label == "Q[1,2]"


def test_qrs_25_dies_at_38():
    with pytest.raises(DeadSequence) as excinfo:
        gen_qrs(2, 5, 10 ** 4)
    e = excinfo.value
    assert e.n == 38
    assert e.label == "Q[2,5]"
    assert len(e.partial) == 37
    assert e.argument < 1


def test_qrs_preconditions():
    with pytest.raises(ValueError):
        gen_qrs(4, 1, 100)
    with pytest.raises(ValueError):
        gen_qrs(0, 4, 100)
    with pytest.raises(ValueError):
        gen_qrs(1, 4, 3)


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
    assert first_difference(gen_v(20)).values.dtype == np.uint8
    assert first_difference(SequenceTable(1, 6, F20[:6], "F")).values.dtype == np.int8
    t = SequenceTable(0, 2, [0, 128, 0], "x")  # +128 and -128 need 16 bits
    assert first_difference(t).values.dtype == np.int16
    assert list(first_difference(t).values) == [128, -128]
    wide = SequenceTable(0, 1, [0, 2 ** 31], "x")
    assert first_difference(wide).values.dtype == np.uint32
    # 32-bit operands far outside the differences' int8
    big = first_difference(SequenceTable(0, 2, array("I", [70000, 70003, 69999]), "x"))
    assert big.values.dtype == np.int8
    assert list(big.values) == [3, -4]


def test_first_difference_across_chunks(monkeypatch):
    monkeypatch.setattr(sequences, "DIFF_CHUNK", 7)
    rng = np.random.default_rng(5)
    vals = rng.integers(-300, 300, 50)
    d = first_difference(SequenceTable(2, 51, vals, "x"))
    assert (d.lo, d.hi) == (2, 50)
    assert d.values.dtype == np.int16
    assert list(d.values) == list(np.diff(vals))


def test_first_difference_frees_its_range_buffer_before_the_result():
    # V's steps to 2^22 take 4 MB as uint8, the int64 range buffer 8 MB;
    # the two were once held together
    v = gen_v(2 ** 22 + 1)
    tracemalloc.start()
    try:
        d = first_difference(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.values.dtype == np.uint8
    assert peak < 10 * 2 ** 20, peak


def test_first_difference_needs_two():
    with pytest.raises(ValueError):
        first_difference(SequenceTable(5, 5, [1], "x"))
    with pytest.raises(ValueError):
        first_difference(0)  # no step of V on [1, 0]


def _assert_v_steps(n):
    """first_difference(n) is first_difference(gen_v(n + 1)), byte for byte."""
    d, ref = first_difference(n), first_difference(gen_v(n + 1))
    assert (d.lo, d.hi, d.label, np.asarray(d.values).dtype) == (ref.lo, ref.hi, ref.label,
                                                                 ref.values.dtype)
    assert bytes(d.values) == ref.values.tobytes()
    return d


def test_first_difference_of_n_is_v_steps_from_f(monkeypatch):
    # at 7 entries a chunk, the F counted for n = 1..300 ends on both sides
    # of a chunk edge: a full last chunk and a last chunk of one entry
    monkeypatch.setattr(sequences, "DIFF_CHUNK", 7)
    ends = []
    for name in ("gen_f", "extend_f"):
        def spy(*args, count=getattr(sequences, name)):
            f = count(*args)
            ends.append(f.hi)
            return f
        monkeypatch.setattr(sequences, name, spy)
    edges = set()
    for n in range(1, 301):
        if n < 3:  # gen_v needs 4 terms; V(1..3) = 1 in the seed
            d = first_difference(n)
            assert (d.lo, d.hi, d.label, list(d.values)) == (1, n, "diff(V)", [0] * n)
            assert np.asarray(d.values).dtype == np.uint8
        else:
            _assert_v_steps(n)
        edges.add(ends[-1] % 7)
    assert {0, 1} <= edges


def test_first_difference_of_n_at_and_below_a_step():
    f = gen_f(50000)
    s = np.cumsum(f.byte_values(), dtype=np.int64)  # s[a] = S(a)
    a = next(a for a in range(40000, 50000) if f[a] > 1)
    assert _assert_v_steps(int(s[a])).values[-1] == 1
    assert _assert_v_steps(int(s[a]) - 1).values[-1] == 0


@pytest.mark.parametrize("n", [2 ** 20 + 3, 2 ** 24])
def test_first_difference_of_n_at_scale(n):
    _assert_v_steps(n)


def test_first_difference_of_n_extends_a_short_f(monkeypatch):
    extended = []
    count, extend = sequences.gen_f, sequences.extend_f
    monkeypatch.setattr(sequences, "gen_f", lambda a_max: count(a_max // 4))
    monkeypatch.setattr(sequences, "extend_f",
                        lambda f, a_max: extended.append(a_max) or extend(f, a_max))
    _assert_v_steps(2 ** 16 + 5)
    assert extended


@pytest.mark.parametrize("ns", [range(1, 301), [2 ** 16 + 5, 2 ** 20 + 3, 2 ** 24]],
                         ids=["1-300", "large"])
def test_first_difference_of_n_counts_f_once(monkeypatch, ns):
    # the margin past n // 2 brings S to n, so no resume is needed
    calls = []
    for name in ("gen_f", "extend_f"):
        def spy(*args, name=name, count=getattr(sequences, name)):
            calls.append(name)
            return count(*args)
        monkeypatch.setattr(sequences, name, spy)
    for n in ns:
        calls.clear()
        assert first_difference(n).hi == n
        assert calls == ["gen_f"], (n, calls)


def test_first_difference_of_n_holds_f_and_the_steps_alone():
    # the route through gen_v holds V, 16 MB at 2^22, before any step
    gen_f(COMPILED_FROM)  # loads the compiled loops before tracing
    tracemalloc.start()
    try:
        d = first_difference(2 ** 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.hi == 2 ** 22
    assert peak < 8 * 2 ** 20, peak


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
    assert t.window4(-3) == (0, 0, 0, 0)
    assert t.window4(0) == (0, 0, 0, 4)
    assert t.window4(3) == (4, 1, 1, 1)
    with pytest.raises(IndexError):
        t.window4(4)  # needs index 5


def test_io_round_trip():
    t = gen_f(30)
    buf = io.StringIO()
    write_table(t, buf)
    text = buf.getvalue()
    assert text.startswith("seq F 0 30\n")
    back = read_table(io.StringIO("# comment\n" + text))
    assert (back.lo, back.hi, back.label) == (t.lo, t.hi, t.label)
    assert list(back.values) == list(t.values)


def test_read_table_rejects_garbage():
    with pytest.raises(ValueError):
        read_table(io.StringIO("not a header\n1\n"))
    with pytest.raises(ValueError):
        read_table(io.StringIO(""))


# -- compiled oracle against the Python loops ---------------------------------------

def _outcome(call):
    """What a call gives: its table's type and bytes (a probe report as it
    is), or its exception's type, message, index and partial table."""
    try:
        values = call()
    except (DeadSequence, MonotonicityViolation) as e:
        return (type(e), str(e), getattr(e, "n", None),
                bytes(getattr(e, "partial", b"")))
    if isinstance(values, ProbeReport):
        return type(values), values
    return type(values), bytes(values)


def _numpy_probe(*args):
    """kernel_probe with its numpy passes only."""
    with mock.patch.object(_oracle, "library", lambda: None):
        return kernel_probe(*args)


def _python_steps(n):
    """first_difference(n) with the Python loops and numpy passes only."""
    with mock.patch.object(_oracle, "library", lambda: None):
        return first_difference(n).values


ORACLE_CALLS = {
    "gen_f(2^20)": (lambda: gen_f(2 ** 20).values,
                    lambda: sequences._frequency_py(1, 4, 2 ** 20, "V")),
    "gen_v(10^6)": (lambda: gen_v(10 ** 6).values,
                    lambda: sequences._recursion_py(1, 4, 10 ** 6, "V").values),
    "gen_qrs(2, 5) dies": (lambda: gen_qrs(2, 5, 10 ** 5).values,
                           lambda: sequences._recursion_py(2, 5, 10 ** 5, "Q[2,5]").values),
    # argument 0, just outside the range: the guard's edge
    "gen_qrs(1, 10) dies": (lambda: gen_qrs(1, 10, 10 ** 5).values,
                            lambda: sequences._recursion_py(1, 10, 10 ** 5, "Q[1,10]").values),
    "Q[1,2] counts jump": (lambda: sequences._frequency(1, 2, 10 ** 5, "Q"),
                           lambda: sequences._frequency_py(1, 2, 10 ** 5, "Q")),
    "kernel_probe(F to 2^20)": (lambda: kernel_probe(gen_f(2 ** 20), 2, 8, 256),
                                lambda: _numpy_probe(gen_f(2 ** 20), 2, 8, 256)),
    "first_difference(2^20 + 3)": (lambda: first_difference(2 ** 20 + 3).values,
                                   lambda: _python_steps(2 ** 20 + 3)),
}


@pytest.mark.parametrize("name", ORACLE_CALLS)
def test_compiled_oracle_matches_python_loops(name):
    if _oracle.library() is None:
        pytest.skip("no C compiler: only the Python loops run here")
    compiled, python = ORACLE_CALLS[name]
    assert _outcome(compiled) == _outcome(python)


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
# every compiled loop, each checked against the Python and numpy paths.
SANITIZED_RUN = """
import ctypes, sys
import numpy as np
from vseq import (SequenceTable, _oracle, count_windows, cross_validate,
                  extend_f, first_difference, gen_f, gen_qrs, gen_v,
                  kernel_probe, sequences, synthesize_validated)
from vseq.rules import _scan
from vseq.sequences import COMPILED_FROM, _marks, join_ids

widths = set()  # (ids, joined ids) itemsizes of the compiled joins

class Traced(_oracle.Oracle):
    def join(self, ids, *args):
        out, distinct = super().join(ids, *args)
        widths.add((ids.itemsize, out.itemsize))
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

def same_partition(compiled, numpy_ids):
    (a, da), (b, db) = compiled, numpy_ids
    assert da == db == len(set(zip(a.tolist(), b.tolist()))), (da, db)

# the count and the recursion, and two runs that die
a, b = both(lambda: gen_f(2 ** 16).values)
assert a == b
# the count resumed from a finished one, in the seed and past it, the
# last past it skipping its read positions to the counts' end
for done in (1, 2 ** 10, 2 ** 15 - 1):
    a, b = both(lambda: extend_f(gen_f(done), 2 ** 15).values)
    assert a == b
# the ring count's planned windows against the Python loop's flat count,
# from prefix ends whose ring seed wraps and ends mid-block or not, windows
# straddling the prefix's end and ending the count; and rings too short for
# it, which refuse at the start or mid-count
for end in (1, 2, 5, 2 ** 12 + 1, 2 ** 15 - 3):
    plan = [max(end - 2, 0), end - 1, end, end + 1, end + 70, 2 ** 16 - 1, 2 ** 16]
    a, b = both(lambda: count_windows(gen_f(end), plan).windows)
    assert a == b
    past = sorted({n for n in plan if n >= end})
    prefix = gen_f(end).byte_values()
    for size in (64, 2 ** 10, 2 ** 15, 2 ** 16):
        status, info, got = lib.ring_count(prefix, lib.byte_sum(prefix),
                                           past[-1] + 1, size, past)
        if status == _oracle.RING_SHORT:
            assert info[1] >= size == info[2], (end, size, info)
        else:
            assert (status, got) == (_oracle.OK, b"".join(a[n] for n in past)), (end, size)
a, b = both(lambda: gen_v(10 ** 5).values)
assert a == b
for r, s in ((2, 5), (1, 10)):
    a, b = both(lambda: raised(lambda: gen_qrs(r, s, 10 ** 5)))
    assert a == b != None, (a, b)

# the marking pass: V's steps from F, and counts that start with zeros,
# end exactly at out's end or fall short of it
for n in (2 ** 15 + 3, 2 ** 16):
    a, b = both(lambda: bytes(first_difference(n).values))
    assert a == b
counts = np.random.default_rng(11).integers(0, 4, 2 ** 12, dtype=np.uint8)
counts[:3] = 0
total = int(counts.sum())
for n in (1, 100, total - 1, total, total + 7):
    outs = np.zeros((2, n), dtype=np.uint8)
    got = lib.marks(counts, outs[0]), _marks(counts, outs[1])
    assert min(got[0], n + 1) == min(got[1], n + 1), (n, got)
    assert outs[0].tobytes() == outs[1].tobytes(), n

# the 4-windows of the rule scan and of discovery (the q = 1, parts = 4
# loop) over 1-, 2- and 4-byte ids, the last one ending at the last id
rng = np.random.default_rng(7)

# the byte sum and maximum, reading to the last byte of lengths on both
# sides of their 64-byte blocks, the maximum in a block and past them
for n in (1, 63, 64, 65, 2 ** 12 + 37):
    vals = rng.integers(0, 200, n, dtype=np.uint8)
    assert lib.byte_sum(vals) == int(vals.sum()), n
    for at in (0, n // 2, n - 1):
        top = vals.copy()
        top[at] = 255
        assert (lib.byte_max(top), lib.distinct_bytes(top)) == (
            255, np.unique(top).size), (n, at)
for dtype in (np.uint8, np.uint16, np.uint32):
    for top in (4, 16, 256):
        vals = rng.integers(0, top, 2 ** 15, dtype=dtype)
        same_partition(*both(lambda: join_ids(vals, top, 5, 1, 4, vals.size - 8)))
        # read after a pad of two zeros, as discovery reads F
        same_partition(*both(lambda: join_ids(vals, top, 0, 1, 4, vals.size - 1,
                                              pad=2)))

# the rule scan's pair compare, long enough to run compiled, the last pair
# ending at F's last byte, with and without a conflict there
f16 = gen_f(2 ** 16 + 2)
exact = SequenceTable(0, 2 ** 16 + 1, np.array(f16.byte_values()[:-1]), "F")
a, b = both(lambda: _scan(exact, 4, 2 ** 15))
assert a == b
last = np.array(exact.values)
last[-1] = last[-1] % 3 + 1
a, b = both(lambda: raised(lambda: _scan(SequenceTable(0, exact.hi, last, "F"), 4,
                                         2 ** 15)))
assert a == b != None, (a, b)

# cross-validation of both synthesized machines, reading F up to the last
# index it needs: at n_max below the stride width 256, at 256 and past it,
# clean and with that last byte changed; compiled at any n_max here
sequences.COMPILED_FROM = 0
window_machine = synthesize_validated(f16, 24, 2 ** 16)[0]
single_machine = window_machine.project_output().minimize()
for machine, reach in ((window_machine, 1), (single_machine, 0)):
    for n_max in (0, 1, 100, 255, 256, 257, 2 ** 16 + 1 - reach):
        for change in (0, 1):
            vals = np.array(f16.byte_values()[:n_max + reach + 1])
            vals[-1] += 5 * change
            oracle = SequenceTable(0, vals.size - 1, vals, "F")
            a, b = both(lambda: cross_validate(machine, oracle, n_max))
            assert a == b and a.passed != change, (n_max, a, b)
sequences.COMPILED_FROM = COMPILED_FROM

# probe joins at q = 2 and 3 over 1-, 2- and 4-byte ids into 1-, 2- and
# 4-byte ids, the last tuple ending at the last id, and one join that
# would read one id past them
for dtype in (np.uint8, np.uint16, np.uint32):
    for q, ks in ((2, (3, 60, 256)), (3, (3, 40, 45))):
        for k in ks:
            ids = rng.integers(0, k, 3 * 2 ** 16 + 1, dtype=dtype)
            first, count = (ids.size - q) % q, (ids.size - q) // q + 1
            same_partition(*both(lambda: join_ids(ids, k, first, q, q, count)))
            err = raised(lambda: lib.join(ids, first, q, q, count + 1, k))
            assert err and err.startswith("ValueError"), err
# more than 65,535 ids: the join overflows one and two bytes, then fits four
for dtype in (np.uint8, np.uint16, np.uint32):
    ids = rng.integers(0, 41, 3 * 2 ** 18, dtype=dtype)
    same_partition(*both(lambda: join_ids(ids, 41, 0, 3, 3, 2 ** 18)))
f = gen_f(2 ** 15 + 1)
for q in (2, 3):
    a, b = both(lambda: kernel_probe(f, q, 8, 64))
    assert a == b
assert widths == {(i, o) for i in (1, 2, 4) for o in (1, 2, 4)}, widths
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


def test_count_reads_only_settled_counts():
    # with the seed's count left out, V(5) = V(4) + V(4) reads V(4) from a
    # count the loop is still building: the cursor must refuse, not guess
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: only the Python loops run here")
    status, info = lib.count(bytearray(100), 1, 4, 4)
    assert (status, info[:2]) == (_oracle.UNSETTLED, [5, 4])
    with pytest.raises(RuntimeError, match=r"V\(5\) read V\(4\)"):
        sequences._raise(status, info, "V", None)


def test_count_resumes_only_from_counted_terms():
    # done = 50 claims terms the zeroed counts do not hold: reading them
    # back stops at the counts' end, where it would read one still growing
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: only the Python loops run here")
    status, info = lib.count(bytearray(100), 1, 4, 50)
    assert (status, info[:2]) == (_oracle.UNSETTLED, [51, 47])


# (F's end, the end it is extended to): in the seed, where the ring's last
# four terms are V(1..4) = 1 or straddle them; from a table the Python loop
# counted to one the compiled loop extends, around COMPILED_FROM steps; and
# from the validation oracle to the depth-12 certificate's
EXTENSIONS = [(1, COMPILED_FROM), (2, COMPILED_FROM), (3, COMPILED_FROM),
              (COMPILED_FROM // 2 - 2, COMPILED_FROM // 2 - 1),
              (COMPILED_FROM // 2 - 1, COMPILED_FROM // 2),
              (COMPILED_FROM // 2, COMPILED_FROM // 2 + 1),
              (COMPILED_FROM, COMPILED_FROM),
              (2 ** 22 + 2, 7593986)]


@pytest.mark.parametrize("done, a_max", EXTENSIONS)
def test_extend_f_equals_a_fresh_count(done, a_max):
    extended = extend_f(gen_f(done), a_max)
    assert (extended.lo, extended.hi, extended.label) == (0, a_max, "F")
    assert extended.values == gen_f(a_max).values


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2 * COMPILED_FROM), st.integers(0, 2 * COMPILED_FROM))
def test_extend_f_equals_a_fresh_count_from_any_end(done, more):
    # the Python loop counts below COMPILED_FROM // 2; the compiled one
    # resumes above it
    assert extend_f(gen_f(done), done + more).values == gen_f(done + more).values


def test_extend_f_holds_no_third_table():
    # the old table and the new one, 2 MB each, are all it holds
    gen_f(COMPILED_FROM)  # loads the compiled loops before tracing
    tracemalloc.start()
    try:
        f = extend_f(gen_f(2 ** 21), 2 ** 21 + 27)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.hi == 2 ** 21 + 27
    assert peak < 4.5 * 2 ** 20, peak


def test_extend_f_counts_again_without_the_compiled_loops():
    want = gen_f(3 * COMPILED_FROM).values
    with mock.patch.object(_oracle, "library", lambda: None):
        assert extend_f(gen_f(100), 3 * COMPILED_FROM).values == want


def test_extend_f_refuses_what_it_cannot_extend():
    f = gen_f(100)
    with pytest.raises(ValueError, match="must be >= the table's end, 100"):
        extend_f(f, 99)
    with pytest.raises(ValueError, match="starting at index 0"):
        extend_f(SequenceTable(1, 100, f.values[1:], "F"), 200)
    with pytest.raises(TypeError):
        extend_f(f, 200.0)


# -- the ring count --------------------------------------------------------------

@pytest.fixture(scope="module")
def f_ring() -> SequenceTable:
    """F past every window the ring-count tests plan, to 2^20 + 1."""
    return gen_f(2 ** 20 + 2)


def _windows4(f: SequenceTable, plan) -> bytes:
    return b"".join(bytes(f.window4(n)) for n in plan)


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
    got = count_windows(gen_f(end), plan)
    assert got.prefix.hi == end and sorted(got.windows) == sorted(set(plan))
    assert got.hi == max(end, top + 1)
    assert got.windows_at(plan) == _windows4(f_ring, plan)


def test_count_windows_at_the_depth_12_plan(f_main):
    # the benchmark's certificate: two windows past the 2^22 + 2 prefix
    plan = [0, 1, 2, 4195000, 7593983, 7593984, 7593985]
    got = count_windows(f_main, plan)
    want = gen_f(7593986)
    assert got.windows_at(plan) == _windows4(want, plan)


def test_count_windows_read_nothing_else(f_ring):
    got = count_windows(gen_f(1000), [5, 3000])
    assert got.windows_at([3000, 5, 999]) == _windows4(f_ring, [3000, 5, 999])
    with pytest.raises(IndexError):
        got.windows_at([2000])
    with pytest.raises(ValueError, match="starting at index 0"):
        count_windows(SequenceTable(1, 100, gen_f(100).values[1:], "F"), [200])


@pytest.mark.parametrize("end, size", [(2 ** 16, 2 ** 12), (2 ** 16, 2 ** 16)],
                         ids=["at-the-start", "mid-count"])
def test_ring_count_refuses_a_ring_too_short(f_ring, end, size):
    # the read positions lag about 2^15 values behind the prefix's end, and
    # 2^17 behind the count's: a ring of 2^12 is short from the start, one
    # of 2^16 once the count passes about 2^17
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    plan = [2 ** 18 - 5]
    prefix = gen_f(end).byte_values()
    status, info, _ = lib.ring_count(prefix, lib.byte_sum(prefix), plan[-1] + 1, size,
                                     plan)
    assert status == _oracle.RING_SHORT
    with pytest.raises(RuntimeError, match=rf"a ring of {size} counts is too "
                       r"short: counting V = \d+, a read position lags (\d+) ") as e:
        sequences._raise(status, info, "V", None)
    assert int(e.value.args[0].split("lags ")[1].split()[0]) >= size
    assert count_windows(gen_f(end), plan).windows_at(plan) == _windows4(f_ring, plan)


@pytest.mark.parametrize("size, plan", [(32, [200]), (100, [200]), (64, [300, 200]),
                                        (64, [200, 200]), (64, [50]), (64, [999])],
                         ids=["small", "odd", "unsorted", "repeated", "inside",
                              "past-the-end"])
def test_ring_count_refuses_what_it_cannot_count(size, plan):
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    prefix = gen_f(100).values
    with pytest.raises(ValueError):
        lib.ring_count(prefix, sum(prefix), 999, size, plan)


def test_count_windows_double_a_default_ring_too_short(f_ring, monkeypatch):
    if _oracle.library() is None:
        pytest.skip("no C compiler: the flat count runs in place of the ring")
    sizes = []
    ring_count = _oracle.Oracle.ring_count

    def spy(self, prefix, done, a_max, size, plan):
        sizes.append(size)
        return ring_count(self, prefix, done, a_max, size, plan)

    plan = [2 ** 18 - 5, 2 ** 20]
    default = sequences._ring_size(2 ** 20 + 1)
    monkeypatch.setattr(_oracle.Oracle, "ring_count", spy)
    monkeypatch.setattr(sequences, "_ring_size", lambda a_max: 2 ** 12)
    assert count_windows(gen_f(2 ** 16), plan).windows_at(plan) == _windows4(f_ring, plan)
    # the lag reaches about 2^19 at the count's end, so 2^20 is the first
    # ring that holds it, and the default
    assert sizes == [2 ** k for k in range(12, 21)] and sizes[-1] == default


def test_count_windows_count_flat_without_the_compiled_loops(f_ring):
    plan = [7, 3 * COMPILED_FROM, 2 ** 20]
    with mock.patch.object(_oracle, "library", lambda: None):
        got = count_windows(gen_f(100), plan)
    assert got.windows_at(plan) == _windows4(f_ring, plan)


@pytest.mark.parametrize("pad", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("stride, parts", [(1, 4), (2, 2), (2, 5), (3, 3)])
def test_join_ids_read_a_pad_of_zeros(pad, stride, parts):
    # the compiled join ranks the tuples that reach into the pad itself and
    # numbers the rest after them: the same ids as a join of a padded copy
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: only the numpy join runs here")
    ids = np.random.default_rng(pad).integers(0, 3, 5000, dtype=np.uint8)
    ids[:9] = [0, 0, 1, 0, 0, 0, 2, 0, 0]  # tuples like the pad's
    count = (ids.size + pad - parts) // stride + 1
    padded = np.concatenate((np.zeros(pad, dtype=np.uint8), ids))
    got, distinct = lib.join(ids, 0, stride, parts, count, 3, pad)
    want, want_distinct = lib.join(padded, 0, stride, parts, count, 3)
    assert (got.tolist(), distinct) == (want.tolist(), want_distinct)
    numpy_ids, numpy_distinct = join_ids(ids, 3, 0, stride, parts, count,
                                         steps=0, pad=pad)
    assert numpy_distinct == distinct == len(set(zip(got, numpy_ids.tolist())))
    with pytest.raises(ValueError, match="outside the ids"):
        lib.join(ids, 0, stride, parts, count + 1, 3, pad)


def _pair_ids(k: int, distinct: int) -> np.ndarray:
    """Ids below k, at least COMPILED_FROM of them, whose pairs at stride 2
    are the first ``distinct`` pairs of ids below k, over and over."""
    pairs = np.array([(a, b) for a in range(k) for b in range(k)][:distinct],
                     dtype=np.min_scalar_type(k - 1)).ravel()
    return np.tile(pairs, -(-COMPILED_FROM // pairs.size) + 1)


@pytest.mark.parametrize("engine", ["compiled", "numpy"])
@pytest.mark.parametrize("k, distinct, dtype", [
    (16, 255, np.uint8), (16, 256, np.uint16),
    (256, 65535, np.uint16), (256, 65536, np.uint32),
])
def test_join_ids_take_the_narrowest_dtype_holding_their_number(engine, k, distinct,
                                                                 dtype):
    ids = _pair_ids(k, distinct)
    if engine == "compiled" and _oracle.library() is None:
        pytest.skip("no C compiler: only the numpy passes run here")
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
        pytest.skip("no C compiler: only the numpy passes run here")
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
    (lambda: gen_qrs(1, 4.0, 100), TypeError),
    (lambda: gen_f(2 ** 32), ValueError),
    (lambda: gen_v(2 ** 32), ValueError),
    (lambda: gen_qrs(1, 4, 2 ** 40), ValueError),
], ids=["f-float", "v-float", "qrs-float-s", "f-2^32", "v-2^32", "qrs-2^40"])
def test_oracle_sizes_checked_before_the_loops(call, error):
    with pytest.raises(error):
        call()


def _check_window_bytes(t: SequenceTable, lo: int, hi: int) -> None:
    """window_bytes(lo, hi) holds window4(n) at offset n - lo for every n
    in [lo, hi], and nothing more."""
    buf = t.window_bytes(lo, hi)
    assert type(buf) is bytes and len(buf) == hi - lo + 4
    for n in range(lo, hi + 1):
        assert buf[n - lo:n - lo + 4] == bytes(t.window4(n)), n


@pytest.mark.parametrize("table_lo", [0, 5])
@pytest.mark.parametrize("offset", [-3, 0, 1, 2, 3, "random"])
@pytest.mark.parametrize("end", ["last", "random"])
def test_window_codes_equal_packed_windows(table_lo, offset, end):
    # the window codes are window_bytes: four bytes per window, one-byte stride
    rng = np.random.default_rng(table_lo)
    values = bytearray(rng.integers(0, 256, 600, dtype=np.uint8).tobytes())
    t = SequenceTable(table_lo, table_lo + len(values) - 1, values, "x")
    if offset == "random":
        offset = int(rng.integers(4, 300))
    lo = table_lo + offset
    hi = t.hi - 1 if end == "last" else lo + int(rng.integers(0, 200))
    _check_window_bytes(t, lo, hi)
    with pytest.raises(IndexError):
        t.window_bytes(lo, t.hi)
    for wide in (256, -1):
        bad = np.array(values, dtype=np.int16)
        bad[int(rng.integers(0, len(bad)))] = wide
        with pytest.raises(ValueError):
            SequenceTable(t.lo, t.hi, bad, "x").window_bytes(lo, hi)


def test_window_codes_bounds():
    t = SequenceTable(3, 40, bytearray(range(1, 39)), "x")  # S(n) = n - 2
    assert t.window_bytes(10, 9) == bytes([6, 7, 8])  # no window: S(8..10)
    assert t.window_bytes(39, 39) == bytes([35, 36, 37, 38])
    assert t.window_bytes(0, 2) == bytes([0, 0, 0, 0, 0, 1])
    assert t.window_bytes(-9, -4) == bytes(9)  # wholly below the table
    _check_window_bytes(t, -9, -4)
    with pytest.raises(IndexError):
        t.window_bytes(10, 40)
    f = gen_f(64)
    assert f.window_bytes(0, 63) == bytes(2) + bytes(f.values)
    _check_window_bytes(f, 0, 63)


def test_compiled_loops_are_built_on_first_use_never_at_import():
    # the query path and short oracles never load the compiled loops, and
    # the query path loads no numpy
    script = "\n".join([
        "import sys",
        "import vseq, vseq.cli",
        "from vseq import SINGLE, Dfao, gen_f, gen_v, kernel_probe",
        "m = Dfao(2, 0, [(0, 1), (1, 0)], [0, 1], SINGLE)",
        "Dfao.deserialize(m.serialize()).eval_big('9' * 5000)",
        "print('numpy' in sys.modules)",
        "gen_f(20), gen_v(20), kernel_probe(gen_f(4096), 2, 4, 16)",
        "print('vseq._oracle' in sys.modules)",
        "gen_f(2 ** 14)",
        "print('vseq._oracle' in sys.modules)",
        # naming the cached library loads no OpenSSL
        "print('hashlib' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(sequences.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "True", "False"]
