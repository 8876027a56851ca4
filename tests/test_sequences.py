import io
import os
import shutil
import subprocess
import sys
from array import array
from unittest import mock

import numpy as np
import pytest

from vseq import (DeadSequence, MonotonicityViolation, ProbeReport,
                  SequenceTable, first_difference, gen_f, gen_qrs, gen_v,
                  kernel_probe, read_table, write_table)
from vseq import _oracle, sequences

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


def test_first_difference_needs_two():
    with pytest.raises(ValueError):
        first_difference(SequenceTable(5, 5, [1], "x"))


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


def test_oracle_source_compiles_without_warnings():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    result = subprocess.run(["cc", "-O2", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                             str(_oracle.SOURCE)], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


# Run under ASan and UBSan by test_oracle_loops_are_clean_under_sanitizers:
# every compiled loop, each checked against the Python and numpy paths.
SANITIZED_RUN = """
import ctypes, sys
import numpy as np
from vseq import _oracle, gen_f, gen_qrs, gen_v, kernel_probe
from vseq.rules import _scan
from vseq.sequences import join_ids

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
a, b = both(lambda: gen_v(10 ** 5).values)
assert a == b
for r, s in ((2, 5), (1, 10)):
    a, b = both(lambda: raised(lambda: gen_qrs(r, s, 10 ** 5)))
    assert a == b != None, (a, b)

# the rule scan's overlapping windows, the last one ending at the last byte
rng = np.random.default_rng(7)
for top in (4, 16, 256):
    vals = rng.integers(0, top, 2 ** 15, dtype=np.uint8)
    same_partition(*both(lambda: join_ids(vals, top, 5, 1, 4, vals.size - 8, top)))
f = gen_f(2 ** 15 + 1)
a, b = both(lambda: _scan(f, 4, 2 ** 14))
assert a == b

# probe joins at q = 2 and 3 over 1-, 2- and 4-byte ids into 1-, 2- and
# 4-byte ids, the last tuple ending at the last id, and one join that
# would read one id past them
for dtype in (np.uint8, np.uint16, np.uint32):
    for q, ks in ((2, (3, 60, 256)), (3, (3, 40, 45))):
        for k in ks:
            ids = rng.integers(0, k, 3 * 2 ** 16 + 1, dtype=dtype)
            first, count = (ids.size - q) % q, (ids.size - q) // q + 1
            same_partition(*both(lambda: join_ids(ids, k, first, q, q, count, k)))
            err = raised(lambda: lib.join(ids, first, q, q, count + 1, k, k))
            assert err and err.startswith("ValueError"), err
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
    status, info = lib.count(bytearray(100), 1, 4)
    assert (status, info[:2]) == (_oracle.UNSETTLED, [5, 4])
    with pytest.raises(RuntimeError, match=r"V\(5\) read V\(4\)"):
        sequences._raise(status, info, "V", None)


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
    # the query path and short oracles never load the compiled loops
    script = "\n".join([
        "import sys",
        "import vseq, vseq.cli",
        "from vseq import SINGLE, Dfao, gen_f, gen_v, kernel_probe",
        "m = Dfao(2, 0, [(0, 1), (1, 0)], [0, 1], SINGLE)",
        "Dfao.deserialize(m.serialize()).eval_big('9' * 5000)",
        "gen_f(20), gen_v(20), kernel_probe(gen_f(4096), 2, 4, 16)",
        "print('vseq._oracle' in sys.modules)",
        "gen_f(2 ** 14)",
        "print('vseq._oracle' in sys.modules)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(sequences.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
