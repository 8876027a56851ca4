import random

import numpy as np
import pytest

import vseq
from vseq import _oracle
from vseq import (SINGLE, WINDOW, CertificationFailure, Dfao,
                  InsufficientHorizon, NonpositiveDivisor, OracleTooShort,
                  ProbeReport,
                  SequenceTable, certify_transitions,
                  cross_validate, derive_rules, discover, euclid_div, gen_f,
                  gen_v, first_difference, kernel_probe, shift_bounds,
                  signature, synthesize_msb, synthesize_validated)

from conftest import HORIZON


# -- arithmetic scaffolding ----------------------------------------------------

def test_euclid_examples():
    assert euclid_div(7, 3) == (2, 1)
    assert euclid_div(-7, 3) == (-3, 2)
    assert euclid_div(0, 5) == (0, 0)


def test_euclid_rejects_bad_divisor():
    with pytest.raises(NonpositiveDivisor):
        euclid_div(5, 0)
    with pytest.raises(NonpositiveDivisor):
        euclid_div(5, -2)


def test_euclid_randomized():
    rng = random.Random(2024)
    for _ in range(100_000):
        s = rng.randint(-10 ** 12, 10 ** 12)
        q = rng.randint(1, 10 ** 9)
        x, y = euclid_div(s, q)
        assert s == q * x + y
        assert 0 <= y < q


def test_shift_bounds():
    assert shift_bounds(2, 0, 2, 1, 4) == (6, 4)
    assert shift_bounds(2, 0, 0, 0, 0) == (2, 2)
    assert shift_bounds(3, 1, 1, 1, 5) == (5, 3)
    with pytest.raises(ValueError):
        shift_bounds(1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        shift_bounds(2, 0, -1, 0, 0)


def test_synthesis_rejects_bad_bounds():
    f = gen_f(100)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        synthesize_validated(f, 0, 64)
    with pytest.raises(ValueError, match="validate_to must be >= 2"):
        synthesize_validated(f, 24, 1)


# -- signatures ----------------------------------------------------------------

def _padded(f: SequenceTable) -> bytes:
    return bytes(2) + bytes(f.values)  # padded[i + 2] == F(i)


def test_signature_levels_and_padding():
    f = gen_f(1000)
    padded = _padded(f)
    sig0 = signature(padded, 0, 4)
    assert len(sig0) == 5  # levels 0..4
    assert sig0[0] == bytes([0, 0, 0, 4])  # window at 0, padded below index 0
    assert len(sig0[2]) == 4 + 3  # level-2 slice spans [-2, 5]
    sig1 = signature(padded, 1, 30)
    # coverage, not the horizon, limits depth: (1+1)*2^L <= 1000
    assert len(sig1) == 9
    s = signature(padded, 6, 3)
    assert s[0] == bytes(f.window4(6))
    assert s[1] == bytes([f[10], f[11], f[12], f[13], f[14]])  # windows at 12, 13


def test_signature_slices_hold_the_extension_windows():
    # level L of value m: F from 2 left of 2^L*m to 1 right of 2^L*(m+1) - 1
    f = gen_f(3000)
    padded = _padded(f)
    for m in range(60):
        for level, sl in enumerate(signature(padded, m, 8)):
            first, last = m << level, ((m + 1) << level) - 1
            want = bytes(f[i] if i >= 0 else 0 for i in range(first - 2, last + 2))
            assert sl == want, (m, level)


def test_signature_oracle_too_short():
    f = gen_f(10)
    with pytest.raises(OracleTooShort):
        signature(_padded(f), 10, 4)


# -- discovery on the frequency oracle ------------------------------------------

def test_synthesis_recovers_33_states(truth_a):
    assert truth_a.state_count == 33
    assert truth_a.output_kind == WINDOW
    assert truth_a.names[0] == "eps"
    assert truth_a.outputs[0] == (0, 0, 0, 4)
    assert truth_a.transitions[0][0] == 0  # leading zeros are harmless


def test_synthesis_worked_transition(truth_a, f_main):
    s = truth_a.names.index("100")
    p = truth_a.transitions[s][1]
    assert truth_a.names[p] == "110"
    assert f_main[9] == f_main[6] == 2  # base windows behind that transition
    assert truth_a.walk("1001") == truth_a.walk("110")
    # the 1^3 family at offset +1 behind the same transition
    assert f_main[0b1010000] == f_main[0b111000]


def test_window_outputs_for_all_short_strings(truth_a, f_main):
    # every string of length <= 9 (leading zeros included) lands on a state
    # whose window is the oracle window at the string's value
    for length in range(10):
        for bits in range(1 << length):
            w = format(bits, f"0{length}b") if length else ""
            assert truth_a.eval(w) == f_main.window4(bits)


def test_synthesis_deterministic(f_main, truth_a):
    again = synthesize_msb(f_main, HORIZON)
    assert again == truth_a


def test_reps_are_shortlex_access_strings(truth_a):
    names = list(truth_a.names)
    assert names[0] == "eps"
    assert all(n.startswith("1") for n in names[1:])
    keys = [(len(n), n) for n in names[1:]]
    assert keys == sorted(keys)
    for s, name in enumerate(names):
        assert truth_a.walk("" if name == "eps" else name) == s


def test_leading_zero_invariance(truth_a):
    for w in ("", "1", "110", "111001111", "10110"):
        expect = truth_a.eval(w)
        for k in (1, 2, 5):
            assert truth_a.eval("0" * k + w) == expect


def test_window_examples(truth_a):
    assert truth_a.eval("111001111") == (2, 1, 3, 3)
    assert truth_a.eval("") == (0, 0, 0, 4)
    assert truth_a.eval("00110") == truth_a.eval("110")


def test_node_windows_are_oracle_windows(f_main):
    nodes, _ = discover(f_main, HORIZON)
    assert len(nodes) == 33
    for node in nodes:
        assert node.window == f_main.window4(node.value), node.rep


def test_signature_separation(f_main):
    nodes, _ = discover(f_main, HORIZON)
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            a, b = nodes[i].signature, nodes[j].signature
            k = min(len(a), len(b))
            assert a[:k] != b[:k], (nodes[i].rep, nodes[j].rep)


def test_minimized_form(truth_a, truth_b):
    assert truth_b.state_count == 20
    assert truth_b.output_kind == SINGLE
    ok, witness = truth_b.equivalent(truth_a.project_output())
    assert ok and witness is None
    expected_names = {
        "eps", "1", "10", "11", "100", "101", "110", "111", "1010", "1011",
        "1100", "1101", "1110", "10101", "11010", "11011", "11100", "111001",
        "1110011", "11100111"}
    assert set(truth_b.names) == expected_names


def test_minimized_serialization_shape(truth_b):
    lines = truth_b.serialize().splitlines()
    assert sum(1 for l in lines if l.startswith("state ")) == 20
    assert sum(1 for l in lines if l.startswith("trans ")) == 40
    assert Dfao.deserialize(truth_b.serialize()) == truth_b


def test_oracle_too_short_for_discovery():
    f = gen_f(40)
    with pytest.raises(OracleTooShort):
        synthesize_msb(f, HORIZON)


# -- cross-validation -----------------------------------------------------------

def test_cross_validate_agrees_with_eval(truth_b, f_main):
    verdict = cross_validate(truth_b, f_main, 4096)
    assert verdict.passed
    for n in range(4097):
        assert truth_b.eval_big(n) == f_main[n]


def test_cross_validate_windows(truth_a, f_main):
    verdict = cross_validate(truth_a, f_main, 2 ** 16)
    assert verdict == vseq.Validation(True, None, 2 ** 16)


def test_cross_validate_finds_least_mismatch(truth_b, f_main):
    rows = [list(r) for r in truth_b.transitions]
    s = truth_b.names.index("101")
    rows[s][0] = truth_b.names.index("11011")  # misroute 1010
    broken = Dfao(2, truth_b.initial, rows, truth_b.outputs, SINGLE,
                  truth_b.names)
    verdict = cross_validate(broken, f_main, 2 ** 14)
    assert not verdict.passed
    brute = next(n for n in range(2 ** 14 + 1)
                 if broken.eval_big(n) != f_main[n])
    assert verdict.first_mismatch == brute


def test_cross_validate_monotone(truth_b, f_main):
    assert cross_validate(truth_b, f_main, 2 ** 18).passed
    for bound in (10, 1000, 65536):
        assert cross_validate(truth_b, f_main, bound).passed


def test_cross_validate_needs_coverage(truth_a):
    f = gen_f(100)
    with pytest.raises(OracleTooShort):
        cross_validate(truth_a, f, 100)  # windows need index 101


@pytest.mark.parametrize("kind", [WINDOW, SINGLE])
def test_cross_validate_refuses_oracle_past_0(truth_a, truth_b, kind):
    # a window machine once read the indices below lo as 0 and returned a
    # verdict (first_mismatch=0) where the single-output machine refused
    f = gen_f(2000)
    late = SequenceTable(5, 2000, f.values[5:], "F")
    machine = truth_a if kind == WINDOW else truth_b
    with pytest.raises(ValueError, match="starting at index 0"):
        cross_validate(machine, late, 1000)


def test_certify_refuses_oracle_past_0(truth_a, rules_main):
    # certification once read the window at 0 from a table starting at 5
    # and blamed the correct machine's initial state for the difference
    f = gen_f(2 ** 16 + 2)
    late = SequenceTable(5, f.hi, f.values[5:], "F")
    with pytest.raises(ValueError, match="starting at index 0"):
        certify_transitions(truth_a, late, rules_main, 2, 2 ** 16)


CORRUPT_N_MAX = 3000


def _first_mismatch_by_eval(machine: Dfao, oracle: SequenceTable, n_max: int):
    """The least n in [0, n_max] where machine.eval differs from the
    oracle's output at n (its window, or F(n)), or None."""
    def truth(n):
        return oracle.window4(n) if machine.output_kind == WINDOW else oracle[n]
    return next((n for n in range(n_max + 1)
                 if machine.eval(format(n, "b")) != truth(n)), None)


# the corrupted F(k): the edges, a middle value, and the last F each kind reads
CORRUPT_AT = [0, 1, 2, CORRUPT_N_MAX // 2 + 1, CORRUPT_N_MAX - 1, CORRUPT_N_MAX]


@pytest.mark.parametrize("kind, k", [(WINDOW, k) for k in CORRUPT_AT + [CORRUPT_N_MAX + 1]]
                         + [(SINGLE, k) for k in CORRUPT_AT])
def test_cross_validate_names_the_least_n_reading_a_corrupted_byte(
        truth_a, truth_b, f_main, kind, k):
    # both output kinds run one comparison; the window at n reads F(n-2..n+1)
    n_max = CORRUPT_N_MAX
    machine, hi = (truth_a, n_max + 1) if kind == WINDOW else (truth_b, n_max)
    vals = bytearray(f_main.values[:hi + 1])
    vals[k] = 9  # F takes the values 0-4
    oracle = SequenceTable(0, hi, vals, "F")
    least = max(k - 1, 0) if kind == WINDOW else k
    assert _first_mismatch_by_eval(machine, oracle, n_max) == least
    assert cross_validate(machine, oracle, n_max) == vseq.Validation(False, least, n_max)


@pytest.mark.parametrize("kind", [WINDOW, SINGLE])
def test_cross_validate_takes_an_oracle_of_exactly_the_needed_length(
        truth_a, truth_b, f_main, kind):
    n_max = CORRUPT_N_MAX
    machine, hi = (truth_a, n_max + 1) if kind == WINDOW else (truth_b, n_max)
    exact = SequenceTable(0, hi, f_main.values[:hi + 1], "F")
    assert _first_mismatch_by_eval(machine, exact, n_max) is None
    assert cross_validate(machine, exact, n_max) == vseq.Validation(True, None, n_max)
    short = SequenceTable(0, hi - 1, f_main.values[:hi], "F")
    with pytest.raises(OracleTooShort, match=f"need {hi}"):
        cross_validate(machine, short, n_max)


# -- certification ---------------------------------------------------------------

def test_certify_small_depth(truth_a, f_main, rules_main):
    report = certify_transitions(truth_a, f_main, rules_main, depth=4,
                                 validate_to=2 ** 16)
    assert report.verdict == "pass"
    assert len(report.transitions) == 66
    assert all(t.family_depth == 4 for t in report.transitions)
    assert report.propagation_checked_to == 2 ** 15
    text = report.format()
    assert "OK 100 -1-> 110" in text
    assert "verdict: pass" in text


def test_certify_catches_misrouted_transition(truth_a, f_main, rules_main):
    # 1011 and 11101 carry the same window, so the base check alone cannot
    # tell them apart; the boundary families must
    rows = [list(r) for r in truth_a.transitions]
    s = truth_a.names.index("101")
    assert truth_a.names[rows[s][1]] == "1011"
    rows[s][1] = truth_a.names.index("11101")
    broken = Dfao(2, 0, rows, truth_a.outputs, WINDOW, truth_a.names)
    with pytest.raises(CertificationFailure) as excinfo:
        certify_transitions(broken, f_main, rules_main, depth=4,
                            validate_to=2 ** 16)
    e = excinfo.value
    assert (e.from_name, e.digit, e.to_name) == ("101", 1, "11101")
    assert e.witness != ""


def test_certify_catches_wrong_output(truth_a, f_main, rules_main):
    outs = list(truth_a.outputs)
    outs[3] = (1, 2, 3, 1)
    broken = Dfao(2, 0, truth_a.transitions, outs, WINDOW, truth_a.names)
    with pytest.raises(CertificationFailure):
        certify_transitions(broken, f_main, rules_main, depth=2,
                            validate_to=2 ** 10)


def test_certify_needs_long_oracle(truth_a, f_main, rules_main):
    with pytest.raises(OracleTooShort):
        certify_transitions(truth_a, f_main, rules_main, depth=16,
                            validate_to=2 ** 16)


def test_certify_needs_full_rule_domain(truth_a, f_main):
    sparse = derive_rules(f_main, 4, 8)
    with pytest.raises(CertificationFailure):
        certify_transitions(truth_a, f_main, sparse, depth=2,
                            validate_to=2 ** 10)


def test_certify_rejects_single_kind(truth_b, f_main, rules_main):
    with pytest.raises(CertificationFailure):
        certify_transitions(truth_b, f_main, rules_main, depth=2,
                            validate_to=2 ** 10)


# -- retry wrapper ----------------------------------------------------------------

def _contains_run(k: int, hi: int) -> SequenceTable:
    vals = bytearray(hi + 1)
    needle = "1" * k
    for n in range(hi + 1):
        if needle in bin(n):
            vals[n] = 1
    return SequenceTable(0, hi, vals, f"run{k}")


def test_insufficient_horizon_recovery():
    s3 = _contains_run(3, 4095)
    conjecture = synthesize_msb(s3, 1)
    assert conjecture.state_count == 1
    assert cross_validate(conjecture, s3, 2048).first_mismatch == 6
    machine, verdict = synthesize_validated(s3, 1, 2048)
    assert verdict.passed
    assert machine.state_count == 19
    assert machine.project_output().minimize().state_count == 4
    ok, _ = machine.equivalent(synthesize_msb(s3, 8))
    assert ok


def test_insufficient_horizon_exhausts():
    s10 = _contains_run(10, 2047)
    with pytest.raises(InsufficientHorizon, match=r"n = 1022 .* horizon to 8$"):
        synthesize_validated(s10, 1, 1500)


# -- kernel probe ------------------------------------------------------------------

def test_probe_constant_sequence():
    table = SequenceTable(0, 1000, [5] * 1001, "const")
    report = kernel_probe(table, 2, 5, 16)
    assert [lv.distinct for lv in report.levels] == [1] * 6
    assert report.stabilized


def test_probe_frequency_sequence():
    report = kernel_probe(gen_f(2 ** 18), 2, 8, 256)
    assert [lv.distinct for lv in report.levels] == [5, 7, 11, 15, 17, 18, 18, 18, 18]
    assert report.stabilized
    assert not report.truncated


def test_probe_vdiff_emits_counts():
    # regression constants only; whether the first difference of V is
    # automatic is deliberately left unjudged
    diff = first_difference(gen_v(5000))
    report = kernel_probe(diff, 2, 6, 64)
    assert [lv.distinct for lv in report.levels] == [2, 4, 10, 35, 68, 67, 46]
    assert "no" in report.format().splitlines()[-1]


def test_probe_truncates_on_short_oracle():
    table = SequenceTable(0, 100, [1] * 101, "c")
    report = kernel_probe(table, 2, 30, 4)
    assert report.truncated
    assert len(report.levels) < 31


def test_probe_argument_validation():
    table = SequenceTable(0, 10, [0] * 11, "z")
    with pytest.raises(ValueError):
        kernel_probe(table, 1, 3, 4)
    with pytest.raises(ValueError):
        kernel_probe(table, 2, 3, 0)


def _probe_by_sorting(table, q, depth, prefix_len):
    """The reference kernel_probe: gather every block's bytes and count the
    distinct rows by sorting them, level by level."""
    vals = table.byte_values()
    lo, hi = table.lo, table.hi
    levels = []
    truncated = False
    step = 1
    for e in range(depth + 1):
        block = min(prefix_len, step)
        n0 = -(-lo // step)
        n1 = (hi - block + 1) // step
        if n1 < n0 + 1:
            truncated = True
            break
        base = np.arange(n0, n1 + 1, dtype=np.int64) * step
        rows = np.ascontiguousarray(vals[(base[:, None] + np.arange(block)) - lo])
        distinct = len(np.unique(rows.view(f"V{block}")))
        levels.append(vseq.synthesis.ProbeLevel(e, block, int(n1 - n0 + 1), distinct))
        step *= q
    return ProbeReport(q=q, depth=depth, prefix_len=prefix_len,
                       levels=tuple(levels), truncated=truncated)


@pytest.fixture
def numpy_only(monkeypatch):
    """_oracle._load fails, so kernel_probe runs its numpy passes only."""
    def no_compiler():
        raise FileNotFoundError("no such file: 'cc'")

    monkeypatch.setattr(_oracle, "_load", no_compiler)
    _oracle.library.cache_clear()
    yield
    _oracle.library.cache_clear()


@pytest.fixture
def compiled_joins(monkeypatch):
    """The id dtype of each compiled join kernel_probe runs, in order."""
    if _oracle.library() is None:
        pytest.skip("no C compiler: only the numpy passes run here")
    dtypes = []
    join = _oracle.Oracle.join

    def spy(self, *args):
        ids, distinct = join(self, *args)
        dtypes.append(ids.dtype)
        return ids, distinct

    monkeypatch.setattr(_oracle.Oracle, "join", spy)
    return dtypes


@pytest.fixture(params=["compiled", "numpy"])
def probe_joins(request):
    """compiled_joins, or None under numpy_only."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_only")
        return None
    return request.getfixturevalue("compiled_joins")


def _check_probe_by_sorting(lo, q, prefix):
    rng = np.random.default_rng(1000 * lo + 10 * q + len(prefix))
    prefix_len = q ** 4 if prefix == "power" else 2 * q ** 3 + 5
    cases = [
        # past the level where blocks reach prefix_len
        (50_000, {2: 9, 3: 9, 5: 6}[q]),
        (50_000, 30),   # truncated: the oracle runs out before depth 30
    ]
    for n, depth in cases:
        for alphabet in (2, 5, 256):
            values = rng.integers(0, alphabet, n, dtype=np.uint8)
            # a periodic stretch repeats blocks, so that ids do merge
            values[n // 2:] = np.resize(values[:q ** 3], n - n // 2)
            table = SequenceTable(lo, lo + n - 1, bytearray(values.tobytes()), "r")
            report = kernel_probe(table, q, depth, prefix_len)
            assert report == _probe_by_sorting(table, q, depth, prefix_len)
            assert report.truncated == (depth == 30)


@pytest.mark.parametrize("lo", [0, 1, 5])
@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("prefix", ["power", "other"])
def test_probe_matches_row_sorting(lo, q, prefix):
    _check_probe_by_sorting(lo, q, prefix)  # compiled where a library loads


@pytest.mark.parametrize("lo", [0, 1, 5])
@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("prefix", ["power", "other"])
def test_probe_numpy_matches_row_sorting(lo, q, prefix, numpy_only):
    _check_probe_by_sorting(lo, q, prefix)


U8, U16, U32 = (np.dtype(t) for t in (np.uint8, np.uint16, np.uint32))


def test_probe_f_at_q3_joins_compiled(compiled_joins):
    # level 0's ids lie below F's largest value + 1 = 5, so level 1 joins
    # 5^3 tuples, not 256^3, and no join falls back to numpy (level 3 cuts
    # its blocks to the 9 entries of level 2's)
    table = gen_f(3 ** 11)
    report = kernel_probe(table, 3, 3, 9)
    assert report == _probe_by_sorting(table, 3, 3, 9)
    assert len(compiled_joins) == len(report.levels) - 1 == 3


@pytest.mark.parametrize("alphabet, q, n, depth, joins", [
    # level 1: about 9,400 of the 65,536 byte pairs, so its ids pass 255;
    # level 2's space of about 9,400^2 tuples passes count + 2^16: numpy
    (256, 2, 20_000, 2, [U16]),
    # level 1: every byte pair, 65,536 ids, so they pass 65,535
    (256, 2, 2 ** 21, 1, [U32]),
    # level 2: all 256 tuples of 4 values, one id past a byte; level 3
    # joins level 2's 12,500 ids, too few to load the library for: numpy
    (4, 2, 50_000, 4, [U8, U16]),
    # level 0's ids lie below 2, not 256, so level 1's 2^3 tuples join
    # compiled, and so do level 2's 8^3; level 3 joins level 2's 5,555
    # ids: numpy
    (2, 3, 50_000, 3, [U8, U16]),
    # all 256 byte values: level 1's 256^3 tuples pass count + 2^16, so it
    # falls back to numpy although a library loads, and so does every level
    # after it
    (256, 3, 50_000, 3, []),
], ids=["ids-past-255", "ids-past-65535", "256-ids", "numpy-then-compiled",
        "256-values-at-q3"])
def test_probe_ids_widen_and_fall_back(alphabet, q, n, depth, joins, probe_joins):
    values = np.random.default_rng(n + q).integers(0, alphabet, n, dtype=np.uint8)
    table = SequenceTable(0, n - 1, bytearray(values.tobytes()), "r")
    report = kernel_probe(table, q, depth, q ** depth)
    assert report == _probe_by_sorting(table, q, depth, q ** depth)
    if probe_joins is not None:
        assert probe_joins == joins
