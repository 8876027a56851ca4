import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vseq
import vseq.cli
from vseq import _oracle
from vseq import (SINGLE, WINDOW, CertificationFailure, Dfao,
                  NonpositiveDivisor, OracleTooShort, ProbeReport,
                  SequenceTable, certify_transitions,
                  cross_validate, derive_rules, discover, euclid_div, gen_f,
                  gen_v, first_difference, kernel_probe, shift_bounds,
                  synthesize_msb, synthesize_validated)
from vseq import synthesis
from vseq.synthesis import _states_upto, _walk

from conftest import VALIDATE_TO, on_each_engine, window4

MB = 2 ** 20


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
    with pytest.raises(ValueError, match="validate_to must be >= 2"):
        synthesize_validated(f, 1)


# -- the rule walk ----------------------------------------------------------------

# sha256 of synthesize_msb().serialize() and of its
# project_output().minimize().serialize(): the 33-state window automaton and
# the committed 20-state file
WINDOW_SHA256 = "d3787c2d4e4b8a7a13e3b124b0005e1ff941b6847c0887440c36f93b80fa1543"
SINGLE_SHA256 = "5cd2579f947bc86cf09a08573a1353134ad0167751f656baccc4676cfa2250e6"


def _sha256(m: Dfao) -> str:
    return hashlib.sha256(m.serialize().encode()).hexdigest()


def test_synthesized_machines_are_pinned():
    m = synthesize_msb()
    assert _sha256(m) == WINDOW_SHA256
    assert _sha256(m.project_output().minimize()) == SINGLE_SHA256


def test_walk_reads_f_to_465():
    # the last window the walk needs first occurs at a = 232, whose images
    # are F(464) and F(465)
    keys, walked = _walk()
    assert len(keys) == 69 and sum(isinstance(k, int) for k in keys) == 6
    assert _sha256(walked.minimize()) == WINDOW_SHA256


def test_walk_f_is_the_least_f_whose_scan_realizes_every_window(f_main):
    # F to 463 scans a to 231 and misses the window first seen at 232; F to
    # 465 realizes every window the rules map to a = 2^20, the rule domain
    assert synthesis.WALK_F == 465
    assert len(derive_rules(gen_f(463), 4, 231)) == 23
    walked = derive_rules(gen_f(465), 4, 232)
    assert len(walked) == 24
    assert walked.domain == derive_rules(f_main, 4, 2 ** 20).domain


def test_discover_counts_its_own_f(monkeypatch):
    # the walk counts F to WALK_F itself, never the command's F
    counted = []
    count = synthesis.gen_f
    monkeypatch.setattr(synthesis, "gen_f", lambda n: counted.append(n) or count(n))

    def no_oracle(n):
        raise AssertionError(f"vseq.cli.gen_f({n}) was called")

    monkeypatch.setattr(vseq.cli, "gen_f", no_oracle)
    keys, m = discover()
    assert counted == [465]
    assert len(keys) == 33 and _sha256(m) == WINDOW_SHA256


def _access_value(name: str) -> int:
    return 0 if name == "eps" else int(name, 2)


def test_walk_keys_are_numerals_then_x(f_main):
    # the numeral n below 6, else X(n) = F(n-4..n+2)
    keys, m = discover()
    assert len(keys) == m.state_count
    for name, key in zip(m.names, keys):
        n = _access_value(name)
        want = n if n < 6 else bytes(f_main.values[n - 4:n + 3])
        assert key == want, name
    assert len(set(keys)) == len(keys)


def test_discover_hands_back_the_machine_synthesize_msb_returns():
    assert discover()[1] == synthesize_msb()


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
            assert truth_a.eval(w) == window4(f_main, bits)


def test_synthesis_deterministic(truth_a):
    again = synthesize_msb()
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
    _, m = discover()
    assert m.state_count == 33
    for name, window in zip(m.names, m.outputs):
        assert window == window4(f_main, _access_value(name)), name


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


@pytest.mark.parametrize("kind", [WINDOW, SINGLE])
def test_cross_validate_refuses_a_negative_bound(truth_a, truth_b, kind):
    # a bound of -1 would compare no n and pass
    machine, f = (truth_a if kind == WINDOW else truth_b), gen_f(100)
    with pytest.raises(ValueError, match="n_max >= 0, got -1"):
        cross_validate(machine, f, -1)


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


def test_certify_refuses_oracle_past_0(truth_a):
    # certification once read the window at 0 from a table starting at 5
    # and blamed the correct machine's initial state for the difference
    f = gen_f(2 ** 16 + 2)
    late = SequenceTable(5, f.hi, f.values[5:], "F")
    with pytest.raises(ValueError, match="starting at index 0"):
        certify_transitions(truth_a, late, 2, 2 ** 16)


CORRUPT_N_MAX = 3000


def _first_mismatch_by_eval(machine: Dfao, oracle: SequenceTable, n_max: int):
    """The least n in [0, n_max] where machine.eval differs from the
    oracle's output at n (its window, or F(n)), or None.  The numeral of
    n = 0 is the empty one, as in cross_validate."""
    def truth(n):
        return window4(oracle, n) if machine.output_kind == WINDOW else oracle[n]
    return next((n for n in range(n_max + 1)
                 if machine.eval(format(n, "b") if n else "") != truth(n)), None)


def test_first_mismatch_by_eval_reads_0_as_the_empty_numeral(truth_a, f_main):
    # with eps -0-> redirected to the state of "1", the numeral "0" reaches
    # another window; no numeral of n >= 1 reads that transition, so the
    # machine still computes F, and the walk agrees with cross_validate
    rows = [list(r) for r in truth_a.transitions]
    rows[truth_a.initial][0] = rows[truth_a.initial][1]
    m = Dfao(2, truth_a.initial, rows, truth_a.outputs, WINDOW, truth_a.names)
    assert m.eval("0") != window4(f_main, 0)
    for n_max in (0, CORRUPT_N_MAX):
        assert _first_mismatch_by_eval(m, f_main, n_max) is None
        assert cross_validate(m, f_main, n_max) == vseq.Validation(True, None, n_max)


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


# n on both sides of 2^16, just below 2^17, and n_max itself
CHUNK = 2 ** 16
CHUNK_N_MAX = 2 * CHUNK + 17


@pytest.mark.parametrize("least", [CHUNK - 1, CHUNK, 2 * CHUNK - 1, CHUNK_N_MAX])
@pytest.mark.parametrize("kind", [WINDOW, SINGLE])
def test_cross_validate_names_the_least_mismatch_at_chunk_edges(
        truth_a, truth_b, f_main, kind, least):
    n_max = CHUNK_N_MAX
    machine, hi = (truth_a, n_max + 1) if kind == WINDOW else (truth_b, n_max)
    vals = bytearray(f_main.values[:hi + 1])
    # the window at n reads F(n-2..n+1), so F(least + 1) is first read at
    # least; a second corrupted byte, at the end, must not hide the first
    vals[least + 1 if kind == WINDOW else least] = vals[hi] = 9
    oracle = SequenceTable(0, hi, vals, "F")
    assert cross_validate(machine, oracle, n_max) == vseq.Validation(False, least, n_max)
    assert _first_mismatch_by_eval(machine, oracle, least) == least


# -- cross-validation against a reference ----------------------------------------

def _least_mismatch(machine: Dfao, oracle: SequenceTable, n_max: int):
    """The least n in [0, n_max] whose state's output differs from the
    oracle's bytes at n, or None: the outputs of _states_upto(machine,
    n_max), every state held at once, against F(n), or against the window
    F(n-2..n+1), F(-2) = F(-1) = 0, a byte at a time."""
    outs = np.asarray(machine.outputs, dtype=np.uint8)[_states_upto(machine, n_max)]
    f = np.frombuffer(oracle.byte_values(), dtype=np.uint8)
    if machine.output_kind == WINDOW:
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([np.zeros(2, np.uint8), f]), 4)
        bad = (outs != windows[:n_max + 1]).any(axis=1)
    else:
        bad = outs != f[:n_max + 1]
    return int(bad.argmax()) if bad.any() else None


def _state_at(machine: Dfao, n: int) -> int:
    return machine.walk(vseq.automaton.base_digits(n, machine.alphabet_size))


def _corrupted(machine: Dfao, f: SequenceTable, what: str, n_max: int):
    """The machine and an oracle of exactly the length n_max needs, one of
    them corrupted: the output of state(n_max), the transition that ends
    the numeral of n_max, or the oracle byte F((n_max + 1) // 2)."""
    reach = 1 if machine.output_kind == WINDOW else 0
    vals = bytearray(f.values[:n_max + reach + 1])
    rows = [list(r) for r in machine.transitions]
    outs = list(machine.outputs)
    if what == "output":
        s = _state_at(machine, n_max)
        outs[s] = (tuple((x + 1) % 5 for x in outs[s]) if machine.output_kind == WINDOW
                   else (outs[s] + 1) % 5)
    elif what == "transition":
        s = _state_at(machine, n_max // 2)
        rows[s][n_max % 2] = (rows[s][n_max % 2] + 1) % machine.state_count
    elif what == "oracle":
        vals[(n_max + 1) // 2] = 9  # F takes the values 0-4
    machine = Dfao(machine.alphabet_size, machine.initial, rows, outs,
                   machine.output_kind, machine.names)
    return machine, SequenceTable(0, len(vals) - 1, vals, "F")


@pytest.mark.parametrize("n_max", [0, 1, 2, 255, 256, 257, 2 ** 16 - 1, 2 ** 16 + 1,
                                   VALIDATE_TO])
@pytest.mark.parametrize("what", ["none", "output", "transition", "oracle"])
@pytest.mark.parametrize("kind", [WINDOW, SINGLE])
def test_compiled_cross_validation_matches_numpy(truth_a, truth_b, f_main, kind, what,
                                                 n_max):
    # the stride width of base 2 is W = 256: n_max = 255, 256 and 257 end
    # just below, at and past the first row of the stride table
    machine = truth_a if kind == WINDOW else truth_b
    machine, oracle = _corrupted(machine, f_main, what, n_max)
    verdict = cross_validate(machine, oracle, n_max)
    first = _least_mismatch(machine, oracle, n_max)
    assert verdict == vseq.Validation(first is None, first, n_max)
    if what != "transition":  # a misroute may reach a state of the same outputs
        assert verdict.passed == (what == "none")
    if n_max <= 257:
        # state(0) is the initial state: the numeral of 0 is empty
        def truth(n):
            return window4(oracle, n) if kind == WINDOW else oracle[n]
        assert verdict.first_mismatch == next(
            (n for n in range(n_max + 1)
             if machine.outputs[_state_at(machine, n)] != truth(n)), None)


@pytest.mark.parametrize("states, q", [(7, 3), (300, 2), (5, 17)],
                         ids=["base-3", "300-states", "base-17"])
def test_cross_validation_of_machines_off_the_synthesized_path(states, q):
    # base 3 walks a stride table of width 3^5 = 243, base 17 one of width
    # 17, a digit a row; 300 states do not fit one byte, so the stride
    # table and the states are two bytes each
    rng = random.Random(states)
    rows = [[rng.randrange(states) for _ in range(q)] for _ in range(states)]
    rows[0][0] = 1  # digit 0 moves the initial state
    m = Dfao(q, 0, rows, [rng.randrange(5) for _ in range(states)], SINGLE)
    width = {2: 2 ** 8, 3: 3 ** 5, 17: 17}[q]
    assert len(m.stride_table) == width * states
    for n_max in (0, 1, 2, width - 1, width, width + 1, 2 ** 16 + 1):
        vals = np.asarray(m.outputs, dtype=np.uint8)[_states_upto(m, n_max)]
        oracle = SequenceTable(0, n_max, bytearray(vals.tobytes()), "S")
        assert cross_validate(m, oracle, n_max) == vseq.Validation(True, None, n_max)
        for at in (0, n_max // 2, n_max):
            bad = bytearray(vals.tobytes())
            bad[at] = 9
            oracle = SequenceTable(0, n_max, bad, "S")
            assert cross_validate(m, oracle, n_max) == vseq.Validation(False, at, n_max)


def _traced_peak(call) -> tuple[object, int]:
    """call()'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cross_validate_holds_chunks_not_the_range(truth_a, truth_b, f_main):
    # the whole-range comparison held a state and an output per n: 24 MB
    for machine in (truth_a, truth_b):
        verdict, peak = _traced_peak(lambda: cross_validate(machine, f_main, VALIDATE_TO))
        assert verdict.passed
        assert peak <= 6 * MB, peak / MB


def test_discover_walk_holds_kilobytes():
    # signature discovery held its block ids, 3.2 MB at 2^22; the walk holds
    # its own F to 465, one rule scan of it, its 69 states and 24 images
    (keys, _), peak = _traced_peak(discover)
    assert len(keys) == 33
    assert peak <= 256 * 1024, peak / 1024


# -- certification ---------------------------------------------------------------

def test_certify_small_depth(truth_a, f_main):
    report = certify_transitions(truth_a, f_main, depth=4, validate_to=2 ** 16)
    assert report.verdict == "pass"
    assert len(report.transitions) == 66
    assert all(t.family_depth == 4 for t in report.transitions)
    assert report.propagation_checked_to == 2 ** 15
    text = report.format()
    assert "OK 100 -1-> 110" in text
    assert "verdict: pass" in text


def test_certify_catches_misrouted_transition(truth_a, f_main):
    # 1011 and 11101 carry the same window, so the base check alone cannot
    # tell them apart; the boundary families must
    rows = [list(r) for r in truth_a.transitions]
    s = truth_a.names.index("101")
    assert truth_a.names[rows[s][1]] == "1011"
    rows[s][1] = truth_a.names.index("11101")
    broken = Dfao(2, 0, rows, truth_a.outputs, WINDOW, truth_a.names)
    with pytest.raises(CertificationFailure) as excinfo:
        certify_transitions(broken, f_main, depth=4, validate_to=2 ** 16)
    e = excinfo.value
    assert (e.from_name, e.digit, e.to_name) == ("101", 1, "11101")
    assert e.witness != ""


# The 33 states are told apart by the base window, 0 or 01 (no two agree
# on all three), so a misrouted transition fails first at one of those; a
# failure first at a longer family needs one oracle byte corrupted, F(at)
# set to 9.  Each message is pinned, at depth 4, as a check-by-check loop
# over (s, d, j, family) reports it.
FAMILY_FAILURES = [
    (("101", 1, "100"), None, ("101", 1, "100", ""),
     "base windows differ at 101 -1-> 100 witness=''"),
    (("101", 0, "11100"), None, ("101", 0, "11100", "0"),
     "family windows differ at 101 -0-> 11100 witness='0'"),
    (("100", 0, "1110"), None, ("100", 0, "1110", "01"),
     "family windows differ at 100 -0-> 1110 witness='01'"),
    (None, 1854, ("11101000", 0, "1110100", "00"),
     "family windows differ at 11101000 -0-> 1110100 witness='00'"),
    (None, 7409, ("111001111", 0, "111010", "001"),
     "family windows differ at 111001111 -0-> 111010 witness='001'"),
    (None, 3707, ("111001111", 0, "111010", "11"),
     "family windows differ at 111001111 -0-> 111010 witness='11'"),
]


# certificates given F to 2^15 + 2, validate_to = 2^15: every window of
# depth 4 lies in that prefix, and depth 8's reach 474,626
SHORT = 2 ** 15


def _short_certificate(machine: Dfao, depth: int, hi: int = SHORT + 2,
                       at: int | None = None):
    """certify_transitions of machine at depth, given F to hi, with F(at)
    set to 9 if at is given."""
    f = gen_f(hi)
    if at is not None:
        vals = bytearray(f.values)
        vals[at] = 9
        f = SequenceTable(0, hi, vals, "F")
    return certify_transitions(machine, f, depth, SHORT)


def _mutant(truth_a: Dfao, redirect) -> Dfao:
    """truth_a with the transition (src, d) redirected to state ``to``."""
    if redirect is None:
        return truth_a
    rows = [list(r) for r in truth_a.transitions]
    src, d, to = redirect
    rows[truth_a.names.index(src)][d] = truth_a.names.index(to)
    return Dfao(2, 0, rows, truth_a.outputs, WINDOW, truth_a.names)


def _failure(call) -> tuple:
    """The message and the fields of the CertificationFailure call raises."""
    with pytest.raises(CertificationFailure) as excinfo:
        call()
    e = excinfo.value
    return str(e), e.from_name, e.digit, e.to_name, e.witness


FAMILY_IDS = ["base", "0", "01", "0^2", "0^2 1", "1^2"]


@pytest.mark.parametrize("redirect, at, fields, message", FAMILY_FAILURES,
                         ids=FAMILY_IDS)
def test_certify_names_the_first_failing_window_pair(truth_a, redirect, at, fields,
                                                     message):
    machine = _mutant(truth_a, redirect)
    assert _failure(lambda: _short_certificate(machine, 4, at=at)) == (message, *fields)


def test_certify_catches_wrong_output(truth_a, f_main):
    outs = list(truth_a.outputs)
    outs[3] = (1, 2, 3, 1)
    broken = Dfao(2, 0, truth_a.transitions, outs, WINDOW, truth_a.names)
    with pytest.raises(CertificationFailure):
        certify_transitions(broken, f_main, depth=2, validate_to=2 ** 10)


def test_certify_needs_the_rule_propagations_prefix(truth_a):
    # the planned windows are counted on past any prefix; the propagation
    # to a = validate_to / 2 reads F to 2 a + 1 from the prefix itself
    with pytest.raises(OracleTooShort, match="rule propagation to 32768 needs 65537"):
        certify_transitions(truth_a, gen_f(2 ** 16), depth=2, validate_to=2 ** 16)


def test_certify_needs_full_rule_domain(truth_a, f_main, monkeypatch):
    # a window first seen past the rule domain fails at its least a
    monkeypatch.setattr(synthesis, "RULES_TO", 8)
    message, *_, witness = _failure(
        lambda: certify_transitions(truth_a, f_main, depth=2, validate_to=2 ** 10))
    assert message == ("window (2, 2, 1, 3) at a = 10 outside the rule domain "
                       "witness='10'")
    assert witness == "10"


def test_certify_catches_a_doubling_rule_conflict(truth_a):
    # F(60001) = F(2a + 1) at a = 30000, past every planned window (the last
    # is 7417 at depth 2), so only the rule propagation reads it
    assert synthesis.cert_plan(truth_a, 2)[-1] == 7417
    f = gen_f(2 ** 16 + 2)
    vals = bytearray(f.values)
    assert vals[60001] == 2
    vals[60001] = 1
    bad = SequenceTable(0, f.hi, vals, "F")
    message, *_, witness = _failure(
        lambda: certify_transitions(truth_a, bad, depth=2, validate_to=2 ** 16))
    assert message == ("doubling rules disagree with the oracle at a = 30000 "
                       "witness='30000'")
    assert witness == "30000"


def test_certify_rejects_single_kind(truth_b, f_main):
    with pytest.raises(CertificationFailure):
        certify_transitions(truth_b, f_main, depth=2, validate_to=2 ** 10)


# -- certification from planned windows -----------------------------------------

@pytest.mark.parametrize("depth, size, past, bound", [(12, 1254, 2, 7593986),
                                                      (16, 1650, 131, 121503746)])
def test_cert_plan_is_what_certification_reads(truth_a, depth, size, past, bound):
    # the benchmark's depth and the default one: all but a few of the
    # windows lie in the validation prefix, F to 2^22 + 2
    plan = synthesis.cert_plan(truth_a, depth)
    assert plan == sorted(set(plan))
    assert (len(plan), sum(n >= VALIDATE_TO + 2 for n in plan)) == (size, past)
    assert plan[-1] + 1 == bound


def test_certificate_records_what_it_read(truth_a):
    # from F to 2^15 + 2, counting on to the plan's end, and from a flat F
    # to the plan's end: the same certificate, bar the prefix given
    depth = 6
    plan = synthesis.cert_plan(truth_a, depth)
    planned = _short_certificate(truth_a, depth)
    flat = _short_certificate(truth_a, depth, plan[-1] + 1)
    assert (planned.prefix_hi, flat.prefix_hi) == (2 ** 15 + 2, plan[-1] + 1)
    assert planned.windows_read == flat.windows_read == len(plan)
    assert planned.pairs_compared == flat.pairs_compared == 33 + 66 * (1 + 3 * depth)
    assert planned.format() == flat.format()
    assert planned._replace(prefix_hi=flat.prefix_hi) == flat


def test_certificate_from_the_flat_fallback_is_the_same(truth_a, monkeypatch):
    compiled = _short_certificate(truth_a, 6)
    monkeypatch.setattr(_oracle, "library", lambda: None)
    assert _short_certificate(truth_a, 6) == compiled


@pytest.mark.parametrize("redirect, at, fields, message", FAMILY_FAILURES,
                         ids=FAMILY_IDS)
def test_certify_from_planned_windows_names_the_same_failure(truth_a, redirect, at,
                                                             fields, message):
    # at depth 8, from F to 2^15 + 2 counting on, and from a flat F to the
    # plan's end: the same failure for each mutant; a misrouted transition
    # fails where it fails at depth 4
    machine = _mutant(truth_a, redirect)
    bound = synthesis.cert_plan(machine, 8)[-1] + 1
    planned = _failure(lambda: _short_certificate(machine, 8, at=at))
    assert planned == _failure(lambda: _short_certificate(machine, 8, bound, at))
    if redirect is not None:
        assert planned == (message, *fields)


# -- validation of the conjecture --------------------------------------------------

def _contains_run(k: int, hi: int) -> SequenceTable:
    vals = bytearray(hi + 1)
    needle = "1" * k
    for n in range(hi + 1):
        if needle in bin(n):
            vals[n] = 1
    return SequenceTable(0, hi, vals, f"run{k}")


def test_insufficient_horizon_exhausts(monkeypatch):
    # the machine is F's, walked from F(0..465), whatever the oracle: on a
    # sequence that is not F, cross-validation fails at the least n whose
    # window differs from F's.  One synthesis, then the verdict
    s10 = _contains_run(10, 1023)
    f = gen_f(1023)
    least = next(n for n in range(1023) if window4(f, n) != window4(s10, n))
    calls = []
    msb = synthesis.synthesize_msb
    monkeypatch.setattr(synthesis, "synthesize_msb", lambda: calls.append(1) or msb())
    with pytest.raises(CertificationFailure,
                       match=rf"^automaton disagrees with the oracle at n = {least} "
                             rf"witness='{least}'$"):
        synthesize_validated(s10, 1022)
    assert calls == [1]


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
    vals = np.asarray(table.byte_values())
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
def python_only(monkeypatch):
    """_oracle._load fails, so kernel_probe runs its plain-Python passes
    only."""
    def no_compiler():
        raise FileNotFoundError("no such file: 'cc'")

    monkeypatch.setattr(_oracle, "_load", no_compiler)
    _oracle.library.cache_clear()
    yield
    _oracle.library.cache_clear()


@pytest.fixture
def compiled_joins(monkeypatch):
    """The id typecode of each compiled join kernel_probe runs, in order."""
    if _oracle.library() is None:
        pytest.skip("no C compiler: only the Python passes run here")
    codes = []
    join = _oracle.Oracle.join

    def spy(self, *args):
        ids, distinct = join(self, *args)
        codes.append(ids.typecode)
        return ids, distinct

    monkeypatch.setattr(_oracle.Oracle, "join", spy)
    return codes


@pytest.fixture(params=["compiled", "python"])
def probe_joins(request):
    """compiled_joins, or None under python_only."""
    if request.param == "python":
        request.getfixturevalue("python_only")
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
def test_probe_numpy_matches_row_sorting(lo, q, prefix, python_only):
    # the plain-Python passes, where no library loads
    _check_probe_by_sorting(lo, q, prefix)


def test_probe_f_at_q3_joins_compiled(compiled_joins):
    # level 0's ids lie below F's largest value + 1 = 5, so level 1 joins
    # 5^3 tuples, not 256^3, through a rank table, and level 3 cuts its
    # blocks to the 9 entries of level 2's
    table = gen_f(3 ** 11)
    report = kernel_probe(table, 3, 3, 9)
    assert report == _probe_by_sorting(table, 3, 3, 9)
    assert len(compiled_joins) == len(report.levels) - 1 == 3


@pytest.mark.parametrize("alphabet, q, n, depth, joins", [
    # level 1, joined from the bytes (level 2's 256^4 tuples pass count +
    # 2^16): about 9,400 of the 65,536 byte pairs, so its ids pass 255;
    # level 2's space of about 9,400^2 tuples passes count + 2^16: hashed
    (256, 2, 20_000, 2, ["H", "H"]),
    # level 1: every byte pair, 65,536 ids, so they pass 65,535
    (256, 2, 2 ** 21, 1, ["I"]),
    # level 3, joined from the bytes, 8 at a time, over a space of 4^8 =
    # 65,536 tuples: about 6,000 of them, past a byte; level 4's space of
    # level 3's ids squared passes count + 2^16: hashed
    (4, 2, 50_000, 4, ["H", "H"]),
    # level 0's ids lie below 2, not 256, so level 2 joins its 2^9 tuples
    # straight from the bytes: all 512, past a byte; level 3 joins level
    # 2's 5,555 ids, hashed
    (2, 3, 50_000, 3, ["H", "H"]),
    # all 256 byte values: level 1's 256^3 tuples pass count + 2^16, so
    # level 0 joins the bytes one at a time (256 ids, past a byte), and
    # every level after it is hashed
    (256, 3, 50_000, 3, ["H", "H", "H", "H"]),
], ids=["ids-past-255", "ids-past-65535", "256-ids", "bytes-then-hashed",
        "256-values-at-q3"])
def test_probe_ids_widen_and_fall_back(alphabet, q, n, depth, joins, probe_joins):
    values = np.random.default_rng(n + q).integers(0, alphabet, n, dtype=np.uint8)
    table = SequenceTable(0, n - 1, bytearray(values.tobytes()), "r")
    report = kernel_probe(table, q, depth, q ** depth)
    assert report == _probe_by_sorting(table, q, depth, q ** depth)
    if probe_joins is not None:
        assert probe_joins == joins


@pytest.mark.parametrize("q, depth, prefix_len", [(3, 10, 2187), (2, 12, 100)],
                         ids=["base-3", "prefix-100"])
def test_probe_of_f_and_v_steps_matches_row_sorting(q, depth, prefix_len):
    # base 3 hashes the joins of ids whose tuples pass count + 2^16, as the
    # CLI's base-3 probes do at every size; a prefix of 100 cuts level 7's
    # blocks of 128 to 100 bytes, joined straight from the bytes and hashed
    n = 3 ** 12 if q == 3 else 2 ** 17
    for table in (gen_f(n), first_difference(n)):
        want = _probe_by_sorting(table, q, depth, prefix_len)
        assert on_each_engine(lambda: kernel_probe(table, q, depth, prefix_len)) == \
            [want] * (1 + (_oracle.library() is not None))


@st.composite
def _probe_tables(draw):
    """A random byte table, half of it periodic so that blocks repeat, and
    kernel_probe's other arguments: level E, the deepest joined from the
    bytes, is 0 (alphabet 256 at q = 3) to 4 (alphabet 2 at q = 2), and the
    depth runs past it.  Some tables hold their largest value only at a
    few bytes near either end, so that the blocks there, which level E's
    may not cover, are new."""
    alphabet = draw(st.sampled_from([2, 4, 5, 256]))
    lo = draw(st.sampled_from([0, 1, 5]))
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    planted = draw(st.booleans())
    values = rng.integers(0, alphabet - planted, n, dtype=np.uint8)
    if draw(st.booleans()):
        values[n // 2:] = np.resize(values[:q ** 3], n - n // 2)
    if planted:
        for at in draw(st.lists(st.integers(0, 12), max_size=2)):
            values[min(at, n - 1)] = alphabet - 1
        for at in draw(st.lists(st.integers(0, 12), max_size=2)):
            values[max(n - 1 - at, 0)] = alphabet - 1
    if draw(st.booleans()):
        prefix_len = q ** draw(st.integers(0, 6))
    else:
        prefix_len = draw(st.integers(1, 200))
    table = SequenceTable(lo, lo + n - 1, bytearray(values.tobytes()), "r")
    return table, q, draw(st.integers(0, 9)), prefix_len


@settings(max_examples=200, deadline=None)
@given(_probe_tables())
# V's two steps, level E = 4, with the one 1 in the blocks that level 4
# leaves out: at lo = 1, before its first block; past its last block
@example((SequenceTable(1, 1000, bytearray(b"\1" + bytes(999)), "r"), 2, 6, 64))
@example((SequenceTable(0, 1000, bytearray(bytes(1000) + b"\1"), "r"), 2, 6, 64))
def test_probe_matches_row_sorting_on_any_table(case):
    want = _probe_by_sorting(*case)
    for got in on_each_engine(lambda: kernel_probe(*case)):
        assert got == want
