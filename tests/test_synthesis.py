import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vseq
from vseq import _oracle
from vseq import (SINGLE, WINDOW, CertificationFailure, Dfao,
                  InsufficientHorizon, NonpositiveDivisor, OracleTooShort,
                  ProbeReport,
                  SequenceTable, certify_transitions, count_windows,
                  cross_validate, derive_rules, discover, euclid_div, gen_f,
                  gen_v, first_difference, kernel_probe, shift_bounds,
                  synthesize_msb, synthesize_validated)
from vseq import sequences, synthesis
from vseq.sequences import COMPILED_FROM
from vseq.synthesis import CHECK_CHUNK, _block_ids, _kernel_node, _state_chunks, _states_upto

from conftest import HORIZON, VALIDATE_TO

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
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        synthesize_validated(f, 0, 64)
    with pytest.raises(ValueError, match="validate_to must be >= 2"):
        synthesize_validated(f, 24, 1)


# -- signatures ----------------------------------------------------------------

def _padded(f: SequenceTable) -> bytes:
    return bytes(2) + bytes(f.values)  # padded[i + 2] == F(i)


def _signature(f: SequenceTable, m: int, horizon: int) -> tuple[int, ...]:
    return _kernel_node(f, _block_ids(f, horizon), "", m).signature


def _assert_ids_number_slices(f: SequenceTable, horizon: int) -> None:
    """The brute-force reference: ids at level L are equal exactly when the
    byte slices padded[m<<L : ((m+1)<<L)+3] are equal, for every m the
    level covers, (m + 1) 2^L <= f.hi."""
    padded = _padded(f)
    for level, ids in enumerate(_block_ids(f, horizon)):
        assert len(ids) == f.hi >> level
        id_of = {}
        for m in range(len(ids)):
            sl = padded[m << level:((m + 1) << level) + 3]
            assert id_of.setdefault(sl, int(ids[m])) == int(ids[m]), (m, level)
        assert len(set(id_of.values())) == len(id_of), level


def test_signature_levels_and_padding():
    f = gen_f(1000)
    levels = _block_ids(f, 4)
    sig0 = _signature(f, 0, 4)
    assert len(sig0) == 5  # levels 0..4
    # the window at 0, padded below index 0, occurs nowhere else
    assert _kernel_node(f, levels, "", 0).window == (0, 0, 0, 4)
    assert np.count_nonzero(levels[0] == sig0[0]) == 1
    assert levels[2].size == 1000 // 4  # level-2 blocks span [4m - 2, 4m + 5]
    sig1 = _signature(f, 1, 30)
    # coverage, not the horizon, limits depth: (1+1)*2^L <= 1000
    assert len(sig1) == 9
    s = _signature(f, 6, 3)
    assert len(s) == 4
    assert _kernel_node(f, levels, "", 6).window == f.window4(6)
    # level 1 of 6: the windows at 12 and 13, F(10..14)
    want = bytes([f[10], f[11], f[12], f[13], f[14]])
    padded = _padded(f)
    same = [m for m in range(levels[1].size) if padded[2 * m:2 * m + 5] == want]
    assert np.flatnonzero(levels[1] == s[1]).tolist() == same


def test_signature_slices_hold_the_extension_windows():
    # level L of value m: F from 2 left of 2^L*m to 1 right of 2^L*(m+1) - 1
    _assert_ids_number_slices(gen_f(3000), 8)
    # both engines of join_ids: the compiled one from COMPILED_FROM ids on
    _assert_ids_number_slices(gen_f(COMPILED_FROM + 5), 3)


def test_signature_oracle_too_short():
    f = gen_f(10)
    with pytest.raises(OracleTooShort):
        _signature(f, 10, 4)


def _reference_signature(padded: bytes, m: int, horizon: int) -> tuple[bytes, ...]:
    """Per-level byte slices of the extensions of a value-m string: level L
    is padded[m<<L : ((m+1)<<L)+3] while (m + 1) 2^L <= the oracle's end."""
    hi = len(padded) - 3
    out = []
    for level in range(horizon + 1):
        if (m + 1) << level > hi:
            break
        out.append(padded[m << level:((m + 1) << level) + 3])
    if not out:
        raise OracleTooShort(
            f"oracle ends at {hi}; cannot form a level-0 signature for value {m}")
    return tuple(out)


def _reference_discover(oracle: SequenceTable, horizon: int):
    """Discovery by byte-slice signatures, as it ran before the block ids;
    nodes as (rep, value, window)."""
    padded = oracle.window_bytes(0, oracle.hi - 1)
    nodes = [("", 0, _reference_signature(padded, 0, horizon))]
    trans = []
    queue = [0]
    head = 0
    while head < len(queue):
        s = queue[head]
        head += 1
        row = []
        for d in (0, 1):
            c = nodes[s][1] * 2 + d
            cs = _reference_signature(padded, c, horizon)
            tgt = None
            for j, node in enumerate(nodes):
                k = min(len(cs), len(node[2]))
                if cs[:k] == node[2][:k]:
                    tgt = j
                    break
            if tgt is None:
                nodes.append((nodes[s][0] + str(d), c, cs))
                tgt = len(nodes) - 1
                queue.append(tgt)
            row.append(tgt)
        trans.append(row)
    return [(rep, value, tuple(sig[0])) for rep, value, sig in nodes], trans


@pytest.fixture(scope="module")
def f_long() -> SequenceTable:
    return gen_f(2 ** 15 + 64)


def _discovery(discover_fn, f_long: SequenceTable, hi: int, horizon: int):
    f = SequenceTable(0, hi, f_long.values[:hi + 1], "F")
    try:
        nodes, trans = discover_fn(f, horizon)
    except OracleTooShort as e:
        return str(e)
    if discover_fn is discover:
        nodes = [(n.rep, n.value, n.window) for n in nodes]
    return nodes, trans


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(2, 300), st.integers(2, 2 ** 15 + 64)),
       st.integers(1, 48))
# level 0 joins hi + 3 window bytes, level 1 hi ids: each on both sides of
# the compiled join's threshold
@example(COMPILED_FROM - 4, 24)
@example(COMPILED_FROM - 3, 24)
@example(COMPILED_FROM - 1, 2)
@example(COMPILED_FROM, 2)
@example(2 ** 15 + 64, 48)
@example(2, 1)
@example(40, 24)
def test_discover_matches_byte_signatures(f_long, hi, horizon):
    assert (_discovery(discover, f_long, hi, horizon)
            == _discovery(_reference_discover, f_long, hi, horizon))


@pytest.mark.parametrize("keep", [1, 7, 64, 1024])
def test_discover_with_levels_cut_matches_byte_signatures(f_long, monkeypatch, keep):
    # F's access values reach 927: levels cut below that are cut too soon,
    # and discovery starts again with whole ones
    monkeypatch.setattr(synthesis, "KEEP_IDS", keep)
    for hi, horizon in ((2 ** 15 + 64, 24), (300, 5), (COMPILED_FROM + 5, 3)):
        assert (_discovery(discover, f_long, hi, horizon)
                == _discovery(_reference_discover, f_long, hi, horizon)), (hi, horizon)


def test_block_ids_cut_keep_the_whole_levels_ids(f_long):
    for hi in (300, 2 ** 15 + 64):
        f = SequenceTable(0, hi, f_long.values[:hi + 1], "F")
        whole, cut = _block_ids(f, 24), _block_ids(f, 24, 100)
        assert len(cut) == len(whole)
        for level, (w, c) in enumerate(zip(whole, cut)):
            assert len(w) == hi >> level and len(c) == min(100, hi >> level)
            a, b = list(w[:100]), list(c)  # equal ids at the same m
            assert len(set(a)) == len(set(b)) == len(set(zip(a, b))), level


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
    oracle's output at n (its window, or F(n)), or None.  The numeral of
    n = 0 is the empty one, as in cross_validate."""
    def truth(n):
        return oracle.window4(n) if machine.output_kind == WINDOW else oracle[n]
    return next((n for n in range(n_max + 1)
                 if machine.eval(format(n, "b") if n else "") != truth(n)), None)


def test_first_mismatch_by_eval_reads_0_as_the_empty_numeral(truth_a, f_main):
    # with eps -0-> redirected to the state of "1", the numeral "0" reaches
    # another window; no numeral of n >= 1 reads that transition, so the
    # machine still computes F, and the walk agrees with cross_validate
    rows = [list(r) for r in truth_a.transitions]
    rows[truth_a.initial][0] = rows[truth_a.initial][1]
    m = Dfao(2, truth_a.initial, rows, truth_a.outputs, WINDOW, truth_a.names)
    assert m.eval("0") != f_main.window4(0)
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


# the edges of cross_validate's chunks: the last n of the first, the first
# of the second, the last of the second, and n_max, past the last full one
CHUNK_N_MAX = 2 * CHECK_CHUNK + 17


@pytest.mark.parametrize("least", [CHECK_CHUNK - 1, CHECK_CHUNK, 2 * CHECK_CHUNK - 1,
                                   CHUNK_N_MAX])
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


@pytest.mark.parametrize("chunk", [100, 1000, CHECK_CHUNK])
@pytest.mark.parametrize("q", [2, 3, 5, 17])
def test_state_chunks_are_the_batch_walk(monkeypatch, q, chunk):
    # digit 0 moves the initial state, so the numerals shorter than a stride
    # must not be read with leading zeros; 100 and 1000 are multiples of no
    # stride width, and 100 is shorter than most
    monkeypatch.setattr(synthesis, "CHECK_CHUNK", chunk)
    rng = random.Random(q)
    rows = [[rng.randrange(7) for _ in range(q)] for _ in range(7)]
    rows[0][0] = 1
    m = Dfao(q, 0, rows, [0] * 7, SINGLE)
    width = q ** max(e for e in range(1, 9) if q ** e <= 256)  # the stride's
    for n_max in (0, 1, width - 1, width, chunk - 1, chunk, 3 * chunk + 5,
                  width * width + 1):
        chunks = list(_state_chunks(m, n_max))
        assert [lo for lo, _ in chunks] == list(range(0, n_max + 1, chunk))
        got = np.concatenate([states for _, states in chunks])
        assert got.tolist() == _states_upto(m, n_max).tolist()


# -- the compiled cross-validation pass against the numpy pass -----------------

@pytest.fixture
def on_both(monkeypatch):
    """cross_validate(machine, oracle, n_max) forced through _oracle.library
    onto each engine: the compiled pass (at any n_max, COMPILED_FROM
    lowered to 0), then the numpy pass; and the number of compiled passes
    the first call ran."""
    lib = _oracle.library()
    if lib is None:
        pytest.skip("no C compiler: only the numpy pass runs here")
    runs = []
    check = _oracle.Oracle.check

    def spy(self, *args):
        runs.append(args)
        return check(self, *args)

    monkeypatch.setattr(_oracle.Oracle, "check", spy)
    monkeypatch.setattr(sequences, "COMPILED_FROM", 0)

    def run(machine, oracle, n_max):
        runs.clear()
        monkeypatch.setattr(_oracle, "library", lambda: lib)
        compiled = cross_validate(machine, oracle, n_max)
        monkeypatch.setattr(_oracle, "library", lambda: None)
        return compiled, cross_validate(machine, oracle, n_max), len(runs)

    return run


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
def test_compiled_cross_validation_matches_numpy(on_both, truth_a, truth_b, f_main,
                                                 kind, what, n_max):
    # the stride width of base 2 is W = 256: n_max = 255, 256 and 257 end
    # just below, at and past the first row of the stride table
    machine = truth_a if kind == WINDOW else truth_b
    machine, oracle = _corrupted(machine, f_main, what, n_max)
    compiled, numpy_pass, runs = on_both(machine, oracle, n_max)
    assert runs == 1
    assert compiled == numpy_pass
    if what != "transition":  # a misroute may reach a state of the same outputs
        assert compiled.passed == (what == "none")
    if n_max <= 257:
        # state(0) is the initial state: the numeral of 0 is empty
        def truth(n):
            return oracle.window4(n) if kind == WINDOW else oracle[n]
        assert compiled.first_mismatch == next(
            (n for n in range(n_max + 1)
             if machine.outputs[_state_at(machine, n)] != truth(n)), None)


@pytest.mark.parametrize("states, q, runs", [(7, 3, 1), (300, 2, 0)],
                         ids=["base-3", "300-states"])
def test_cross_validation_of_machines_off_the_synthesized_path(on_both, states, q, runs):
    # base 3 walks a stride table of width 3^5 = 243 compiled; 300 states
    # do not fit one byte, so the numpy pass runs on both engines
    rng = random.Random(states)
    rows = [[rng.randrange(states) for _ in range(q)] for _ in range(states)]
    rows[0][0] = 1  # digit 0 moves the initial state
    m = Dfao(q, 0, rows, [rng.randrange(5) for _ in range(states)], SINGLE)
    width = 3 ** 5 if q == 3 else 2 ** 8
    for n_max in (0, 1, 2, width - 1, width, width + 1, 2 ** 16 + 1):
        vals = np.asarray(m.outputs, dtype=np.uint8)[_states_upto(m, n_max)]
        oracle = SequenceTable(0, n_max, bytearray(vals.tobytes()), "S")
        assert on_both(m, oracle, n_max) == (
            vseq.Validation(True, None, n_max), vseq.Validation(True, None, n_max), runs)
        for at in (0, n_max // 2, n_max):
            bad = bytearray(vals.tobytes())
            bad[at] = 9
            oracle = SequenceTable(0, n_max, bad, "S")
            compiled, numpy_pass, ran = on_both(m, oracle, n_max)
            assert compiled == numpy_pass == vseq.Validation(False, at, n_max)
            assert ran == runs


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


def test_discover_holds_one_byte_ids(f_main):
    # F has about 28 ids per level, one byte each; the levels were uint16
    # and the window bytes lived through every level: 20 MB.  Whole levels
    # took 8.4 MB; cut below KEEP_IDS, levels 1 and 2 at once, 3.2 MB
    if _oracle.library() is None:
        pytest.skip("no C compiler: the numpy join sizes its codes more widely")
    (nodes, _), peak = _traced_peak(lambda: discover(f_main, HORIZON))
    assert len(nodes) == 33
    assert peak <= 4 * MB, peak / MB


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


# The 33 states are told apart by the base window, 0 or 01 (no two agree
# on all three), so a misrouted transition fails first at one of those; a
# failure first at a longer family needs one oracle byte corrupted, F(at)
# set to 9.  Each message is pinned as a check-by-check loop over
# (s, d, j, family) reports it.
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


@pytest.mark.parametrize("redirect, at, fields, message", FAMILY_FAILURES,
                         ids=["base", "0", "01", "0^2", "0^2 1", "1^2"])
def test_certify_names_the_first_failing_window_pair(truth_a, f_main, rules_main,
                                                     redirect, at, fields, message):
    machine = truth_a
    if redirect is not None:
        rows = [list(r) for r in truth_a.transitions]
        src, d, to = redirect
        rows[truth_a.names.index(src)][d] = truth_a.names.index(to)
        machine = Dfao(2, 0, rows, truth_a.outputs, WINDOW, truth_a.names)
    vals = bytearray(f_main.values[:2 ** 16 + 2])  # what depth 4 and 2^16 read
    if at is not None:
        vals[at] = 9
    oracle = SequenceTable(0, len(vals) - 1, vals, "F")
    with pytest.raises(CertificationFailure) as excinfo:
        certify_transitions(machine, oracle, rules_main, depth=4, validate_to=2 ** 16)
    e = excinfo.value
    assert str(e) == message
    assert (e.from_name, e.digit, e.to_name, e.witness) == fields


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


# -- certification from planned windows -----------------------------------------

@pytest.mark.parametrize("depth, size, past, bound", [(12, 1254, 2, 7593986),
                                                      (16, 1650, 131, 121503746)])
def test_cert_plan_is_what_certification_reads(truth_a, depth, size, past, bound):
    # the benchmark's depth and the default one: all but a few of the
    # windows lie in the validation prefix, F to 2^22 + 2
    plan = synthesis.cert_plan(truth_a, depth)
    assert plan == sorted(set(plan))
    assert (len(plan), sum(n >= VALIDATE_TO + 2 for n in plan)) == (size, past)
    assert synthesis.cert_oracle_bound(truth_a, depth) == plan[-1] + 1 == bound


def _short_certificate(machine, depth=6):
    """The certificate of machine from F to 2^15 + 2 and the windows of its
    plan past it, which reach 474,626 at depth 8 and 118,658 at depth 6."""
    f = gen_f(2 ** 15 + 2)
    rules = derive_rules(f, 4, 2 ** 14)
    oracle = count_windows(f, synthesis.cert_plan(machine, depth))
    return certify_transitions(machine, oracle, rules, depth, 2 ** 15), rules


def test_certificate_records_what_it_read(truth_a):
    depth = 6
    planned, rules = _short_certificate(truth_a, depth)
    plan = synthesis.cert_plan(truth_a, depth)
    flat = certify_transitions(truth_a, gen_f(plan[-1] + 1), rules, depth, 2 ** 15)
    assert (planned.prefix_hi, flat.prefix_hi) == (2 ** 15 + 2, plan[-1] + 1)
    assert planned.windows_read == flat.windows_read == len(plan)
    assert planned.pairs_compared == flat.pairs_compared == 33 + 66 * (1 + 3 * depth)
    assert planned.format() == flat.format()
    assert dataclasses.replace(planned, prefix_hi=flat.prefix_hi) == flat


def test_certificate_from_the_flat_fallback_is_the_same(truth_a, monkeypatch):
    compiled, _ = _short_certificate(truth_a)
    monkeypatch.setattr(sequences, "_compiled", lambda steps: None)
    assert _short_certificate(truth_a)[0] == compiled


@pytest.mark.parametrize("redirect, fields, message",
                         [(r, fields, m) for r, at, fields, m in FAMILY_FAILURES
                          if at is None], ids=["base", "0", "01"])
def test_certify_from_planned_windows_names_the_same_failure(truth_a, redirect, fields,
                                                             message):
    rows = [list(r) for r in truth_a.transitions]
    src, d, to = redirect
    rows[truth_a.names.index(src)][d] = truth_a.names.index(to)
    machine = Dfao(2, 0, rows, truth_a.outputs, WINDOW, truth_a.names)
    with pytest.raises(CertificationFailure) as excinfo:
        _short_certificate(machine, depth=8)
    e = excinfo.value
    assert str(e) == message
    assert (e.from_name, e.digit, e.to_name, e.witness) == fields


def test_certify_refuses_windows_planned_for_another_depth(truth_a, rules_main):
    f = gen_f(2 ** 11 + 2)
    fewer = count_windows(f, synthesis.cert_plan(truth_a, 2))
    with pytest.raises(OracleTooShort, match="oracle ends at 7418"):
        certify_transitions(truth_a, fewer, rules_main, 4, 2 ** 11)
    last = count_windows(f, [synthesis.cert_oracle_bound(truth_a, 4) - 1])
    with pytest.raises(OracleTooShort, match="holds no window"):
        certify_transitions(truth_a, last, rules_main, 4, 2 ** 11)


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
        dtypes.append(np.asarray(ids).dtype)
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
    # joins level 2's 12,500 ids compiled too, as the engine is chosen
    # once, from the table's 50,000 entries; level 4's space of level 3's
    # ids squared passes count + 2^16: numpy
    (4, 2, 50_000, 4, [U8, U16, U16]),
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
