import tracemalloc

import pytest

from vseq import (SINGLE, WINDOW, BadDigit, BadNumeral, Dfao, KindMismatch,
                  NotWindowKind, ParseError, base_digits)


def toggler() -> Dfao:
    # parity of the number of 1-digits
    return Dfao(2, 0, [(0, 1), (1, 0)], [0, 1], SINGLE, ("even", "odd"))


def windowed_pair() -> Dfao:
    return Dfao(2, 0, [(0, 1), (1, 0)],
                [(0, 1, 2, 3), (4, 3, 2, 1)], WINDOW, ("a", "b"))


def test_eval_digit_paths():
    m = toggler()
    assert m.eval("") == 0
    assert m.eval("1") == 1
    assert m.eval("11") == 0
    assert m.eval([1, 0, 1]) == 0
    assert m.eval("101") == 0


def test_eval_rejects_bad_digits():
    m = toggler()
    with pytest.raises(BadDigit):
        m.eval("12")
    with pytest.raises(BadDigit):
        m.eval([0, 2])
    with pytest.raises(BadDigit):
        m.eval("1x")


def test_eval_big_decimal():
    m = toggler()
    # 6 = 110 has two 1-bits
    assert m.eval_big("6") == 0
    assert m.eval_big(7) == 1
    assert m.eval_big("0") == m.eval("")
    with pytest.raises(BadNumeral):
        m.eval_big("12a")
    with pytest.raises(BadNumeral):
        m.eval_big("")
    with pytest.raises(BadNumeral):
        m.eval_big(-1)
    # any integer through __index__: bools too; floats, None and lists are
    # refused as int() would refuse them as indices
    assert m.eval_big(True) == 1 and m.eval_big(False) == 0
    for bad in (2.0, None, [1]):
        with pytest.raises(TypeError):
            m.eval_big(bad)
    np = pytest.importorskip("numpy")
    # 463 = 111001111 has seven 1-bits
    assert m.eval_big(np.int64(463)) == 1 and m.eval_big(np.uint8(7)) == 1
    assert m.eval_big(np.uint64(2 ** 64 - 1)) == 0
    with pytest.raises(BadNumeral):
        m.eval_big(np.int8(-1))


def test_eval_big_matches_digit_walk():
    m = toggler()
    for n in range(200):
        assert m.eval_big(str(n)) == m.eval(bin(n)[2:] if n else "")


def residues_625() -> Dfao:
    """State n mod 625, output its four base-5 digits: the output pins
    down n mod 625."""
    return Dfao(2, 0, [((2 * s) % 625, (2 * s + 1) % 625) for s in range(625)],
                [(s // 125, s // 25 % 5, s // 5 % 5, s % 5) for s in range(625)],
                WINDOW)


def test_eval_big_past_int_str_limit():
    # CPython converts at most 4300 digits with int(str); these are longer
    m = residues_625()
    repunit = (10 ** 100_000 - 1) // 9
    for text, n in (("1" * 100_000, repunit),
                    ("9" * 100_000, 9 * repunit),
                    ("1" + "0" * 99_999, 10 ** 99_999),
                    ("12345678" * 12_500, 12345678 * ((10 ** 100_000 - 1) // (10 ** 8 - 1)))):
        out = m.eval_big(text)
        assert out == m.eval_big(n) == m.eval(bin(n)[2:])
        assert out == m.outputs[n % 625]


def test_base_digits():
    assert base_digits(0, 2) == []
    assert base_digits(6, 2) == [1, 1, 0]
    assert base_digits(463, 2) == [1, 1, 1, 0, 0, 1, 1, 1, 1]
    assert base_digits(25, 3) == [2, 2, 1]
    n = 10 ** 60 + 12345
    assert int("".join(map(str, base_digits(n, 2))), 2) == n
    with pytest.raises(ValueError):
        base_digits(-1, 2)


def test_validation_rejects_malformed():
    with pytest.raises(ValueError):
        Dfao(2, 0, [(0, 5)], [0], SINGLE)  # target out of range
    with pytest.raises(ValueError):
        Dfao(2, 3, [(0, 0)], [0], SINGLE)  # initial out of range
    with pytest.raises(ValueError):
        Dfao(2, 0, [(0,)], [0], SINGLE)  # not total
    with pytest.raises(ValueError):
        Dfao(2, 0, [(0, 0)], [9], SINGLE)  # output outside 0..4
    with pytest.raises(ValueError):
        Dfao(2, 0, [(0, 0)], [(1, 2, 3)], WINDOW)  # window must have 4 entries
    with pytest.raises(ValueError):
        Dfao(1, 0, [(0,)], [0], SINGLE)  # alphabet too small


def test_projection():
    m = windowed_pair()
    p = m.project_output()
    assert p.output_kind == SINGLE
    assert p.outputs == (2, 2)
    assert p.transitions == m.transitions
    with pytest.raises(NotWindowKind):
        p.project_output()


def test_minimize_merges_equal_behavior():
    # states 1 and 2 have the same output and the same successors
    m = Dfao(2, 0,
             [(1, 2), (0, 1), (0, 1)],
             [5 % 5, 1, 1], SINGLE)
    mm = m.minimize()
    assert mm.state_count == 2
    ok, _ = mm.equivalent(m)
    assert ok


def test_minimize_idempotent_and_named():
    m = windowed_pair().project_output()
    mm = m.minimize()
    assert mm.minimize() == mm
    assert mm.names[0] == "eps"


def test_minimize_drops_unreachable():
    m = Dfao(2, 0, [(0, 0), (1, 1)], [0, 1], SINGLE)
    assert m.minimize().state_count == 1


def test_equivalent_reflexive():
    m = toggler()
    assert m.equivalent(m) == (True, None)


def test_equivalent_counterexample_is_shortlex_least():
    m1 = toggler()
    # same machine but output of the 'odd' state is wrong
    m2 = Dfao(2, 0, [(0, 1), (1, 0)], [0, 0], SINGLE)
    ok, witness = m1.equivalent(m2)
    assert not ok
    assert witness == "1"
    # this one disagrees first on the two-ones string
    m3 = Dfao(2, 0, [(0, 1), (1, 2), (2, 1)], [0, 1, 1], SINGLE)
    ok, witness = m1.equivalent(m3)
    assert not ok
    assert witness == "11"


def test_equivalent_kind_mismatch():
    with pytest.raises(KindMismatch):
        toggler().equivalent(windowed_pair())
    with pytest.raises(KindMismatch):
        toggler().equivalent(Dfao(3, 0, [(0, 0, 0)], [1], SINGLE))


def test_serialize_round_trip():
    for m in (toggler(), windowed_pair()):
        assert Dfao.deserialize(m.serialize()) == m


def test_serialize_shape():
    text = windowed_pair().serialize()
    lines = text.splitlines()
    assert lines[0] == "dfao 2 2 window"
    assert lines[1] == "initial 0"
    assert lines[2] == "state 0 a 0123"
    assert sum(1 for l in lines if l.startswith("trans ")) == 4


def test_deserialize_ignores_comments():
    text = "# header comment\n" + toggler().serialize() + "# trailing\n"
    assert Dfao.deserialize(text) == toggler()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        Dfao.deserialize("nonsense 1 2 3\n")
    assert e.value.line_no == 1
    good = toggler().serialize()
    with pytest.raises(ParseError):
        Dfao.deserialize(good.replace("state 1", "state 0", 1))  # duplicate id
    with pytest.raises(ParseError):
        Dfao.deserialize(good.replace("trans 1 1 0\n", ""))  # missing transition
    with pytest.raises(ParseError):
        Dfao.deserialize(good + "bogus line\n")
    with pytest.raises(ParseError):
        Dfao.deserialize("dfao 1 2 window\ninitial 0\nstate 0 x 12\n"
                         "trans 0 0 0\ntrans 0 1 0\n")  # short window output
    # ASCII digits only: '²' passes str.isdigit(), '٠' and '١٢٣٤' even int()
    for bad in (good.replace("initial 0", "initial \u00b2"),
                good.replace("state 0 even 0", "state 0 even \u0660"),
                windowed_pair().serialize().replace("0123", "\u0661\u0662\u0663\u0664")):
        with pytest.raises(ParseError):
            Dfao.deserialize(bad)


def test_state_ids_are_checked_without_allocating_by_the_header():
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="expected state ids 0..999999"):
            Dfao.deserialize("dfao 1000000 2 single\ninitial 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # as many ids as the header declares, one of them out of range
    two = toggler().serialize().replace("state 1", "state 2", 1)
    with pytest.raises(ParseError, match="expected state ids 0..1"):
        Dfao.deserialize(two)


def test_dot_output():
    one = Dfao(2, 0, [(0, 0)], [3], SINGLE, ("only",))
    dot = one.to_dot()
    assert dot == one.to_dot()
    assert dot.count('"only" -> "only"') == 2
    assert '"only" [label="only/3"];' in dot
    two = windowed_pair()
    edge_lines = [l for l in two.to_dot().splitlines() if "->" in l and "label=" in l]
    assert len(edge_lines) == 2 * two.state_count
