"""minimize, equivalent and the text format over random machines, against
reference copies of the two separate breadth-first walks that minimize and
equivalent made before they shared one shortlex walk; and deserialize over
fuzzed text."""

from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from vseq import SINGLE, WINDOW, Dfao, ParseError


def minimize_reference(m: Dfao) -> Dfao:
    """Moore refinement over the states a breadth-first walk reaches, then a
    second breadth-first walk over the classes to number and name them."""
    order = [m.initial]
    seen = {m.initial}
    for s in order:
        for t in m.transitions[s]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    cls: dict[int, int] = {}
    seen_out: dict = {}
    for s in order:
        o = m.outputs[s]
        if o not in seen_out:
            seen_out[o] = len(seen_out)
        cls[s] = seen_out[o]
    while True:
        keys: dict[tuple, int] = {}
        new: dict[int, int] = {}
        for s in order:
            k = (cls[s], tuple(cls[t] for t in m.transitions[s]))
            if k not in keys:
                keys[k] = len(keys)
            new[s] = keys[k]
        if new == cls:
            break
        cls = new
    member: dict[int, int] = {}
    for s in order:
        member.setdefault(cls[s], s)
    init_c = cls[m.initial]
    access = {init_c: ""}
    bfs = [init_c]
    for c in bfs:
        for d in range(m.alphabet_size):
            t = cls[m.transitions[member[c]][d]]
            if t not in access:
                access[t] = access[c] + str(d)
                bfs.append(t)
    pos = {c: i for i, c in enumerate(bfs)}
    return Dfao(
        alphabet_size=m.alphabet_size,
        initial=0,
        transitions=tuple(tuple(pos[cls[m.transitions[member[c]][d]]]
                                for d in range(m.alphabet_size)) for c in bfs),
        outputs=tuple(m.outputs[member[c]] for c in bfs),
        output_kind=m.output_kind,
        names=tuple(access[c] if access[c] else "eps" for c in bfs),
    )


def equivalent_reference(a: Dfao, b: Dfao) -> tuple[bool, str | None]:
    """Breadth-first walk over state pairs, checking each pair's outputs as
    it leaves the queue."""
    start = (a.initial, b.initial)
    seen = {start}
    queue = [(start, "")]
    for (s1, s2), w in queue:
        if a.outputs[s1] != b.outputs[s2]:
            return False, w
        for d in range(a.alphabet_size):
            pair = (a.transitions[s1][d], b.transitions[s2][d])
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, w + str(d)))
    return True, None


WINDOWS = [(0, 0, 0, 4), (1, 2, 2, 1), (3, 3, 1, 2)]


@st.composite
def machines(draw, q=None, kind=None):
    """A machine of 1 to 40 states in base 2 or 3 over few outputs, so that
    states merge.  The states past the first ``live`` are unreachable, and a
    random permutation mixes them among the others."""
    q = q or draw(st.sampled_from([2, 3]))
    kind = kind or draw(st.sampled_from([SINGLE, WINDOW]))
    count = draw(st.integers(1, 40))
    live = draw(st.integers(1, count))
    rows = [[draw(st.integers(0, live - 1 if s < live else count - 1))
             for _ in range(q)] for s in range(count)]
    outs = [draw(st.integers(0, 2)) for _ in range(count)]
    perm = draw(st.permutations(range(count)))
    back = {p: s for s, p in enumerate(perm)}
    return Dfao(
        alphabet_size=q,
        initial=perm[draw(st.integers(0, live - 1))],
        transitions=[[perm[t] for t in rows[back[p]]] for p in range(count)],
        outputs=[outs[back[p]] if kind == SINGLE else WINDOWS[outs[back[p]]]
                 for p in range(count)],
        output_kind=kind,
    )


@st.composite
def pairs(draw):
    """Two machines of the same base and output kind: unrelated, or the
    second a copy of the first with one transition or output changed."""
    a = draw(machines())
    if draw(st.booleans()):
        return a, draw(machines(q=a.alphabet_size, kind=a.output_kind))
    rows = [list(r) for r in a.transitions]
    outs = list(a.outputs)
    s = draw(st.integers(0, a.state_count - 1))
    if draw(st.booleans()):
        rows[s][draw(st.integers(0, a.alphabet_size - 1))] = draw(
            st.integers(0, a.state_count - 1))
    else:
        outs[s] = draw(st.sampled_from([0, 1, 2] if a.output_kind == SINGLE else WINDOWS))
    return a, Dfao(a.alphabet_size, a.initial, rows, outs, a.output_kind)


@settings(max_examples=200, deadline=None)
@given(machines())
def test_minimize_matches_reference(m):
    mm = m.minimize()
    assert mm.serialize() == minimize_reference(m).serialize()
    assert mm.minimize() == mm
    assert mm.equivalent(m) == (True, None)
    assert m.equivalent(mm) == (True, None)


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_equivalent_matches_reference(pair):
    a, b = pair
    assert a.equivalent(b) == equivalent_reference(a, b)
    assert b.equivalent(a) == equivalent_reference(b, a)


@settings(max_examples=100, deadline=None)
@given(machines())
def test_serialize_round_trips(m):
    assert Dfao.deserialize(m.serialize()) == m
    mm = m.minimize()
    assert Dfao.deserialize(mm.serialize()) == mm


F20_LINES = (Path(__file__).resolve().parents[1] / "benchmark" / "data"
             / "f20.dfao").read_text().splitlines(keepends=True)
TOKENS = ("dfao", "initial", "state", "trans", "window", "single", "#", "0", "1", "2",
          "3", "19", "20", "2133", "00000", "-1", "+1", "1_0", "²", "١", "9" * 30, "eps",
          "x", "")


@st.composite
def fuzzed_line(draw) -> str:
    """One line of random text, or of tokens of the format."""
    if draw(st.booleans()):
        return draw(st.text(max_size=40))
    return " ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=6))) + "\n"


@st.composite
def fuzzed_text(draw):
    """Random text, token soup, or f20.dfao with one line replaced, cut out
    or cut short."""
    how = draw(st.sampled_from(["text", "soup", "replace", "cut", "truncate"]))
    if how == "text":
        return draw(st.text(max_size=200))
    if how == "soup":
        return "".join(draw(st.lists(fuzzed_line(), max_size=12)))
    lines = list(F20_LINES)
    i = draw(st.integers(0, len(lines) - 1))
    if how == "replace":
        lines[i] = draw(fuzzed_line())
    elif how == "cut":
        del lines[i]
    else:
        lines[i:] = [lines[i][:draw(st.integers(0, len(lines[i])))]]
    return "".join(lines)


@settings(max_examples=300, deadline=None)
@given(fuzzed_text())
def test_deserialize_raises_only_parse_error(text):
    try:
        m = Dfao.deserialize(text)
    except ParseError:
        return
    assert Dfao.deserialize(m.serialize()) == m
