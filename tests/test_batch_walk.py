"""The stride-table walkers, the batch walker of cross-validation and
eval_big's, against the single walker."""

import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vseq import SINGLE, WINDOW, Dfao, base_digits
from vseq.synthesis import _states_upto


def stride_width(q: int) -> int:
    """q^k for the largest k >= 1 with q^k <= 256."""
    width = q
    while width * q <= 256:
        width *= q
    return width


def random_machine(q: int, count: int, rng: random.Random) -> Dfao:
    rows = [[rng.randrange(count) for _ in range(q)] for _ in range(count)]
    return Dfao(q, rng.randrange(count), rows, [0] * count, SINGLE)


@st.composite
def cases(draw):
    """A machine, an n_max (the edges of the stride levels among them) and
    indices below it to check besides the first few hundred."""
    q = draw(st.sampled_from([2, 3, 5]))
    count = draw(st.sampled_from([1, 2, 3, 7, 33, 300]))
    m = random_machine(q, count, draw(st.randoms(use_true_random=False)))
    w = stride_width(q)
    n_max = draw(st.one_of(st.sampled_from([0, 1, w - 1, w, w + 1, w * w - 1, w * w]),
                           st.integers(0, 3 * w * w)))
    return m, n_max, draw(st.lists(st.integers(0, n_max), max_size=30))


# more than 256 states: the states no longer fit a byte
WIDE = random_machine(2, 300, random.Random(6))
# digit 0 moves the initial state: n = 0 is the empty numeral, and no
# numeral of n >= 1 starts with a 0
LEADING_ZERO_MOVES = Dfao(2, 0, [(1, 2), (2, 0), (0, 1)], [0, 1, 2], SINGLE)


@settings(max_examples=60, deadline=None)
@given(cases())
@example((WIDE, 3 * 2 ** 16 + 5, [2 ** 16 - 1, 2 ** 16, 2 ** 17 + 3, 3 * 2 ** 16 + 5]))
@example((LEADING_ZERO_MOVES, 256, [255, 256]))
@example((random_machine(5, 4, random.Random(1)), 125, [124, 125]))
def test_batch_walk_equals_single_walk(case):
    m, n_max, picks = case
    states = _states_upto(m, n_max)
    assert len(states) == n_max + 1
    assert np.asarray(states).dtype == np.min_scalar_type(max(m.state_count - 1, 0))
    q = m.alphabet_size
    for i in [*range(min(n_max, 300) + 1), *picks, n_max]:
        assert states[i] == m.walk(base_digits(i, q)), i


def labelled(m: Dfao) -> Dfao:
    """m with outputs that tell its states apart: state s outputs its four
    base-5 digits, which name up to 625 states."""
    return Dfao(m.alphabet_size, m.initial, m.transitions,
                [(s // 125, s // 25 % 5, s // 5 % 5, s % 5) for s in range(m.state_count)],
                WINDOW)


def decimal(n: int) -> str:
    """str(n) past CPython's int -> str digit limit: the quotient and the
    remainder by a power of ten near the middle, converted separately."""
    if n < 10 ** 4000:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's decimal digits
    hi, lo = divmod(n, 10 ** k)
    return decimal(hi) + decimal(lo).zfill(k)


@st.composite
def indexed_machines(draw):
    """A machine, labelled, and indices: the edges W^j - 1, W^j and W^j + 1
    of its stride table's digits, integers of up to 20,000 bits and small
    ones."""
    m = draw(st.one_of(
        st.builds(random_machine, st.sampled_from([2, 3, 4, 5, 16, 17]),
                  st.sampled_from([1, 2, 3, 7, 33, 300]), st.randoms(use_true_random=False)),
        st.sampled_from([WIDE, LEADING_ZERO_MOVES])))
    w = stride_width(m.alphabet_size)
    edges = st.builds(lambda j, d: max(w ** j + d, 0), st.integers(0, 8), st.sampled_from([-1, 0, 1]))
    wide = st.integers(0, 20_000).flatmap(lambda b: st.integers(0, 2 ** b - 1))
    picks = draw(st.lists(st.one_of(edges, wide, st.integers(0, 1000)), max_size=6))
    return labelled(m), picks


@settings(max_examples=60, deadline=None)
@given(indexed_machines())
@example((labelled(LEADING_ZERO_MOVES), [255, 256, 257, 2 ** 20_000 - 1, 2 ** 20_000]))
@example((labelled(WIDE), [2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 ** 12_000]))
@example((labelled(random_machine(17, 7, random.Random(2))), [16, 17, 18, 17 ** 40 + 1]))
def test_eval_big_equals_digit_walk(case):
    """eval_big(n) and eval_big(str(n)) end in walk's state on n's numeral:
    through the stride table where digit 0 fixes the initial state or not,
    of width 256 (q = 2, 4 and 16) or not (q = 3, 5 and 17), for more than
    256 states, and past CPython's 4300-digit int/str limit."""
    m, picks = case
    q = m.alphabet_size
    for n in [*range(q * q + 2), *picks]:
        want = m.outputs[m.walk(base_digits(n, q))]
        assert m.eval_big(n) == want, n
        assert m.eval_big(decimal(n)) == want, n
