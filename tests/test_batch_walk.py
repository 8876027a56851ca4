"""The batch walker of cross-validation against the single walker."""

import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vseq import SINGLE, Dfao, base_digits
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
