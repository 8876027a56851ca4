"""Reference computations that share no code with the vseq package.

The benchmark checks every workload's outputs against these: V and F on a
prefix (recomputed here from the defining recursion), the rows printed in
OEIS and in the paper, the doubling maps g and h scanned from the reference
F, and a plain reader and walker for the automaton text format.
"""

from __future__ import annotations

import numpy as np

# V(1..20), OEIS A063882.
PUBLISHED_V = (1, 1, 1, 1, 2, 3, 4, 5, 5, 6, 6, 7, 8, 8, 9, 9, 10, 11, 11, 11)
# F(1..10) as the V row above fixes it (V(20) = 11, so every count up to 10 is
# complete); F(4..7) = F(7..10) = 1,2,2,1 and F(461..464) = 2,1,3,3 are the
# paper's own spot values.
PUBLISHED_F = {1: 4, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 1, 8: 2, 9: 2, 10: 1,
               461: 2, 462: 1, 463: 3, 464: 3}

# F(0..PREFIX) is recomputed for every check; 2^18 needs about 5e5 V terms.
PREFIX = 2 ** 18
DOUBLING_FROM = 4  # F(2a) = g(window(a)) and F(2a+1) = h(window(a)) for a > 3


class ReferenceMismatch(Exception):
    """The reference disagrees with a published row: the checker is broken."""


class Reference:
    """V(1..) up to the first term above ``a_max``, F(0..a_max), g and h."""

    def __init__(self, a_max: int = PREFIX):
        v = [0, 1, 1, 1, 1]  # v[0] is a placeholder; V is 1-indexed
        while v[-1] <= a_max:
            n = len(v)
            v.append(v[n - v[n - 1]] + v[n - v[n - 4]])
        self.v = np.array(v[1:], dtype=np.int64)  # V(1..len)
        counts = np.bincount(self.v, minlength=a_max + 2)
        self.f = counts[:a_max + 1].astype(np.uint8)  # F(0..a_max), F(0) = 0
        self.a_max = a_max
        self.g, self.h = self._doubling_maps()
        self._check_published()

    def _doubling_maps(self) -> tuple[dict, dict]:
        g: dict[tuple, int] = {}
        h: dict[tuple, int] = {}
        f = self.f.tolist()
        for a in range(DOUBLING_FROM, (self.a_max - 1) // 2 + 1):
            w = tuple(f[a - 2:a + 2])
            if g.setdefault(w, f[2 * a]) != f[2 * a] or h.setdefault(w, f[2 * a + 1]) != f[2 * a + 1]:
                raise ReferenceMismatch(f"window {w} has two images at a = {a}")
        return g, h

    def _check_published(self) -> None:
        if tuple(self.v[:20].tolist()) != PUBLISHED_V:
            raise ReferenceMismatch("V(1..20) differs from A063882")
        for a, want in PUBLISHED_F.items():
            if self.f[a] != want:
                raise ReferenceMismatch(f"F({a}) = {self.f[a]}, published {want}")
        if len(self.g) != 24:
            raise ReferenceMismatch(f"{len(self.g)} doubling windows, expected 24")

    def vdiff(self, count: int) -> np.ndarray:
        """V(n+1) - V(n) for n = 1..count."""
        return np.diff(self.v[:count + 1])

    def doubling_holds(self, window: tuple, f_even: int, f_odd: int) -> bool:
        """F(2a), F(2a+1) are g and h of the window F(a-2..a+1)."""
        return self.g.get(window) == f_even and self.h.get(window) == f_odd

    def distinct_blocks(self, level: int, prefix_len: int) -> int:
        """Distinct blocks (F(2^e n + c))_{c < block} lying inside the prefix:
        a lower bound on the kernel probe's count at that level."""
        step = 1 << level
        block = min(prefix_len, step)
        starts = range(0, self.a_max - block + 2, step)
        return len({self.f[s:s + block].tobytes() for s in starts})


class PlainDfao:
    """The automaton text format read without vseq, and walked MSB-first."""

    def __init__(self, text: str):
        self.outputs: dict[int, int] = {}
        trans: dict[tuple[int, int], int] = {}
        for line in text.splitlines():
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "dfao":
                self.states, self.base, self.kind = int(parts[1]), int(parts[2]), parts[3]
            elif parts[0] == "initial":
                self.initial = int(parts[1])
            elif parts[0] == "state":
                self.outputs[int(parts[1])] = int(parts[3])
            elif parts[0] == "trans":
                trans[int(parts[1]), int(parts[2])] = int(parts[3])
        self.delta = np.array([[trans[s, d] for d in range(self.base)]
                               for s in range(self.states)], dtype=np.int64)
        self.out = np.array([self.outputs[s] for s in range(self.states)], dtype=np.int64)

    def value(self, n: int) -> int:
        rows = self.delta.tolist()
        s = self.initial
        for bit in bin(n)[2:] if n else "":
            s = rows[s][bit == "1"]
        return self.outputs[s]

    def values_upto(self, n_max: int) -> np.ndarray:
        """Outputs for every n in [0, n_max], one numeral digit at a time from
        the top: the state of n is delta(state of n // 2, n % 2)."""
        state = np.full(n_max + 1, self.initial, dtype=np.int64)
        n = np.arange(n_max + 1)
        for shift in range(int(n_max).bit_length() - 1, -1, -1):
            live = (n >> shift) > 0
            state[live] = self.delta[state[live], (n[live] >> shift) & 1]
        return self.out[state]
