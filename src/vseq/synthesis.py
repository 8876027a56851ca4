"""Automaton synthesis from a sequence oracle, and its certification.

Synthesis is conjecture-then-certify.  A breadth-first Myhill-Nerode style
discovery reads the oracle and merges digit strings whose observable
behavior agrees up to a horizon; the result is only a conjecture, because a
finite horizon can over-merge.  Two independent gates follow:

* ``cross_validate`` replays every n up to a bound through the automaton
  and compares against the oracle;
* ``certify_transitions`` instantiates the inductive correctness scheme
  for the base-2 window automaton: per-state output windows, per-transition
  window equality at the empty extension and along the three boundary
  families 0^j, 0^j 1, 1^j, plus the doubling-rule propagation that carries
  window equality from each extension length to the next.

Discovery builds the window automaton only: each state is annotated with
the 4-window (F(n-2), F(n-1), F(n), F(n+1)) at its access value n.  The
single-output form is that automaton's output projection, minimized
(``project_output().minimize()``).

The signature of a string with value m collects, level by level, the
windows of all its length-L extensions: one slice of the oracle behind
two zero bytes, from two left of the first extension to one right of the
last.  Levels are capped by the given horizon and by oracle coverage; two
strings are merged when their signatures agree on every common level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import WINDOW, Dfao
from .rules import RuleConflict, WindowRuleTable, verify_rules
from .sequences import SequenceTable, _compiled, _narrowest, join_ids


class NonpositiveDivisor(ValueError):
    pass


class OracleTooShort(Exception):
    """A needed oracle value lies beyond the table end."""


class InsufficientHorizon(Exception):
    """Discovery merged states that later validation distinguishes."""


class CertificationFailure(Exception):
    def __init__(self, message: str, from_name: str = "", digit: int | None = None,
                 to_name: str = "", witness: str = ""):
        self.from_name = from_name
        self.digit = digit
        self.to_name = to_name
        self.witness = witness
        arrow = f" at {from_name} -{digit}-> {to_name}" if to_name else ""
        super().__init__(f"{message}{arrow} witness={witness!r}")


def euclid_div(s: int, q: int) -> tuple[int, int]:
    """X, Y with s = q*X + Y and 0 <= Y < q (X = floor(s/q), floor to -inf)."""
    if q < 1:
        raise NonpositiveDivisor(f"divisor must be positive, got {q}")
    return s // q, s % q


def shift_bounds(q: int, t: int, a: int, b: int, n0: int) -> tuple[int, int]:
    """Minimal shift bounds A = max(n0, ceil(q(a+1)/(q-1))), B = ceil(q(b+1)/(q-1)).

    ``t`` (the tower exponent) does not enter the bounds.
    """
    if q < 2:
        raise ValueError("base must be >= 2")
    if min(t, a, b, n0) < 0:
        raise ValueError("t, a, b, n0 must be nonnegative")
    big_a = max(n0, -(-(q * (a + 1)) // (q - 1)))
    big_b = -(-(q * (b + 1)) // (q - 1))
    return big_a, big_b


@dataclass(frozen=True)
class KernelNode:
    """A discovered state: canonical access string, and the oracle
    signature that separates it from every other node."""

    rep: str           # shortlex-least access string; "" for the initial state
    value: int         # integer the access string denotes
    signature: tuple[bytes, ...]

    @property
    def name(self) -> str:
        return self.rep if self.rep else "eps"

    @property
    def window(self) -> tuple[int, int, int, int]:
        """The output annotation: the 4-window at the access value, which
        is the level-0 signature."""
        return tuple(self.signature[0])


def _check_from_0(oracle: SequenceTable) -> None:
    if oracle.lo != 0:
        raise ValueError("synthesis expects an oracle table starting at index 0")


def signature(padded: bytes, m: int, horizon: int) -> tuple[bytes, ...]:
    """Per-level oracle windows of all extensions of a value-m string.

    Level L covers the windows at 2^L*m + c for 0 <= c < 2^L, so it spans
    F(2^L*m - 2) to F(2^L*(m+1)): the slice padded[2^L*m : 2^L*(m+1) + 3]
    of padded = oracle.window_bytes(0, oracle.hi - 1), which holds F(i) at
    i + 2 behind two zero bytes.  Levels stop at the horizon or where the
    oracle ends.
    """
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


def discover(oracle: SequenceTable,
             horizon: int) -> tuple[list[KernelNode], list[list[int]]]:
    """Breadth-first state discovery from the empty string, in base 2.

    Each candidate extension of a known state is merged with the first
    existing node whose signature agrees on all common levels, or becomes a
    new node otherwise.  Breadth-first order makes every rep shortlex-least.
    """
    _check_from_0(oracle)
    padded = oracle.window_bytes(0, oracle.hi - 1)
    nodes = [KernelNode("", 0, signature(padded, 0, horizon))]
    trans: list[list[int]] = []
    queue = [0]
    head = 0
    while head < len(queue):
        s = queue[head]
        head += 1
        row = []
        for d in (0, 1):
            c = nodes[s].value * 2 + d
            cs = signature(padded, c, horizon)
            tgt = None
            for j, node in enumerate(nodes):
                k = min(len(cs), len(node.signature))
                if cs[:k] == node.signature[:k]:
                    tgt = j
                    break
            if tgt is None:
                nodes.append(KernelNode(nodes[s].rep + str(d), c, cs))
                tgt = len(nodes) - 1
                queue.append(tgt)
            row.append(tgt)
        trans.append(row)
    return nodes, trans


def synthesize_msb(oracle: SequenceTable, horizon: int) -> Dfao:
    """Conjecture the window automaton for the oracle, each state annotated
    with the 4-window at its access value; certification comes separately."""
    nodes, trans = discover(oracle, horizon)
    m = Dfao(
        alphabet_size=2,
        initial=0,
        transitions=tuple(tuple(r) for r in trans),
        outputs=tuple(n.window for n in nodes),
        output_kind=WINDOW,
        names=tuple(n.name for n in nodes),
    )
    # digit 0 must fix the initial state, else leading zeros would change results
    if m.transitions[m.initial][0] != m.initial:
        raise AssertionError("discovery broke leading-zero stability")
    return m


@dataclass(frozen=True)
class Validation:
    passed: bool
    first_mismatch: int | None
    n_max: int


def _states_upto(m: Dfao, n_max: int) -> np.ndarray:
    """state(n) for all n in [0, n_max]: the state after reading the base-q
    numeral of n (state(0) = initial, the empty numeral), in the narrowest
    dtype for the states.

    A stride table T, δ composed over k digits for the largest k with
    q^k <= 256 (k = 8 in base 2, k = 1 from q = 17), gives T[s, w], the state
    reached from s on the k-digit numeral of w, leading zeros included.  n
    below q^k is filled a digit level at a time, state(q n + d) =
    δ(state(n), d); every later level in one row gather of T,
    state(q^k n + w) = T[state(n), w] (a q-automatic sequence is
    q^k-automatic: Allouche & Shallit, Automatic Sequences, Thm 6.6.4).
    """
    q = m.alphabet_size
    trans = np.asarray(m.transitions, dtype=_narrowest(m.state_count))
    table = trans
    while table.shape[1] * q <= 256:
        table = trans[table].reshape(m.state_count, -1)
    states = np.empty(n_max + 1, dtype=trans.dtype)
    states[0] = m.initial
    states[1:q] = trans[m.initial, 1:n_max + 1]  # the one-digit numerals
    hi = q  # states[:hi] is filled
    while hi <= n_max:
        step = trans if hi < table.shape[1] else table
        width = step.shape[1]
        lo, end = hi // width, min(width * hi, n_max + 1)
        rows = step[states[lo:-(-end // width)]].ravel()
        states[hi:end] = rows[:end - hi]
        hi *= width
    return states


def _expected_outputs(m: Dfao, oracle: SequenceTable, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(the automaton's output at n, the oracle's) for every n in [0, n_max].

    An output of w bytes, the window F(n-2..n+1) (w = 4) or F(n) alone
    (w = 1), is read as one little-endian integer on both sides: the
    machine's outputs as an S x w byte array, gathered by state, and the
    oracle's as a one-byte-stride view of window_bytes, whose window at n
    starts at byte n and holds F(n) at byte 2.
    """
    w = 4 if m.output_kind == WINDOW else 1
    offset = 2 - w // 2  # the output's first byte in the window at n
    need = n_max + offset + w - 3  # the last oracle index an output reads
    if oracle.hi < need:
        raise OracleTooShort(f"oracle ends at {oracle.hi}, need {need}")
    outputs = np.asarray(m.outputs, dtype=np.uint8).reshape(m.state_count, w)
    got = outputs.view(f"<u{w}").ravel()[_states_upto(m, n_max)]
    want = np.ndarray(n_max + 1, dtype=f"<u{w}", buffer=oracle.window_bytes(0, need - 1),
                      offset=offset, strides=(1,))
    return got, want


def cross_validate(m: Dfao, oracle: SequenceTable, n_max: int) -> Validation:
    """Compare the automaton against the oracle for every n in [0, n_max].

    A mismatch is a verdict, not an error; the verdict names the least
    failing n.  An oracle must start at index 0: one that starts later
    raises ValueError, whichever output kind m has.
    """
    _check_from_0(oracle)
    got, want = _expected_outputs(m, oracle, n_max)
    bad = np.flatnonzero(got != want)
    if bad.size:
        return Validation(False, int(bad[0]), n_max)
    return Validation(True, None, n_max)


def check_bounds(*, horizon: int = 1, validate_to: int = 2, depth: int = 2) -> None:
    """ValueError unless the pipeline can take these bounds; each defaults
    to the least value it takes, so a caller names only what it has."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if validate_to < 2:
        raise ValueError("validate_to must be >= 2")
    if depth < 2:
        raise ValueError("depth must be >= 2")


def synthesize_validated(oracle: SequenceTable, horizon: int,
                         validate_to: int) -> tuple[Dfao, Validation]:
    """Synthesize and cross-validate on [0, validate_to] (cut to the oracle),
    doubling the horizon (up to 3 retries) when validation exposes an
    over-merge."""
    check_bounds(horizon=horizon, validate_to=validate_to)
    for attempt in range(4):
        m = synthesize_msb(oracle, horizon)
        verdict = cross_validate(m, oracle, min(validate_to, oracle.hi - 1))
        if verdict.passed:
            return m, verdict
        if attempt < 3:
            horizon *= 2
    raise InsufficientHorizon(
        f"automaton still disagrees with the oracle at n = {verdict.first_mismatch} "
        f"after raising the horizon to {horizon}")


# -- certification ------------------------------------------------------------

@dataclass(frozen=True)
class TransitionCertificate:
    from_name: str
    digit: int
    to_name: str
    family_depth: int


@dataclass(frozen=True)
class CertificateReport:
    transitions: tuple[TransitionCertificate, ...]
    states_checked: int
    propagation_checked_to: int
    depth: int

    @property
    def verdict(self) -> str:
        # a report is only constructed when every check passed;
        # failures surface as CertificationFailure instead
        return "pass"

    def format(self) -> str:
        lines = [f"OK {t.from_name} -{t.digit}-> {t.to_name}"
                 for t in self.transitions]
        lines.append(f"verdict: {self.verdict} "
                     f"({len(self.transitions)} transitions, depth {self.depth}, "
                     f"outputs checked for {self.states_checked} states, "
                     f"rule propagation to a = {self.propagation_checked_to})")
        return "\n".join(lines) + "\n"


def _name_values(m: Dfao) -> list[int]:
    # names are the states' claimed access values; every certification check
    # tests those claims against the oracle, so no structural trust is needed
    vals = []
    for s, name in enumerate(m.names):
        if name == "eps":
            v = 0
        else:
            try:
                v = int(name, m.alphabet_size)
            except ValueError:
                raise ValueError(
                    f"state {s} name {name!r} is not a base-{m.alphabet_size} "
                    "access string; certification needs synthesized names") from None
        vals.append(v)
    return vals


def cert_oracle_bound(m: Dfao, depth: int) -> int:
    """Last oracle index that certify_transitions reads at this depth: the
    windows at [u d x] for the longest boundary-family extension x of every
    transition u -d->, with u the state's claimed access value."""
    check_bounds(depth=depth)
    max_ud = max((v << 1) | d for v in _name_values(m) for d in (0, 1))
    return max(((max_ud << (depth + 1)) | 1) + 1, (max_ud + 1) << depth)


def certify_transitions(m: Dfao, oracle: SequenceTable, rules: WindowRuleTable,
                        depth: int, validate_to: int) -> CertificateReport:
    """Run the inductive correctness scheme against the oracle.

    Per state: the output window equals the oracle window at the state's
    access value.  Per transition u -d-> v: oracle windows agree at [u d]
    and [v], and at [u d x] and [v x] for the boundary families
    x in {0^j, 0^j 1, 1^j}, 1 <= j <= depth.  Globally: the doubling rules
    reproduce F(2a) and F(2a+1) for every a in (3, validate_to/2], which is
    the step carrying window equality from each extension length to the
    next.  Any failed check raises CertificationFailure naming a witness;
    an oracle that does not start at index 0 raises ValueError first.
    """
    _check_from_0(oracle)
    if m.output_kind != WINDOW:
        raise CertificationFailure("certification applies to window automata")
    if m.alphabet_size != 2:
        raise CertificationFailure("certification scheme is specific to base 2")
    hi = oracle.hi
    max_needed = cert_oracle_bound(m, depth)
    if hi < max_needed:
        raise OracleTooShort(
            f"oracle ends at {hi}; depth {depth} family checks need {max_needed}")
    values = _name_values(m)
    prop_to = validate_to // 2
    if hi < 2 * prop_to + 1:
        raise OracleTooShort(
            f"oracle ends at {hi}; rule propagation to {prop_to} needs {2 * prop_to + 1}")

    # (a) output windows
    for s in range(m.state_count):
        truth = oracle.window4(values[s])
        if tuple(m.outputs[s]) != truth:
            raise CertificationFailure(
                f"state output {m.outputs[s]} != oracle window {truth}",
                from_name=m.names[s], witness=m.names[s])

    # (b) base case and boundary families per transition
    certs = []
    for s in range(m.state_count):
        for d in (0, 1):
            p = m.transitions[s][d]
            mu = (values[s] << 1) | d
            mv = values[p]
            if oracle.window4(mu) != oracle.window4(mv):
                raise CertificationFailure(
                    "base windows differ", m.names[s], d, m.names[p], witness="")
            for j in range(1, depth + 1):
                for xval, xlen, x in ((0, j, "0" * j),
                                      (1, j + 1, "0" * j + "1"),
                                      ((1 << j) - 1, j, "1" * j)):
                    if (oracle.window4((mu << xlen) | xval)
                            != oracle.window4((mv << xlen) | xval)):
                        raise CertificationFailure(
                            "family windows differ", m.names[s], d, m.names[p],
                            witness=x)
            certs.append(TransitionCertificate(
                from_name=m.names[s], digit=d, to_name=m.names[p],
                family_depth=depth))

    # (iii) doubling rules propagate windows across the validation range
    try:
        outside = verify_rules(rules, oracle, prop_to).new_windows
    except RuleConflict as e:
        raise CertificationFailure(
            f"doubling rules disagree with the oracle at a = {e.a_second}",
            witness=str(e.a_second)) from None
    if outside:
        w, a = next(iter(outside.items()))  # the least a: scans list windows by a
        raise CertificationFailure(
            f"window {w} at a = {a} outside the rule domain", witness=str(a))

    return CertificateReport(
        transitions=tuple(certs),
        states_checked=m.state_count,
        propagation_checked_to=prop_to,
        depth=depth,
    )


# -- kernel-size probe ---------------------------------------------------------

@dataclass(frozen=True)
class ProbeLevel:
    level: int
    block_len: int
    samples: int
    distinct: int


@dataclass(frozen=True)
class ProbeReport:
    q: int
    depth: int
    prefix_len: int
    levels: tuple[ProbeLevel, ...]
    truncated: bool  # oracle ran out before the requested depth

    @property
    def stabilized(self) -> bool:
        """Distinct count unchanged over the last two completed levels."""
        if len(self.levels) < 2:
            return False
        return self.levels[-1].distinct == self.levels[-2].distinct

    def format(self) -> str:
        lines = [f"# base {self.q}, depth {self.depth}, prefix {self.prefix_len}"]
        for lv in self.levels:
            lines.append(f"level {lv.level}: distinct {lv.distinct} "
                         f"(blocks of {lv.block_len}, {lv.samples} samples)")
        if self.truncated:
            lines.append("# truncated: oracle too short for deeper levels")
        lines.append(f"stabilized: {'yes' if self.stabilized else 'no'}")
        return "\n".join(lines) + "\n"


def check_probe_args(q: int, depth: int, prefix_len: int) -> None:
    """ValueError unless kernel_probe can take these arguments."""
    if q < 2 or depth < 0 or prefix_len < 1:
        raise ValueError("need q >= 2, depth >= 0, prefix_len >= 1")


def kernel_probe(table: SequenceTable, q: int, depth: int,
                 prefix_len: int) -> ProbeReport:
    """Count distinct aligned blocks (S(q^e n + c))_{c} level by level.

    A q-automatic sequence has finitely many such blocks at every depth
    (they refine toward the state classes of its automaton), so a count
    that stops growing is evidence for automaticity and a count that keeps
    growing with e is evidence against.  Blocks are truncated to the first
    ``prefix_len`` entries; levels where the oracle holds fewer than two
    complete blocks are not reported (a single sample cannot witness any
    distinction) and set the truncated flag instead.

    Each level keeps one id per block, equal ids for equal blocks.  A block
    q times as long as the one before is the q blocks of the level before
    it (Allouche & Shallit, Automatic Sequences, Thm 6.6.2), so its id is
    the tuple of their ids; a block cut to ``prefix_len`` like the one
    before is that level's block at q n.  Only a level that cuts its block
    to a length of neither kind compares the bytes of its blocks.

    Level 0's ids are the byte values, below k = 1 + the largest byte, so
    that F's five values give level 1 a space of 5^q tuples.  Every join
    goes through sequences.join_ids, which reads the children straight from
    the ids of the level before and runs compiled (``_oracle.c``) where a
    library loads and the tuple space is small enough to tabulate.  Level 0
    counts its bytes compiled on a table of 2^14 entries or more.  The
    level that compares bytes sorts them with numpy.  Only the counts are
    reported, so the order of the ids is free.
    """
    check_probe_args(q, depth, prefix_len)
    vals = table.byte_values()
    lib = _compiled(len(vals))
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
        count = n1 - n0 + 1
        if e == 0:
            ids, k = vals, int(vals.max()) + 1  # ids below k: the byte values
            if lib is not None:
                distinct = lib.distinct_bytes(vals)
            else:
                seen = np.zeros(k, dtype=bool)
                seen[vals] = True
                distinct = int(np.count_nonzero(seen))
        elif block in (prev_block, q * prev_block):
            # level e-1's blocks q n + j
            parts = 1 if block == prev_block else q
            ids, k = join_ids(ids, k, q * n0 - prev_n0, q, parts, count, distinct)
            distinct = k
        else:
            rows = np.lib.stride_tricks.as_strided(
                vals[n0 * step - lo:], shape=(count, block),
                strides=(step * vals.strides[0], vals.strides[0]), writeable=False)
            rows = np.ascontiguousarray(rows).view(f"V{block}").ravel()
            uniq, ids = np.unique(rows, return_inverse=True)
            distinct = k = len(uniq)
            ids = ids.astype(_narrowest(k))
        levels.append(ProbeLevel(e, block, count, distinct))
        prev_block, prev_n0 = block, n0
        step *= q
    return ProbeReport(q=q, depth=depth, prefix_len=prefix_len,
                       levels=tuple(levels), truncated=truncated)
