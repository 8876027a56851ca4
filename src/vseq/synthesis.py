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

The signature of a string with value m holds one id per level L: that of
the block of windows at 2^L m + c, c < 2^L, its length-L extensions.  A
block is the pair of blocks at 2m and 2m + 1 one level down (Allouche &
Shallit, Automatic Sequences, Thm 6.6.2), so each level is one tuple join
(sequences.join_ids).  Levels are capped by the given horizon and by oracle
coverage; two strings are merged when their signatures agree on every
common level.

On an oracle long enough to load the compiled loops (``_oracle.c``),
discovery, cross-validation and certification run them and bytes
operations, and load no numpy; numpy runs the reference passes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .automaton import WINDOW, Dfao
from .rules import RuleConflict, WindowRuleTable, verify_rules
from .sequences import (PlannedWindows, SequenceTable, _compiled, _narrowest,
                        join_ids, max_byte)


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
    """A discovered state: canonical access string, its output annotation,
    and the oracle signature that separates it from every other node."""

    rep: str           # shortlex-least access string; "" for the initial state
    value: int         # integer the access string denotes
    window: tuple[int, int, int, int]  # the 4-window at value
    signature: tuple[int, ...]  # the block id at value, one per level

    @property
    def name(self) -> str:
        return self.rep if self.rep else "eps"


def _check_from_0(oracle: SequenceTable) -> None:
    if oracle.lo != 0:
        raise ValueError("synthesis expects an oracle table starting at index 0")


def _head(ids, keep: int | None):
    """ids cut to its first ``keep`` (all, for None), owning its memory."""
    if keep is None or len(ids) <= keep:
        return ids
    return ids[:keep] if isinstance(ids, array) else ids[:keep].copy()


def _block_ids(oracle: SequenceTable, horizon: int, keep: int | None = None) -> list:
    """Per level L <= horizon, one id per m with (m + 1) 2^L <= oracle.hi,
    that is m < oracle.hi >> L, for the block of windows at 2^L m + c,
    c < 2^L: equal ids for equal blocks.  The block spans F(2^L m - 2) to
    F(2^L (m + 1) + 1), F(-2) = F(-1) = 0.  Each level is read straight
    from F's bytes or from the level before, never from a padded copy:

    * level 0 numbers the 4-windows at n like the rule scan, ids below
      k = 1 + the largest byte, the two zeros below index 0 read as the
      join's pad: the windows at n = 0 and 1, the only ones that reach
      into it, are ranked apart from the rest;
    * level 1 numbers the 5 bytes F(2m - 2..2m + 2) that the windows at 2m
      and 2m + 1 span, the same way, so that level 0 need not be whole;
    * level L > 1 joins level L-1's ids at 2m and 2m + 1.

    With ``keep``, a level holds only its ids at m < keep, cut once the
    level after it is joined: level 0 is numbered only there.  Levels stop
    at the horizon or where fewer than two ids are left to join.  The
    engine is chosen once, from the oracle's length, for the largest byte
    and every level's join (see join_ids).  Each level's ids are one byte
    each while it has at most 255 (F has about 28)."""
    hi = oracle.hi
    if hi < 1 or horizon < 0:
        return []
    vals = oracle.byte_values()
    k = max_byte(vals, hi) + 1
    levels = [join_ids(vals, k, 0, 1, 4, hi if keep is None else min(hi, keep),
                       steps=hi, pad=2)[0]]
    if horizon >= 1 and hi >> 1:
        ids, k = join_ids(vals, k, 0, 2, 5, hi >> 1, steps=hi, pad=2)
        levels.append(ids)
    while len(levels) <= horizon and hi >> len(levels) - 1 >= 2:
        ids, k = join_ids(ids, k, 0, 2, 2, hi >> len(levels), steps=hi)
        levels[-1] = _head(levels[-1], keep)
        levels.append(ids)
    levels[-1] = _head(levels[-1], keep)
    return levels


# discovery keeps the ids of each level at m below this: F's states have
# access values below 2^10
KEEP_IDS = 1 << 16


def _kernel_node(oracle: SequenceTable, levels: list, rep: str,
                 m: int) -> KernelNode:
    """The node for access string ``rep`` of value m: the window at m, and
    the block id at m on every level of ``levels`` (from _block_ids) that
    holds one, m < oracle.hi >> L.  OracleTooShort where level 0 holds
    none; IndexError where a level holds one but was cut before it."""
    if not levels or m >= oracle.hi:
        raise OracleTooShort(
            f"oracle ends at {oracle.hi}; cannot form a level-0 signature for value {m}")
    sig = tuple(int(ids[m]) for level, ids in enumerate(levels)
                if m < oracle.hi >> level)
    return KernelNode(rep, m, oracle.window4(m), sig)


def discover(oracle: SequenceTable,
             horizon: int) -> tuple[list[KernelNode], list[list[int]]]:
    """Breadth-first state discovery from the empty string, in base 2.

    Each candidate extension of a known state is merged with the first
    existing node whose signature, its block ids level by level (see
    _block_ids), agrees on all common levels, or becomes a new node
    otherwise.  Breadth-first order makes every rep shortlex-least.  A
    value past the oracle's level-0 ids raises OracleTooShort.

    The levels keep their ids at values below KEEP_IDS only, about 0.5 MB
    at 2^22 where whole they take twice F's bytes; should a value reach
    past them, discovery starts again with whole levels.
    """
    _check_from_0(oracle)
    try:
        return _breadth_first(oracle, _block_ids(oracle, horizon, KEEP_IDS))
    except IndexError:
        return _breadth_first(oracle, _block_ids(oracle, horizon))


def _breadth_first(oracle: SequenceTable,
                   levels: list) -> tuple[list[KernelNode], list[list[int]]]:
    """discover's search over the block ids of ``levels``."""
    nodes = [_kernel_node(oracle, levels, "", 0)]
    trans: list[list[int]] = []
    while len(trans) < len(nodes):  # nodes doubles as the breadth-first queue
        src, row = nodes[len(trans)], []
        for d in (0, 1):
            cand = _kernel_node(oracle, levels, src.rep + str(d), src.value * 2 + d)
            cs = cand.signature
            tgt = next((j for j, other in enumerate(nodes)
                        if cs[:len(other.signature)] == other.signature[:len(cs)]), None)
            if tgt is None:
                nodes.append(cand)
                tgt = len(nodes) - 1
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


def _states_upto(m: Dfao, n_max: int) -> array:
    """state(n) for all n in [0, n_max]: the state after reading the base-q
    numeral of n (state(0) = initial, the empty numeral), in an ``array``
    of the stride table's typecode ('B' up to 256 states).

    The stride table T of Dfao.stride_table, δ composed over k digits for
    the largest k with q^k <= 256, gives T[s, w], the state reached from s
    on the k-digit numeral of w, leading zeros included.  n below q^k is
    filled a digit level at a time, state(q n + d) = δ(state(n), d); every
    later level by joining rows of T, state(q^k n + w) = T[state(n), w]
    (a q-automatic sequence is q^k-automatic: Allouche & Shallit, Automatic
    Sequences, Thm 6.6.4).  A Python step per row, W = q^k states a step.
    """
    q, table = m.alphabet_size, m.stride_table
    width = len(table) // m.state_count
    delta = [array(table.typecode, row) for row in m.transitions]
    strides = [table[s * width:(s + 1) * width] for s in range(m.state_count)]
    states = array(table.typecode, [m.initial])
    states += delta[m.initial][1:n_max + 1]  # the one-digit numerals
    hi = q  # states[:hi] is filled
    while hi <= n_max:
        rows, step = (delta, q) if hi < width else (strides, width)
        lo, end = hi // step, min(step * hi, n_max + 1)
        block = array(table.typecode)
        for s in states[lo:-(-end // step)]:
            block += rows[s]
        states += block[:end - hi]
        hi *= step
    return states


# cross_validate compares this many n at a time in numpy
CHECK_CHUNK = 1 << 16


def _stride_head(m: Dfao, n_max: int) -> tuple[array, array]:
    """The stride table T of Dfao.stride_table, of width W = q^k, and
    state(n) for n <= max(n_max // W, W - 1): with state(n) = T[state(n //
    W), n % W] from n = W on, all that a walk to n_max holds whole; the n
    below W, numerals shorter than a stride, come from it."""
    table = m.stride_table
    width = len(table) // m.state_count
    return table, _states_upto(m, max(n_max // width, width - 1))


def _state_chunks(m: Dfao, n_max: int):
    """(lo, state(n) for n in [lo, lo + CHECK_CHUNK) cut to n_max) for
    consecutive chunks from lo = 0, as numpy arrays: _states_upto's last
    stride level, one chunk at a time, from _stride_head.  The numpy
    reference walk of cross_validate."""
    import numpy as np
    table, head = (np.asarray(memoryview(b)) for b in _stride_head(m, n_max))
    table = table.reshape(m.state_count, -1)
    width = table.shape[1]
    for lo in range(0, n_max + 1, CHECK_CHUNK):
        hi = min(lo + CHECK_CHUNK, n_max + 1)
        rows = table[head[lo // width:-(-hi // width)]].ravel()
        states = rows[lo % width:lo % width + hi - lo]
        if lo < width:
            states[:width - lo] = head[lo:min(width, hi)]
        yield lo, states


def cross_validate(m: Dfao, oracle: SequenceTable, n_max: int) -> Validation:
    """Compare the automaton against the oracle for every n in [0, n_max].

    A mismatch is a verdict, not an error; the verdict names the least
    failing n.  An oracle must start at index 0: one that starts later
    raises ValueError, whichever output kind m has.

    An output of w bytes, the window F(n-2..n+1) (w = 4) or F(n) alone
    (w = 1), is compared with the oracle's w bytes at n.  Where a compiled
    library loads for n_max steps and the states fit one byte (both
    synthesized machines do), one compiled pass (``_oracle.c``
    vseq_check) walks the stride table of _stride_head and stops at the
    first mismatch, and no numpy is loaded.  Otherwise the numpy pass
    runs, the reference: it walks CHECK_CHUNK n at a time and reads each
    output as one little-endian integer on both sides, the machine's
    outputs as an S x w byte array gathered by state, and the oracle's as
    a one-byte-stride view of a chunk's window_bytes, whose window at n
    starts at byte n - lo and holds F(n) at byte 2.
    """
    _check_from_0(oracle)
    w = 4 if m.output_kind == WINDOW else 1
    offset = 2 - w // 2  # the output's first byte in the window at n
    reach = offset + w - 3  # the last oracle index an output at n reads, less n
    if oracle.hi < n_max + reach:
        raise OracleTooShort(f"oracle ends at {oracle.hi}, need {n_max + reach}")
    outputs = bytes(m.outputs if w == 1 else (b for o in m.outputs for b in o))
    lib = _compiled(n_max)
    if lib is not None and m.state_count <= 256:
        table, head = _stride_head(m, n_max)
        bad = lib.check(table, head, outputs, w, oracle.byte_values(), n_max)
        return Validation(bad < 0, None if bad < 0 else bad, n_max)
    import numpy as np
    # one conversion for a table not stored as bytes, not one per chunk
    oracle = SequenceTable(0, oracle.hi, oracle.byte_values(), oracle.label)
    outputs = np.frombuffer(outputs, dtype=f"<u{w}")
    for lo, states in _state_chunks(m, n_max):
        want = np.ndarray(states.size, dtype=f"<u{w}", offset=offset, strides=(1,),
                          buffer=oracle.window_bytes(lo, lo + states.size - 2 + reach))
        bad = np.flatnonzero(outputs[states] != want)
        if bad.size:
            return Validation(False, lo + int(bad[0]), n_max)
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
    """What certify_transitions checked.  Besides what format() prints, it
    records what it read: prefix_hi, the last index of the F prefix it
    read whole (PlannedWindows' prefix, or an F table's end); windows_read,
    the windows at cert_plan's indices, each read once; and pairs_compared,
    the window pairs compared, one per state output and one per transition
    and extension."""

    transitions: tuple[TransitionCertificate, ...]
    states_checked: int
    propagation_checked_to: int
    depth: int
    prefix_hi: int
    windows_read: int
    pairs_compared: int

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
    """The states' claimed access values: 0 for ``eps``, else the value of a
    name of base-q digits; ValueError for any other name, signs, prefixes
    and underscores included.  Every certification check tests those
    claims against the oracle, so no structural trust is needed."""
    digits = set("0123456789"[:m.alphabet_size])
    vals = []
    for s, name in enumerate(m.names):
        if name == "eps":
            vals.append(0)
        elif name and set(name) <= digits:
            vals.append(int(name, m.alphabet_size))
        else:
            raise ValueError(
                f"state {s} name {name!r} is not a base-{m.alphabet_size} "
                "access string; certification needs synthesized names")
    return vals


def _family_reads(m: Dfao, depth: int):
    """What certification compares: the states' claimed values; the
    extensions x (value, length, text): the empty string, then 0^j, 0^j 1,
    1^j for j = 1..depth; the transitions (s, d, p); the two lists of
    window indices compared pairwise, [u d x] and [v x], row by row; and
    the plan, the sorted, distinct indices of all those windows."""
    check_bounds(depth=depth)
    values = _name_values(m)
    exts = [(0, 0, "")] + [
        ext for j in range(1, depth + 1)
        for ext in ((0, j, "0" * j), (1, j + 1, "0" * j + "1"), ((1 << j) - 1, j, "1" * j))]
    edges = [(s, d, m.transitions[s][d]) for s in range(m.state_count) for d in (0, 1)]

    def at(starts) -> list[int]:
        return [(u << xlen) | xval for u in starts for xval, xlen, _ in exts]

    left = at([(values[s] << 1) | d for s, d, _ in edges])
    right = at([values[p] for _, _, p in edges])
    return values, exts, edges, left, right, sorted({*values, *left, *right})


def cert_plan(m: Dfao, depth: int) -> list[int]:
    """The sorted, distinct indices whose windows certify_transitions reads
    at this depth: every state's claimed access value u, and [u d x] and
    [v x] for every transition u -d-> v and boundary-family extension x.
    Their windows are all it reads of F past the rule propagation's."""
    return _family_reads(m, depth)[-1]


def cert_oracle_bound(m: Dfao, depth: int) -> int:
    """Last oracle index that certify_transitions reads at this depth: the
    last planned window's last index, cert_plan(m, depth)[-1] + 1."""
    return cert_plan(m, depth)[-1] + 1


def certify_transitions(m: Dfao, oracle, rules: WindowRuleTable,
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

    The oracle is an F table from index 0 that reaches the last planned
    window, or sequences.count_windows' PlannedWindows for cert_plan(m,
    depth) from such a table reaching validate_to + 1, which holds no F
    past that prefix.  Every window is read once, through the oracle's
    windows_at, at the plan's indices.  The windows of every transition
    and extension are joined into two byte strings compared at once,
    listed in the order the checks are stated, so the first failing pair
    names the failure.  The rule propagation is verify_rules on the
    prefix, whose compare runs compiled or in numpy as rules._scan says.
    """
    _check_from_0(oracle)
    if m.output_kind != WINDOW:
        raise CertificationFailure("certification applies to window automata")
    if m.alphabet_size != 2:
        raise CertificationFailure("certification scheme is specific to base 2")
    values, exts, edges, left_at, right_at, plan = _family_reads(m, depth)
    if oracle.hi < plan[-1] + 1:
        raise OracleTooShort(
            f"oracle ends at {oracle.hi}; depth {depth} family checks need {plan[-1] + 1}")
    prefix = oracle.prefix if isinstance(oracle, PlannedWindows) else oracle
    prop_to = validate_to // 2
    if prefix.hi < 2 * prop_to + 1:
        raise OracleTooShort(
            f"oracle ends at {prefix.hi}; rule propagation to {prop_to} needs "
            f"{2 * prop_to + 1}")
    try:
        read = oracle.windows_at(plan)
    except IndexError as e:
        raise OracleTooShort(f"the oracle holds no window the plan needs: {e}") from None
    window = {n: read[4 * i:4 * i + 4] for i, n in enumerate(plan)}

    # (a) output windows
    for s in range(m.state_count):
        truth = tuple(window[values[s]])
        if tuple(m.outputs[s]) != truth:
            raise CertificationFailure(
                f"state output {m.outputs[s]} != oracle window {truth}",
                from_name=m.names[s], witness=m.names[s])

    # (b) base case and boundary families per transition, every pair of
    # windows in one compare: row (s, d) holds [u d x] and [v x] for
    # x = the empty string, then 0^j, 0^j 1, 1^j for j = 1..depth
    left = b"".join(window[n] for n in left_at)
    right = b"".join(window[n] for n in right_at)
    if left != right:
        bad = next(i for i in range(0, len(left), 4) if left[i:i + 4] != right[i:i + 4])
        row, t = divmod(bad // 4, len(exts))
        s, d, p = edges[row]
        raise CertificationFailure(
            "family windows differ" if t else "base windows differ",
            m.names[s], d, m.names[p], witness=exts[t][2])
    certs = [TransitionCertificate(from_name=m.names[s], digit=d, to_name=m.names[p],
                                   family_depth=depth)
             for s, d, p in edges]

    # (iii) doubling rules propagate windows across the validation range
    try:
        outside = verify_rules(rules, prefix, prop_to).new_windows
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
        prefix_hi=prefix.hi,
        windows_read=len(plan),
        pairs_compared=m.state_count + len(left_at),
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
    the ids of the level before.  The engine is chosen once, from the
    table's length: where a library loads, level 0 counts its bytes
    compiled (``_oracle.c``) and every join whose tuple space is small
    enough to tabulate runs compiled.  The level that compares bytes sorts
    them with numpy.  Only the counts are reported, so the order of the
    ids is free.
    """
    check_probe_args(q, depth, prefix_len)
    vals = table.byte_values()
    steps = len(vals)
    lib = _compiled(steps)
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
            ids, k = vals, max_byte(vals, steps) + 1  # ids below k: the byte values
            if lib is not None:
                distinct = lib.distinct_bytes(vals)
            else:
                import numpy as np
                seen = np.zeros(k, dtype=bool)
                seen[np.asarray(vals)] = True
                distinct = int(np.count_nonzero(seen))
        elif block in (prev_block, q * prev_block):
            # level e-1's blocks q n + j
            parts = 1 if block == prev_block else q
            ids, k = join_ids(ids, k, q * n0 - prev_n0, q, parts, count, steps=steps)
            distinct = k
        else:
            import numpy as np
            rows = np.lib.stride_tricks.as_strided(
                np.asarray(vals)[n0 * step - lo:], shape=(count, block),
                strides=(step, 1), writeable=False)
            rows = np.ascontiguousarray(rows).view(f"V{block}").ravel()
            uniq, ids = np.unique(rows, return_inverse=True)
            distinct = k = len(uniq)
            ids = ids.astype(_narrowest(k))
        levels.append(ProbeLevel(e, block, count, distinct))
        prev_block, prev_n0 = block, n0
        step *= q
    return ProbeReport(q=q, depth=depth, prefix_len=prefix_len,
                       levels=tuple(levels), truncated=truncated)
