"""Automaton synthesis from a sequence oracle, and its certification.

Synthesis is conjecture-then-certify.  A breadth-first walk builds the
automaton from the doubling rules as read off F's first values, which it
counts itself; the result is only a conjecture, because the rules are read
on a finite range.  Two independent gates follow, each against the
caller's oracle:

* ``cross_validate`` replays every n up to a bound through the automaton
  and compares against the oracle;
* ``certify_transitions`` instantiates the inductive correctness scheme
  for the base-2 window automaton: per-state output windows, per-transition
  window equality at the empty extension and along the three boundary
  families 0^j, 0^j 1, 1^j, plus the doubling-rule propagation that carries
  window equality from each extension length to the next.

Discovery builds the window automaton, each state annotated with the
4-window F(n-2..n+1) at its access value n; the single-output form is its
output projection, minimized.  For a >= 6, X(a) = F(a-4..a+2) fixes X(2a)
and X(2a+1) through the doubling rules of its four 4-windows, so a
breadth-first walk keyed by X is a finite state discovery (the k-kernel
argument of Allouche & Shallit, Automatic Sequences, Thm 6.6.2), right on
every n >= 6 by strong induction on the numeral's length wherever the
rules hold.  It keys the numerals below 6 by their value and reads
X(6..11) and the rules from its own F(0..465), the shortest F whose rule
scan realizes every window of F, so the machine it walks depends on no
bound the caller sets; its 69 states minimize to 33.

The walk and cross-validation run in plain Python, with or without a C
compiler; the rule scans (the walk's and certification's) and the rest of
certification run the compiled loops (``_oracle.c``) where a library
loads, and the plain-Python loops of the same passes where none does.
"""

from __future__ import annotations

from array import array
from collections import namedtuple

from . import rules
from .automaton import WINDOW, Dfao, _shortlex
from .sequences import (MAX_SIZE, SequenceTable, _dense, _first_seen, _mismatch,
                        count_windows, gen_f, join_ids, max_byte)


class NonpositiveDivisor(ValueError):
    pass


class OracleTooShort(Exception):
    """A needed oracle value lies beyond the table end."""


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


def _check_from_0(oracle: SequenceTable) -> None:
    if oracle.lo != 0:
        raise ValueError("synthesis expects an oracle table starting at index 0")


# the walk keys the numerals below this by their value, the rest by X(n)
WALK_FROM = 6
# the walk counts F to this index: the rule scan to a = WALK_F // 2 realizes
# every window of F, the last first at a = 232, and no shorter F does
WALK_F = 465


def _walk() -> tuple[list, Dfao]:
    """discover's walk: the keys of its states in breadth-first order, and
    the window automaton over them.  It counts its own F to WALK_F, and
    each 4-window's image F(2a), F(2a+1) is the one rules.derive_rules
    reads on that F at the window's least a > 3."""
    f = gen_f(WALK_F)
    vals = f.byte_values()
    rule = rules.derive_rules(f, rules.DERIVATION_START, WALK_F // 2)
    images = {bytes(w): bytes((rule.even_rule[w], rule.odd_rule[w])) for w in rule.domain}
    succ = {}

    def step(key) -> list:
        if isinstance(key, int):  # the numeral 2n + d, or X(2n + d) from F
            succ[key] = [n if n < WALK_FROM else bytes(vals[n - 4:n + 3])
                         for n in (2 * key, 2 * key + 1)]
        else:  # X(a) -> F(2a-4..2a+3), the images of its windows at a-2..a+1
            y = b"".join(images[key[j:j + 4]] for j in range(4))
            succ[key] = [y[:7], y[1:]]
        return succ[key]

    keys = [key for key, _ in _shortlex(0, step)]
    index = {key: s for s, key in enumerate(keys)}
    return keys, Dfao(
        alphabet_size=2,
        initial=0,
        transitions=[[index[t] for t in succ[key]] for key in keys],
        outputs=[f.windows_at((key,)) if isinstance(key, int) else key[2:6]
                 for key in keys],
        output_kind=WINDOW,
    )


def discover() -> tuple[list, Dfao]:
    """keys and m: m is _walk's automaton, minimized (Dfao.minimize), its
    states in shortlex order of their access strings, which name them, each
    output the 4-window at its access value; keys[s] is the key of the
    walked state that s's access string reaches.  It checks nothing:
    cross-validation and certification do."""
    keys, walked = _walk()
    m = walked.minimize()
    return [keys[walked.walk("" if name == "eps" else name)] for name in m.names], m


def synthesize_msb() -> Dfao:
    """Conjecture the window automaton for F, each state annotated with the
    4-window at its access value; certification comes separately."""
    m = discover()[1]
    # digit 0 must fix the initial state, else leading zeros would change results
    if m.transitions[m.initial][0] != m.initial:
        raise AssertionError("discovery broke leading-zero stability")
    return m


class Validation(namedtuple("Validation", "passed first_mismatch n_max")):
    """cross_validate's verdict on [0, n_max]: passed, a bool, and
    first_mismatch, the least failing n or None."""

    __slots__ = ()


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


# cross_validate joins this many rows of the stride table a string at a time
CHUNK_ROWS = 256


def cross_validate(m: Dfao, oracle: SequenceTable, n_max: int) -> Validation:
    """Compare the automaton against the oracle for every n in [0, n_max].

    A mismatch is a verdict, not an error; the verdict names the least
    failing n.  An oracle must start at index 0 and n_max must be at least
    0: either fault raises ValueError, whichever output kind m has.

    An output of w bytes, the window F(n-2..n+1) (w = 4) or F(n) alone
    (w = 1), is compared with the oracle's w bytes at n, F(-2) = F(-1) = 0.
    The walk reads the stride table T of Dfao.stride_table, of width W:
    state(n) = T[state(n // W), n % W] from n = W on, so a row of T has one
    string of output bytes j per state (W = q^k, and a q-automatic sequence
    is q^k-automatic: Allouche & Shallit, Automatic Sequences, Thm 6.6.4).
    Output byte j of every n is then the string of the numerals below W
    followed by the row strings of state(1), state(2), ..., state(n_max //
    W), joined CHUNK_ROWS rows at a time and compared with F's bytes from
    n - 2 + j (window) or n (single).  It holds the states to max(n_max //
    W, W - 1), the row strings and one chunk.
    """
    _check_from_0(oracle)
    if n_max < 0:
        raise ValueError(f"cross_validate needs n_max >= 0, got {n_max}")
    w = 4 if m.output_kind == WINDOW else 1
    back = 2 if w == 4 else 0  # byte j of the output at n is F(n - back + j)
    if oracle.hi < n_max + w - 1 - back:
        raise OracleTooShort(f"oracle ends at {oracle.hi}, need {n_max + w - 1 - back}")
    outputs = bytes(m.outputs if w == 1 else (b for o in m.outputs for b in o))
    table = m.stride_table
    width = len(table) // m.state_count
    head = _states_upto(m, max(n_max // width, width - 1))

    def output_bytes(states: array, out: bytes) -> bytes:  # out[s] for each s
        if states.itemsize == 1:
            return states.tobytes().translate(out.ljust(256, b"\0"))
        return bytes(map(out.__getitem__, states))

    strings = []  # per output byte j: the numerals below W, and each row of T
    for j in range(w):
        out = outputs[j::w]
        rows = output_bytes(table, out)
        strings.append((output_bytes(head[:width], out),
                        [rows[i:i + width] for i in range(0, len(rows), width)]))
    vals = oracle.byte_values()
    last = n_max // width  # the row of n_max
    for b0 in range(0, last + 1, CHUNK_ROWS):
        b1 = min(b0 + CHUNK_ROWS, last + 1)
        lo, end = b0 * width, min(b1 * width, n_max + 1)
        misses = []
        for j, (numerals, rows) in enumerate(strings):
            got = b"".join(map(rows.__getitem__, head[max(b0, 1):b1]))
            got = (numerals + got if b0 == 0 else got)[:end - lo]
            at, to = lo - back + j, end - back + j  # F(at..to - 1), F(-2) = F(-1) = 0
            want = bytes(vals[max(at, 0):max(to, 0)]).rjust(end - lo, b"\0")
            if got != want:
                misses.append(_mismatch(got, want))
        if misses:
            return Validation(False, lo + min(misses), n_max)
    return Validation(True, None, n_max)


# the family 0^depth 1 from the initial state reads F(2^(depth + 1) + 1),
# which must lie in the oracle's 32-bit range
MAX_DEPTH = MAX_SIZE.bit_length() - 2


def check_bounds(*, validate_to: int = 2, depth: int = 2) -> None:
    """ValueError unless the pipeline can take these bounds; each defaults
    to the least value it takes, so a caller names only what it has."""
    if validate_to < 2:
        raise ValueError("validate_to must be >= 2")
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth must be <= {MAX_DEPTH}: the certificate reads F "
                         f"past 2^{depth + 1}, beyond the oracle's 32-bit range")


def synthesize_validated(oracle: SequenceTable,
                         validate_to: int) -> tuple[Dfao, Validation]:
    """Synthesize and cross-validate on [0, validate_to] (cut to the oracle).
    A mismatch, the machine walked from F(0..WALK_F) disagreeing with the
    oracle, raises CertificationFailure naming the least failing n."""
    check_bounds(validate_to=validate_to)
    m = synthesize_msb()
    verdict = cross_validate(m, oracle, min(validate_to, oracle.hi - 1))
    if not verdict.passed:
        n = verdict.first_mismatch
        raise CertificationFailure(f"automaton disagrees with the oracle at n = {n}",
                                   witness=str(n))
    return m, verdict


# -- certification ------------------------------------------------------------

class TransitionCertificate(namedtuple("TransitionCertificate",
                                        "from_name digit to_name family_depth")):
    """A certified transition from_name -digit-> to_name, its boundary
    families checked to family_depth."""

    __slots__ = ()


class CertificateReport(namedtuple(
        "CertificateReport", "transitions states_checked propagation_checked_to "
        "depth prefix_hi windows_read pairs_compared")):
    """What certify_transitions checked: the transitions, a tuple of
    TransitionCertificate, and the ints format() prints.  Besides those, it
    records what it read: prefix_hi, the last index of the F prefix it was
    given, which it read whole, past which it read only the planned
    windows; windows_read, the windows at cert_plan's indices, each read
    once; and pairs_compared, the window pairs compared, one per state
    output and one per transition and extension."""

    __slots__ = ()

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


# the rule domain: every window the doubling rules propagate must first
# appear at some a <= RULES_TO
RULES_TO = 2 ** 20


def certify_transitions(m: Dfao, f: SequenceTable, depth: int,
                        validate_to: int) -> CertificateReport:
    """Run the inductive correctness scheme against F.

    Per state: the output window equals F's window at the state's access
    value.  Per transition u -d-> v: F's windows agree at [u d] and [v],
    and at [u d x] and [v x] for the boundary families x in {0^j, 0^j 1,
    1^j}, 1 <= j <= depth.  Globally: the doubling rules reproduce F(2a)
    and F(2a+1) for every a in (3, validate_to/2], which is the step
    carrying window equality from each extension length to the next.  The
    rules are derived from f on that range in one scan (none where it holds
    no a), and every window they map must first appear at an a <= RULES_TO,
    the rule domain.  Any failed check raises CertificationFailure naming a
    witness; a table f that does not start at index 0 raises ValueError
    first, and one too short for the rule propagation, F to
    2 (validate_to // 2) + 1, raises OracleTooShort.

    f is gen_f's table, F's prefix; the planned windows (cert_plan(m,
    depth)) are read through sequences.count_windows, sliced from f where
    it holds them and counted on past it, each read once.  The windows of
    every transition and extension are joined into two byte strings
    compared at once, listed in the order the checks are stated, so the
    first failing pair names the failure.  The rule propagation is
    rules.derive_rules on f, whose compare runs compiled or in Python as
    rules._scan says: a window demanding two images fails at the least a
    where it does.
    """
    _check_from_0(f)
    if m.output_kind != WINDOW:
        raise CertificationFailure("certification applies to window automata")
    if m.alphabet_size != 2:
        raise CertificationFailure("certification scheme is specific to base 2")
    values, exts, edges, left_at, right_at, plan = _family_reads(m, depth)
    prop_to = validate_to // 2
    if f.hi < 2 * prop_to + 1:
        raise OracleTooShort(
            f"oracle ends at {f.hi}; rule propagation to {prop_to} needs "
            f"{2 * prop_to + 1}")
    read = count_windows(f, [*values, *left_at, *right_at])
    half = 4 * len(left_at)
    outs, left, right = read[:-2 * half], read[-2 * half:-half], read[-half:]

    # (a) output windows
    for s in range(m.state_count):
        truth = tuple(outs[4 * s:4 * s + 4])
        if tuple(m.outputs[s]) != truth:
            raise CertificationFailure(
                f"state output {m.outputs[s]} != oracle window {truth}",
                from_name=m.names[s], witness=m.names[s])

    # (b) base case and boundary families per transition, every pair of
    # windows in one compare: row (s, d) holds [u d x] and [v x] for
    # x = the empty string, then 0^j, 0^j 1, 1^j for j = 1..depth
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
    if prop_to >= rules.DERIVATION_START:
        try:
            first_seen = rules.derive_rules(f, rules.DERIVATION_START, prop_to).first_seen
        except rules.RuleConflict as e:
            raise CertificationFailure(
                f"doubling rules disagree with the oracle at a = {e.a_second}",
                witness=str(e.a_second)) from None
        for w, a in first_seen.items():  # the least a first: scans list windows by a
            if a > RULES_TO:
                raise CertificationFailure(
                    f"window {w} at a = {a} outside the rule domain", witness=str(a))

    return CertificateReport(
        transitions=tuple(certs),
        states_checked=m.state_count,
        propagation_checked_to=prop_to,
        depth=depth,
        prefix_hi=f.hi,
        windows_read=len(plan),
        pairs_compared=m.state_count + len(left_at),
    )


# -- kernel-size probe ---------------------------------------------------------

class ProbeLevel(namedtuple("ProbeLevel", "level block_len samples distinct")):
    """One level of kernel_probe: distinct blocks of block_len among samples."""

    __slots__ = ()


class ProbeReport(namedtuple("ProbeReport", "q depth prefix_len levels truncated")):
    """kernel_probe's counts: levels, a tuple of ProbeLevel, and truncated,
    whether the oracle ran out before the requested depth."""

    __slots__ = ()

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

    Each level from E on keeps one id per block, equal ids for equal
    blocks.  Level E is the deepest whose blocks are uncut, q^E bytes each,
    with a space of k^(q^E) tuples small enough to tabulate, k = 1 + the
    largest byte (E = 3 for F's five values at q = 2, and 4 for V's two
    steps): its ids are the join of the bytes, q^E at a time.  A block q
    times as long as the one before is the q blocks of the level before it
    (Allouche & Shallit, Automatic Sequences, Thm 6.6.2), so its id is the
    tuple of their ids; a block cut to ``prefix_len`` like the one before
    is that level's block at q n.  Only a level that cuts its block to a
    length of neither kind compares the bytes of its blocks.  The levels
    below E are never numbered: each of their blocks lies inside a level-E
    block, but for the few at the table's two ends, so their distinct
    blocks are the pieces of the distinct level-E blocks, found at their
    first appearances, and those few.

    Every join goes through sequences.join_ids, from the ids of the level
    before, or from the bytes for level E and for a level that cuts its
    blocks to a length of neither kind.  Only the counts are reported.
    """
    check_probe_args(q, depth, prefix_len)
    vals = table.byte_values()
    lo, hi = table.lo, table.hi
    shapes = []  # (q^e, block, n0, count) for each level with two blocks
    step = 1
    for e in range(depth + 1):
        block = min(prefix_len, step)
        n0 = -(-lo // step)
        count = (hi - block + 1) // step - n0 + 1
        if count < 2:
            break
        shapes.append((step, block, n0, count))
        step *= q
    levels = []
    if shapes:
        byte_k = max_byte(vals) + 1  # the byte values as ids below byte_k
        top = 0  # E
        for step, block, _, count in shapes[1:]:
            if block < step or not _dense(byte_k ** block, count):
                break
            top += 1
        _, block, n0, count = shapes[top]
        first, end = n0 * block - lo, (n0 + count) * block - lo
        ids, k = join_ids(vals, byte_k, first, block, block, count)
        seen = [bytes(vals[first + block * i:first + block * (i + 1)])
                for i in _first_seen(ids, k)]
        for e, (size, _, n0_e, count_e) in enumerate(shapes[:top]):
            start = n0_e * size - lo
            pieces = {b[j:j + size] for b in seen for j in range(0, block, size)}
            pieces.update(bytes(vals[i:i + size]) for i in (
                *range(start, first, size), *range(end, start + size * count_e, size)))
            levels.append(ProbeLevel(e, size, count_e, len(pieces)))
        levels.append(ProbeLevel(top, block, count, k))
        prev_block, prev_n0 = block, n0
        for e in range(top + 1, len(shapes)):
            step, block, n0, count = shapes[e]
            if block in (prev_block, q * prev_block):
                # level e-1's blocks q n + j
                parts = 1 if block == prev_block else q
                ids, k = join_ids(ids, k, q * n0 - prev_n0, q, parts, count)
            else:
                ids, k = join_ids(vals, byte_k, n0 * step - lo, step, block, count)
            levels.append(ProbeLevel(e, block, count, k))
            prev_block, prev_n0 = block, n0
    return ProbeReport(q=q, depth=depth, prefix_len=prefix_len,
                       levels=tuple(levels), truncated=len(shapes) < depth + 1)
