"""Deterministic finite automaton with output (DFAO).

Input is read MSB-first: the automaton consumes the base-q digits of n from
the most significant end, and the output attached to the final state is the
value at n.  The empty digit string represents n = 0, so leading zeros never
change the result on automata whose initial state fixes digit 0.

Two output kinds exist: ``window`` states carry a 4-tuple of digits
(the values F(n-2..n+1) in this project), ``single`` states carry one digit.
Automata are immutable once built; evaluation is pure and thread-safe.
"""

from __future__ import annotations

import functools
import operator
from array import array
from collections.abc import Iterable

from ._record import Record

WINDOW = "window"
SINGLE = "single"

OUTPUT_DIGITS = range(0, 5)  # output alphabet 0..4


class BadDigit(Exception):
    """Input digit outside the automaton's alphabet."""


class BadNumeral(Exception):
    """Not a valid decimal numeral."""


class NotWindowKind(Exception):
    """Operation requires window outputs."""


class KindMismatch(Exception):
    """Operands differ in alphabet size or output kind."""


class ParseError(Exception):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


def base_digits(n: int, q: int) -> list[int]:
    """Base-q digits of n, MSB first; n = 0 gives the empty list."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if q == 2:
        return [int(c) for c in bin(n)[2:]] if n else []
    digits: list[int] = []
    while n:
        n, r = divmod(n, q)
        digits.append(r)
    digits.reverse()
    return digits


def _decimal_int(s: str, pow10=None) -> int:
    """int(s) for a numeral of ASCII digits of any length.

    Past CPython's str -> int digit limit, int(s) raises ValueError; the
    halves are then converted separately and joined, so the process-wide
    limit stays as it is.  pow10 computes each 10 ** k once per conversion:
    the halves at one depth differ in length by at most one, so a 10^5-digit
    numeral needs 5 distinct powers for its 31 joins.
    """
    try:
        return int(s)
    except ValueError:
        pow10 = pow10 or functools.cache((10).__pow__)
        k = len(s) // 2
        return _decimal_int(s[:-k], pow10) * pow10(k) + _decimal_int(s[-k:], pow10)


def _is_digits(tok: str) -> bool:
    """Only ASCII digits: str.isdigit() alone also passes '²' and '١', and
    int() takes signs, underscores and digits of other scripts."""
    return tok.isascii() and tok.isdigit()


def _format_output(out: int | tuple[int, ...], kind: str) -> str:
    if kind == WINDOW:
        return "".join(map(str, out))
    return str(out)


def _shortlex(start, successors):
    """Each node reachable from start, with its shortlex-least access
    string, in shortlex order of those strings: a breadth-first walk that
    takes each node's successors, listed by digit by ``successors(node)``,
    in digit order."""
    access = {start: ""}
    queue = [start]
    for node in queue:  # the queue grows while it is walked
        w = access[node]
        yield node, w
        for d, t in enumerate(successors(node)):
            if t not in access:
                access[t] = w + str(d)
                queue.append(t)


class Dfao(Record):
    """An immutable automaton: Record's equality, hash and repr over its
    fields, which are converted to tuples and checked when it is built."""

    _fields = ("alphabet_size", "initial", "transitions", "outputs", "output_kind",
               "names")

    def __init__(self, alphabet_size: int, initial: int,
                 transitions: Iterable[Iterable[int]],  # [state][digit] -> state
                 outputs: Iterable[int | tuple[int, ...]], output_kind: str,
                 names: Iterable[str] = ()) -> None:
        transitions = tuple(tuple(row) for row in transitions)
        super().__init__(
            alphabet_size, initial, transitions,
            tuple(tuple(o) if output_kind == WINDOW else o for o in outputs),
            output_kind, tuple(names) or tuple(f"q{i}" for i in range(len(transitions))))
        self._validate()

    def _validate(self) -> None:
        n = len(self.transitions)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be >= 2")
        if self.output_kind not in (WINDOW, SINGLE):
            raise ValueError(f"unknown output_kind {self.output_kind!r}")
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state {self.initial} out of range")
        if len(self.outputs) != n or len(self.names) != n:
            raise ValueError("outputs/names must have one entry per state")
        for s, row in enumerate(self.transitions):
            if len(row) != self.alphabet_size:
                raise ValueError(f"state {s}: expected {self.alphabet_size} "
                                 f"transitions, got {len(row)}")
            for t in row:
                if not 0 <= t < n:
                    raise ValueError(f"state {s}: target {t} out of range")
        for s, out in enumerate(self.outputs):
            if self.output_kind == WINDOW:
                if len(out) != 4 or any(d not in OUTPUT_DIGITS for d in out):
                    raise ValueError(f"state {s}: bad window output {out!r}")
            elif out not in OUTPUT_DIGITS:
                raise ValueError(f"state {s}: bad output {out!r}")

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    @functools.cached_property
    def stride_table(self) -> array:
        """δ composed over k digits, for the largest k >= 1 with q^k <= 256
        (k = 8 in base 2, k = 1 from q = 17): the state reached from s on
        the k-digit numeral of w, leading zeros included, at s W + w, with
        W = q^k.  One row of W states per state, in an ``array`` of the
        narrowest typecode: 'B', rows of bytes, up to 256 states.  Built
        once per automaton, on first use: row s for k + 1 digits is the
        rows for k digits of δ(s, 0), ..., δ(s, q - 1), joined."""
        n, q = self.state_count, self.alphabet_size
        code = "B" if n <= 1 << 8 else "H" if n <= 1 << 16 else "I"
        rows = [array(code, row) for row in self.transitions]
        width = q
        while width * q <= 256:
            rows = [functools.reduce(operator.add, map(rows.__getitem__, row))
                    for row in self.transitions]
            width *= q
        return functools.reduce(operator.iadd, rows, array(code))

    @functools.cached_property
    def _stride_rows(self) -> tuple[tuple[int, ...], ...]:
        """stride_table's rows as tuples, which Python indexes about three
        times faster than an array: row s holds the W states of T[s, w]."""
        table = self.stride_table
        width = len(table) // self.state_count
        return tuple(tuple(table[i:i + width]) for i in range(0, len(table), width))

    # -- evaluation ---------------------------------------------------------

    def walk(self, digits: Iterable[int] | str) -> int:
        """State reached from the initial state on the digit string."""
        state = self.initial
        q = self.alphabet_size
        trans = self.transitions
        for d in digits:
            if isinstance(d, str):
                if not "0" <= d <= "9":
                    raise BadDigit(f"non-digit character {d!r}")
                d = ord(d) - 48
            if not 0 <= d < q:
                raise BadDigit(f"digit {d} outside alphabet of size {q}")
            state = trans[state][d]
        return state

    def eval(self, digits: Iterable[int] | str) -> int | tuple[int, ...]:
        """Output after reading the digits MSB-first; '' is n = 0."""
        return self.outputs[self.walk(digits)]

    def eval_big(self, n: int | str) -> int | tuple[int, ...]:
        """Output at index n, given as an integer or a decimal numeral of any
        length.

        Work is the base conversion, polynomial in the numeral's length, plus
        one stride-table lookup per base-W digit of n (per byte in base 2):
        see _walk_int.
        """
        if isinstance(n, str):
            if not _is_digits(n):
                raise BadNumeral(f"not a decimal numeral: {n[:30]!r}")
            n = _decimal_int(n)
        else:
            n = operator.index(n)
            if n < 0:
                raise BadNumeral("n must be nonnegative")
        return self.outputs[self._walk_int(n)]

    def _walk_int(self, n: int) -> int:
        """walk(base_digits(n, q)) for n >= 0, through the stride table of
        width W = q^k: one row lookup per base-W digit of n, which are n's
        bytes when W = 256.  Each base-W digit is k base-q digits, leading
        zeros included, so where digit 0 moves the initial state the top one
        is walked a base-q digit at a time, from its numeral."""
        rows = self._stride_rows
        width = len(rows[0])
        chunks = (n.to_bytes(-(-n.bit_length() // 8), "big") if width == 256
                  else base_digits(n, width))
        state, trans = self.initial, self.transitions
        if chunks and trans[state][0] != state:
            for d in base_digits(chunks[0], self.alphabet_size):
                state = trans[state][d]
            chunks = chunks[1:]
        for w in chunks:
            state = rows[state][w]
        return state

    # -- transformations ----------------------------------------------------

    def project_output(self) -> "Dfao":
        """Replace each window output by its third component, which holds
        F(n) in the window F(n-2..n+1)."""
        if self.output_kind != WINDOW:
            raise NotWindowKind("outputs are not windows")
        return Dfao(
            alphabet_size=self.alphabet_size,
            initial=self.initial,
            transitions=self.transitions,
            outputs=tuple(o[2] for o in self.outputs),
            output_kind=SINGLE,
            names=self.names,
        )

    def minimize(self) -> "Dfao":
        """The minimal automaton computing the same function, by Moore
        partition refinement from the output partition.

        States of the result are ordered and named by their shortlex-least
        access strings (the empty access string prints as 'eps'): each class
        is numbered by its first member in the shortlex walk of this
        automaton, whose access string is the least one reaching the class.
        """
        walk = list(_shortlex(self.initial, self.transitions.__getitem__))
        # refine: class signature = (own class, classes of successors)
        cls: dict[int, int] = {}
        seen_out: dict[int | tuple[int, ...], int] = {}
        for s, _ in walk:
            cls[s] = seen_out.setdefault(self.outputs[s], len(seen_out))
        while True:
            keys: dict[tuple, int] = {}
            new: dict[int, int] = {}
            for s, _ in walk:
                k = (cls[s], tuple(cls[t] for t in self.transitions[s]))
                new[s] = keys.setdefault(k, len(keys))
            if new == cls:
                break
            cls = new
        first: dict[int, tuple[int, str]] = {}  # class -> (member, access)
        for s, w in walk:
            first.setdefault(cls[s], (s, w))
        pos = {c: i for i, c in enumerate(first)}
        return Dfao(
            alphabet_size=self.alphabet_size,
            initial=0,
            transitions=tuple(tuple(pos[cls[t]] for t in self.transitions[s])
                              for s, _ in first.values()),
            outputs=tuple(self.outputs[s] for s, _ in first.values()),
            output_kind=self.output_kind,
            names=tuple(w if w else "eps" for _, w in first.values()),
        )

    def equivalent(self, other: "Dfao") -> tuple[bool, str | None]:
        """The shortlex walk over reachable state pairs.

        Returns (True, None) or (False, w) with w the shortlex-least digit
        string on which the outputs differ: the access string of the first
        pair in the walk whose outputs differ.
        """
        if (self.alphabet_size != other.alphabet_size
                or self.output_kind != other.output_kind):
            raise KindMismatch("alphabet size and output kind must agree")

        def successors(pair: tuple[int, int]):
            return zip(self.transitions[pair[0]], other.transitions[pair[1]])

        for (s1, s2), w in _shortlex((self.initial, other.initial), successors):
            if self.outputs[s1] != other.outputs[s2]:
                return False, w
        return True, None

    # -- text formats ---------------------------------------------------------

    def serialize(self) -> str:
        lines = [f"dfao {self.state_count} {self.alphabet_size} {self.output_kind}",
                 f"initial {self.initial}"]
        for s in range(self.state_count):
            lines.append(
                f"state {s} {self.names[s]} "
                f"{_format_output(self.outputs[s], self.output_kind)}")
        for s in range(self.state_count):
            for d in range(self.alphabet_size):
                lines.append(f"trans {s} {d} {self.transitions[s][d]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "Dfao":
        header = None
        initial = None
        states: dict[int, tuple[str, int | tuple[int, ...]]] = {}
        trans: dict[tuple[int, int], int] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 4 or parts[0] != "dfao":
                    raise ParseError(line_no, f"expected 'dfao <n> <q> <kind>', got {raw!r}")
                if not (_is_digits(parts[1]) and _is_digits(parts[2])):
                    raise ParseError(line_no, "state count and alphabet size must be integers")
                n, q = int(parts[1]), int(parts[2])
                kind = parts[3]
                if kind not in (WINDOW, SINGLE):
                    raise ParseError(line_no, f"unknown output kind {kind!r}")
                header = (n, q, kind)
                continue
            n, q, kind = header
            if parts[0] == "initial":
                if len(parts) != 2 or not _is_digits(parts[1]):
                    raise ParseError(line_no, "expected 'initial <state_id>'")
                initial = int(parts[1])
            elif parts[0] == "state":
                if len(parts) != 4:
                    raise ParseError(line_no, "expected 'state <id> <name> <output>'")
                if not _is_digits(parts[1]):
                    raise ParseError(line_no, "state id must be an integer")
                sid = int(parts[1])
                if sid in states:
                    raise ParseError(line_no, f"duplicate state id {sid}")
                out_tok = parts[3]
                if kind == WINDOW:
                    if len(out_tok) != 4 or not _is_digits(out_tok):
                        raise ParseError(line_no, f"window output must be 4 digits, got {out_tok!r}")
                    out: int | tuple[int, ...] = tuple(int(c) for c in out_tok)
                else:
                    if len(out_tok) != 1 or not _is_digits(out_tok):
                        raise ParseError(line_no, f"single output must be 1 digit, got {out_tok!r}")
                    out = int(out_tok)
                states[sid] = (parts[2], out)
            elif parts[0] == "trans":
                if len(parts) != 4:
                    raise ParseError(line_no, "expected 'trans <from> <digit> <to>'")
                if not all(map(_is_digits, parts[1:])):
                    raise ParseError(line_no, "trans fields must be integers")
                frm, d, to = map(int, parts[1:])
                if (frm, d) in trans:
                    raise ParseError(line_no, f"duplicate transition ({frm}, {d})")
                trans[(frm, d)] = to
            else:
                raise ParseError(line_no, f"unknown directive {parts[0]!r}")
        if header is None:
            raise ParseError(1, "empty input")
        n, q, kind = header
        if initial is None:
            raise ParseError(1, "missing 'initial' line")
        if len(states) != n or any(sid >= n for sid in states):
            raise ParseError(1, f"expected state ids 0..{n - 1}")
        rows = []
        for s in range(n):
            row = []
            for d in range(q):
                if (s, d) not in trans:
                    raise ParseError(1, f"missing transition ({s}, {d})")
                row.append(trans[(s, d)])
            rows.append(tuple(row))
        if len(trans) != n * q:
            raise ParseError(1, "transitions for unknown states present")
        try:
            return cls(
                alphabet_size=q,
                initial=initial,
                transitions=tuple(rows),
                outputs=tuple(states[s][1] for s in range(n)),
                output_kind=kind,
                names=tuple(states[s][0] for s in range(n)),
            )
        except ValueError as e:
            raise ParseError(1, str(e)) from None

    def to_dot(self) -> str:
        """Graphviz digraph: nodes labeled name/output, edges labeled by digit.

        Output is deterministic (states by id, edges by digit), so repeated
        renders of the same automaton are byte-identical.
        """
        lines = ["digraph dfao {", "  rankdir=LR;", "  node [shape=circle];",
                 '  __start [shape=point];',
                 f'  __start -> "{self.names[self.initial]}";']
        for s in range(self.state_count):
            label = f"{self.names[s]}/{_format_output(self.outputs[s], self.output_kind)}"
            lines.append(f'  "{self.names[s]}" [label="{label}"];')
        for s in range(self.state_count):
            for d in range(self.alphabet_size):
                lines.append(
                    f'  "{self.names[s]}" -> "{self.names[self.transitions[s][d]]}"'
                    f' [label="{d}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
