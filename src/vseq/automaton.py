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

from dataclasses import dataclass
from typing import Iterable, Union

WINDOW = "window"
SINGLE = "single"

OUTPUT_DIGITS = range(0, 5)  # output alphabet 0..4

Output = Union[int, tuple[int, int, int, int]]


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


def _decimal_int(s: str) -> int:
    """int(s) for a numeral of ASCII digits of any length.

    Past CPython's str -> int digit limit, int(s) raises ValueError; the
    halves are then converted separately and joined, so the process-wide
    limit stays as it is.
    """
    try:
        return int(s)
    except ValueError:
        k = len(s) // 2
        return _decimal_int(s[:-k]) * 10 ** k + _decimal_int(s[-k:])


def _is_digits(tok: str) -> bool:
    """Only ASCII digits: str.isdigit() alone also passes '²' and '١', and
    int() takes signs, underscores and digits of other scripts."""
    return tok.isascii() and tok.isdigit()


def _format_output(out: Output, kind: str) -> str:
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


@dataclass(frozen=True)
class Dfao:
    alphabet_size: int
    initial: int
    transitions: tuple[tuple[int, ...], ...]  # [state][digit] -> state
    outputs: tuple[Output, ...]
    output_kind: str
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "transitions",
                           tuple(tuple(row) for row in self.transitions))
        object.__setattr__(self, "outputs", tuple(
            tuple(o) if self.output_kind == WINDOW else o for o in self.outputs))
        if not self.names:
            object.__setattr__(self, "names",
                               tuple(f"q{i}" for i in range(len(self.transitions))))
        else:
            object.__setattr__(self, "names", tuple(self.names))
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

    def eval(self, digits: Iterable[int] | str) -> Output:
        """Output after reading the digits MSB-first; '' is n = 0."""
        return self.outputs[self.walk(digits)]

    def eval_big(self, n: int | str) -> Output:
        """Output at index n, given as an int or decimal numeral of any length.

        Work is polynomial in the numeral length (base conversion) plus one
        automaton step per base-q digit.
        """
        if isinstance(n, str):
            if not _is_digits(n):
                raise BadNumeral(f"not a decimal numeral: {n[:30]!r}")
            n = _decimal_int(n)
        elif n < 0:
            raise BadNumeral("n must be nonnegative")
        return self.eval(base_digits(n, self.alphabet_size))

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
        seen_out: dict[Output, int] = {}
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
        states: dict[int, tuple[str, Output]] = {}
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
                    out: Output = tuple(int(c) for c in out_tok)
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
        if sorted(states) != list(range(n)):
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
