"""Verbatim transcriptions of the reference tables for the two automata,
and a differ that reconciles them against synthesized ground truth.

The printed tables are data, never a specification: the transcription keeps
every duplicated name and dangling transition target exactly as printed,
and ``diff_report`` explains each inconsistency by matching rows against a
certified synthesized automaton.  The report proposes a correction only
when exactly one truth state accounts for a printed row.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache

from .automaton import WINDOW, SINGLE, Dfao, _format_output

PAPER_TYPO = "paper-typo-candidate"
UNRESOLVED = "unresolved"

Row = tuple[str, str, str, str]  # name, target on 0, target on 1, output


class PrintedTable(namedtuple("PrintedTable",
                               "label rows claimed_state_count output_kind")):
    """A printed table: its rows, a tuple of Row, as printed."""

    __slots__ = ()


def _load(filename: str, label: str, claimed: int, kind: str) -> PrintedTable:
    # imported here, as from Python 3.12 on it imports inspect
    from importlib import resources
    text = resources.files("vseq.data").joinpath(filename).read_text()
    rows = tuple(tuple(line.split()) for line in text.splitlines() if line.strip())
    return PrintedTable(label=label, rows=rows, claimed_state_count=claimed,
                        output_kind=kind)


@cache
def table1() -> PrintedTable:
    """The 33-row window-automaton table (claimed 33 states), as printed."""
    return _load("table_a.txt", "A", 33, WINDOW)


@cache
def table2() -> PrintedTable:
    """The 19-row minimized-automaton table (claimed 20 states), as printed."""
    return _load("table_b.txt", "B", 20, SINGLE)


class Finding(namedtuple("Finding", "kind subject detail classification proposal")):
    """One inconsistency: kind is duplicate-name, row-mismatch,
    unknown-name, missing-row, undefined-reference or count-mismatch;
    classification PAPER_TYPO or UNRESOLVED; proposal a str or None."""

    __slots__ = ()

    def format(self) -> str:
        tail = f" -> {self.proposal}" if self.proposal else ""
        return f"[{self.classification}] {self.kind} {self.subject}: {self.detail}{tail}"


class DiffReport(namedtuple("DiffReport", "table_label findings printed_rows "
                             "claimed_state_count truth_state_count")):
    """diff_report's findings, a tuple of Finding, and the counts it prints."""

    __slots__ = ()

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def all_classified(self) -> bool:
        """True when every finding is a typo candidate with a unique proposal."""
        return all(f.classification == PAPER_TYPO and f.proposal
                   for f in self.findings)

    def format(self) -> str:
        head = (f"table {self.table_label}: {self.printed_rows} printed rows, "
                f"{self.claimed_state_count} claimed states, "
                f"{self.truth_state_count} synthesized states")
        if self.clean:
            return head + "\nno discrepancies\n"
        return head + "\n" + "\n".join(f.format() for f in self.findings) + "\n"


def diff_report(printed: PrintedTable, truth: Dfao) -> DiffReport:
    """Align printed rows with truth states and classify every discrepancy.

    ``truth`` must come out of the synthesis pipeline (certified and
    cross-validated), with canonical access-string names; alignment is by
    name first, then by unique full-row match for misprinted names.
    """
    if truth.alphabet_size != 2 or truth.output_kind != printed.output_kind:
        raise ValueError("truth automaton does not fit the printed table")
    truth_names = {truth.names[s]: s for s in range(truth.state_count)}
    truth_rows = {
        s: (truth.names[truth.transitions[s][0]],
            truth.names[truth.transitions[s][1]],
            _format_output(truth.outputs[s], truth.output_kind))
        for s in range(truth.state_count)
    }
    by_data: dict[tuple[str, str, str], list[int]] = {}
    for s, data in truth_rows.items():
        by_data.setdefault(data, []).append(s)
    printed_by_data: dict[tuple[str, str, str], list[str]] = {}
    for name, on0, on1, out in printed.rows:
        printed_by_data.setdefault((on0, on1, out), []).append(name)

    findings: list[Finding] = []
    name_counts = Counter(r[0] for r in printed.rows)
    row_resolved: set[str] = set()  # truth names carried by some printed row
    dup_reported: set[str] = set()

    for i, (name, on0, on1, out) in enumerate(printed.rows):
        data = (on0, on1, out)
        if name in truth_names and truth_rows[truth_names[name]] == data:
            row_resolved.add(name)
            continue
        matches = by_data.get(data, [])
        if name_counts[name] > 1:
            kind = "duplicate-name"
            dup_reported.add(name)
            detail = f"name printed {name_counts[name]} times; row {i + 1} is {data}"
        elif name in truth_names:
            kind = "row-mismatch"
            detail = f"printed {data}, synthesized {truth_rows[truth_names[name]]}"
        else:
            kind = "unknown-name"
            detail = f"no synthesized state is named {name}; row is {data}"
        if kind == "row-mismatch":
            # name alignment is trusted; the unique correction is truth's row
            proposal = f"read the {name} row as {truth_rows[truth_names[name]]}"
            cls = PAPER_TYPO
            row_resolved.add(name)
        elif len(matches) == 1:
            target = truth.names[matches[0]]
            proposal = f"row {i + 1} matches synthesized state {target}"
            cls = PAPER_TYPO
            row_resolved.add(target)
        else:
            proposal = None
            cls = UNRESOLVED
        findings.append(Finding(kind, name, detail, cls, proposal))

    for name, k in name_counts.items():
        if k > 1 and name not in dup_reported:
            findings.append(Finding("duplicate-name", name,
                                    f"identical row printed {k} times",
                                    PAPER_TYPO, "drop the repeats"))

    defined = {r[0] for r in printed.rows}
    referenced: dict[str, list[tuple[str, int]]] = {}
    for name, on0, on1, _ in printed.rows:
        for d, tgt in ((0, on0), (1, on1)):
            if tgt not in defined:
                referenced.setdefault(tgt, []).append((name, d))
    truly_missing: set[str] = set()
    for tgt, sites in referenced.items():
        where = ", ".join(f"{n} on {d}" for n, d in sites)
        if tgt in truth_names:
            data = truth_rows[truth_names[tgt]]
            under = printed_by_data.get(data, [])
            if under:
                proposal = (f"state {tgt} is printed under the name "
                            f"{under[0]}; its row is {data}")
            else:
                proposal = f"add the missing row {tgt}: {data}"
                truly_missing.add(tgt)
            findings.append(Finding("missing-row", tgt,
                                    f"referenced by {where} but never defined",
                                    PAPER_TYPO, proposal))
        else:
            actual = {truth.names[truth.transitions[truth_names[n]][d]]
                      for n, d in sites if n in truth_names}
            if len(actual) == 1:
                proposal = f"every reference to {tgt} should read {actual.pop()}"
                cls = PAPER_TYPO
            else:
                proposal = None
                cls = UNRESOLVED
            findings.append(Finding("undefined-reference", tgt,
                                    f"referenced by {where} but never defined; "
                                    "not a synthesized state",
                                    cls, proposal))

    for s in range(truth.state_count):
        name = truth.names[s]
        if name not in row_resolved and name not in truly_missing:
            findings.append(Finding("missing-row", name,
                                    "synthesized state absent from the printed "
                                    "table and never referenced",
                                    UNRESOLVED, None))

    counts = (len(printed.rows), printed.claimed_state_count, truth.state_count)
    if len(set(counts)) > 1:
        accounted = len(row_resolved) + len(truly_missing)
        if (printed.claimed_state_count == truth.state_count
                and accounted == truth.state_count
                and all(f.classification == PAPER_TYPO for f in findings)):
            proposal = (f"the printed rows resolve to {len(row_resolved)} distinct "
                        f"states and the {len(truly_missing)} missing row(s) "
                        f"reported above complete the claimed count")
            cls = PAPER_TYPO
        else:
            proposal = None
            cls = UNRESOLVED
        detail = (f"{counts[0]} printed rows, {counts[1]} claimed states, "
                  f"{counts[2]} synthesized states")
        findings.append(Finding("count-mismatch", printed.label, detail, cls,
                                proposal))

    return DiffReport(
        table_label=printed.label,
        findings=tuple(findings),
        printed_rows=len(printed.rows),
        claimed_state_count=printed.claimed_state_count,
        truth_state_count=truth.state_count,
    )
