from importlib import resources

import pytest

from vseq import (PAPER_TYPO, PrintedTable, SINGLE, WINDOW, diff_report,
                  table1, table2)
from vseq.automaton import _format_output


def test_table1_shape():
    t = table1()
    assert t.claimed_state_count == 33
    assert len(t.rows) == 33
    assert t.output_kind == WINDOW
    names = [r[0] for r in t.rows]
    assert len(set(names)) == 32  # one duplicated name, kept verbatim
    assert names.count("10111") == 2


def test_table1_spot_rows():
    rows = {i: r for i, r in enumerate(table1().rows)}
    assert rows[0] == ("eps", "eps", "1", "0004")
    by_name = {}
    for r in table1().rows:
        by_name.setdefault(r[0], []).append(r[1:])
    assert by_name["1011"] == [("10110", "10111", "2132")]
    assert by_name["10111"] == [("1101", "1110", "2321"),
                                ("111010", "10111", "2132")]


def test_table2_shape():
    t = table2()
    assert t.claimed_state_count == 20
    assert len(t.rows) == 19  # one row short of the claimed count
    assert t.output_kind == SINGLE
    assert t.rows[0] == ("eps", "eps", "1", "0")


def test_transcription_round_trip():
    for tab, fname in ((table1(), "table_a.txt"), (table2(), "table_b.txt")):
        source = resources.files("vseq.data").joinpath(fname).read_text()
        assert "".join(" ".join(row) + "\n" for row in tab.rows) == source


def test_diff_table1(truth_a):
    report = diff_report(table1(), truth_a)
    assert not report.clean
    assert report.all_classified
    kinds = sorted(f.kind for f in report.findings)
    assert kinds == ["duplicate-name", "missing-row", "row-mismatch",
                     "row-mismatch", "undefined-reference"]
    by_kind = {f.kind: f for f in report.findings}
    # the repeated 10111 row is really state 11101
    assert by_kind["duplicate-name"].subject == "10111"
    assert "11101" in by_kind["duplicate-name"].proposal
    # 110100 is referenced twice but is a misprint of 1110100
    assert by_kind["undefined-reference"].subject == "110100"
    assert "1110100" in by_kind["undefined-reference"].proposal
    # 11101 is never defined under its own name
    assert by_kind["missing-row"].subject == "11101"
    assert "10111" in by_kind["missing-row"].proposal
    mism = sorted(f.subject for f in report.findings if f.kind == "row-mismatch")
    assert mism == ["111010", "11101000"]
    # printed row count, claimed count and truth agree, so no count finding
    assert "count-mismatch" not in kinds


def test_diff_table2(truth_b):
    report = diff_report(table2(), truth_b)
    assert report.all_classified
    by_sub = {(f.kind, f.subject): f for f in report.findings}
    missing_110 = by_sub[("missing-row", "110")]
    assert "add the missing row 110" in missing_110.proposal
    assert "('1100', '1101', '2')" in missing_110.proposal
    renamed = by_sub[("unknown-name", "110011")]
    assert "1110011" in renamed.proposal
    under = by_sub[("missing-row", "1110011")]
    assert "110011" in under.proposal
    count = by_sub[("count-mismatch", "B")]
    assert count.classification == PAPER_TYPO
    assert report.printed_rows == 19
    assert report.truth_state_count == 20


def test_diff_deterministic(truth_a):
    assert diff_report(table1(), truth_a) == diff_report(table1(), truth_a)


def test_diff_clean_on_faithful_transcription(truth_b):
    rows = tuple(
        (truth_b.names[s],
         truth_b.names[truth_b.transitions[s][0]],
         truth_b.names[truth_b.transitions[s][1]],
         _format_output(truth_b.outputs[s], SINGLE))
        for s in range(truth_b.state_count))
    faithful = PrintedTable("B*", rows, truth_b.state_count, SINGLE)
    report = diff_report(faithful, truth_b)
    assert report.clean
    assert report.all_classified  # vacuously
    assert "no discrepancies" in report.format()


def test_diff_flags_unexplainable_rows(truth_b):
    rows = tuple(list(table2().rows) + [("999", "999", "999", "2")])
    weird = PrintedTable("B?", rows, 20, SINGLE)
    report = diff_report(weird, truth_b)
    assert not report.all_classified
    bad = [f for f in report.findings if f.subject == "999"]
    assert bad and all(f.classification == "unresolved" for f in bad)


def test_diff_requires_matching_kind(truth_a):
    with pytest.raises(ValueError):
        diff_report(table2(), truth_a)


def test_report_format_lists_every_finding(truth_a):
    report = diff_report(table1(), truth_a)
    text = report.format()
    assert text.count("[paper-typo-candidate]") == len(report.findings)
    assert "table A: 33 printed rows" in text
