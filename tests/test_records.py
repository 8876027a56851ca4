"""vseq's records are immutable values: no field can be assigned, equal
fields make equal records (hashed alike where the fields are hashable),
and the repr reads ``Name(field=value, ...)`` with every field in order."""

import pytest

from vseq import (SINGLE, CertificateReport, DiffReport, Dfao, Finding, PrintedTable,
                  ProbeReport, RuleVerification, SequenceTable,
                  TransitionCertificate, Validation, WindowRuleTable)
from vseq.synthesis import ProbeLevel

WINDOW = (0, 0, 4, 1)


def certificate() -> TransitionCertificate:
    return TransitionCertificate("eps", 1, "1", 4)


def finding() -> Finding:
    return Finding("row-mismatch", "101", "printed 1 on 0", "paper-typo-candidate", "1011")


# (build, field names in order, hashable)
RECORDS = [
    (lambda: Dfao(2, 0, [(0, 1), (1, 0)], [0, 1], SINGLE),
     ("alphabet_size", "initial", "transitions", "outputs", "output_kind", "names"), True),
    (lambda: SequenceTable(0, 2, b"\x00\x04\x01", "F"), ("lo", "hi", "values", "label"), True),
    (lambda: Validation(False, 7, 100), ("passed", "first_mismatch", "n_max"), True),
    (certificate, ("from_name", "digit", "to_name", "family_depth"), True),
    (lambda: CertificateReport((certificate(),), 2, 2 ** 15, 4, 2 ** 16 + 2, 9, 30),
     ("transitions", "states_checked", "propagation_checked_to", "depth", "prefix_hi",
      "windows_read", "pairs_compared"), True),
    (lambda: ProbeLevel(1, 2, 2048, 5), ("level", "block_len", "samples", "distinct"), True),
    (lambda: ProbeReport(2, 1, 4096, (ProbeLevel(0, 1, 4096, 3),), False),
     ("q", "depth", "prefix_len", "levels", "truncated"), True),
    (lambda: WindowRuleTable({WINDOW: 1}, {WINDOW: 2}, {WINDOW: 4}),
     ("even_rule", "odd_rule", "first_seen"), False),
    (lambda: RuleVerification(300, {WINDOW: 5}), ("a_checked", "new_windows"), False),
    (lambda: PrintedTable("B", (("eps", "0", "1", "0"),), 20, SINGLE),
     ("label", "rows", "claimed_state_count", "output_kind"), True),
    (finding, ("kind", "subject", "detail", "classification", "proposal"), True),
    (lambda: DiffReport("A", (finding(),), 33, 33, 33),
     ("table_label", "findings", "printed_rows", "claimed_state_count",
      "truth_state_count"), True),
]


@pytest.mark.parametrize("build, fields, hashable", RECORDS,
                         ids=[build().__class__.__name__ for build, _, _ in RECORDS])
def test_records_are_immutable_values(build, fields, hashable):
    record, again = build(), build()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(again, name))
    assert record == again and not record != again
    if hashable:
        assert hash(record) == hash(again)
    else:
        with pytest.raises(TypeError):
            hash(record)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{record.__class__.__name__}({shown})"
