"""Acceptance suite: one test per criterion, each at its stated tolerance.

A summary line per criterion is printed at the end of the pytest run
(see pytest_terminal_summary in conftest).
"""

import random
import time
from contextlib import contextmanager

from vseq import (Dfao, WINDOW, certify_transitions, cross_validate,
                  derive_rules, diff_report, euclid_div, first_difference,
                  gen_f, gen_v, kernel_probe, shift_bounds, table1, table2,
                  verify_rules)
from vseq.synthesis import CertificationFailure

from conftest import CERT_DEPTH, record_criterion

V20 = [1, 1, 1, 1, 2, 3, 4, 5, 5, 6, 6, 7, 8, 8, 9, 9, 10, 11, 11, 11]
F20 = [4, 1, 1, 1, 2, 2, 1, 2, 2, 1, 3, 2, 1, 2, 2, 1, 3, 2, 1, 2]


@contextmanager
def criterion(number: int, description: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        record_criterion(number, description, ok)


def test_criterion_1_oracle_fidelity():
    with criterion(1, "gen_v(20) and gen_f(20) reproduce the reference rows, < 10 ms"):
        start = time.perf_counter()
        v = gen_v(20)
        f = gen_f(20)
        elapsed = time.perf_counter() - start
        assert list(v.values) == V20
        assert f[0] == 0
        assert list(f.values[1:]) == F20
        assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"


def test_criterion_2_spot_values():
    with criterion(2, "F(461..464) = 2,1,3,3 and F(7..10) = F(4..7) = 1,2,2,1"):
        f = gen_f(464)
        assert [f[a] for a in (461, 462, 463, 464)] == [2, 1, 3, 3]
        assert [f[a] for a in range(7, 11)] == [1, 2, 2, 1]
        assert [f[a] for a in range(4, 8)] == [1, 2, 2, 1]


def test_criterion_3_rules_at_desk_scale(f_main):
    with criterion(3, "rules derived on (3, 2^20] and re-verified to 2*10^6 "
                      "with zero conflicts, < 10 s"):
        start = time.perf_counter()
        rules = derive_rules(f_main, 4, 2 ** 20)   # RuleConflict would raise
        report = verify_rules(rules, f_main, 2 * 10 ** 6)
        elapsed = time.perf_counter() - start
        assert report.a_checked == 2 * 10 ** 6
        assert report.new_windows == {}
        assert len(rules) == 24
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_4_synthesis_reproduces_structure(truth_a, f_main):
    with criterion(4, "discovery yields the 33-state window automaton with "
                      "the documented transition and typo reconciliation"):
        assert truth_a.state_count == 33
        assert truth_a.outputs[truth_a.initial] == (0, 0, 0, 4)
        s = truth_a.names.index("100")
        assert truth_a.names[truth_a.transitions[s][1]] == "110"
        assert f_main[9] == f_main[6] == 2
        report = diff_report(table1(), truth_a)
        assert report.all_classified
        assert all(f.proposal for f in report.findings)


def test_criterion_5_minimality(truth_a, truth_b):
    with criterion(5, "projection + minimization gives 20 states, exactly "
                      "equivalent to the unminimized projection; the 19-row "
                      "printed table is reconciled"):
        projected = truth_a.project_output()
        assert truth_b.state_count == 20
        ok, witness = truth_b.equivalent(projected)
        assert ok and witness is None
        report = diff_report(table2(), truth_b)
        assert report.all_classified
        assert report.printed_rows == 19
        assert report.claimed_state_count == 20
        assert any(f.kind == "count-mismatch" for f in report.findings)


def test_criterion_6_exhaustive_correctness(truth_b, f_main):
    with criterion(6, "automaton output equals F(n) for every n in [0, 2^22], "
                      "< 60 s single-threaded"):
        start = time.perf_counter()
        verdict = cross_validate(truth_b, f_main, 2 ** 22)
        elapsed = time.perf_counter() - start
        assert verdict.passed
        assert verdict.first_mismatch is None
        assert verdict.n_max == 2 ** 22
        assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_criterion_7_log_time_evaluation(truth_b):
    with criterion(7, "eval_big on a 500-digit decimal returns a digit in "
                      "{1,2,3} in < 100 ms after load"):
        machine = Dfao.deserialize(truth_b.serialize())
        n_500_digits = "1" + "0" * 499
        start = time.perf_counter()
        value = machine.eval_big(n_500_digits)
        elapsed = time.perf_counter() - start
        assert value in (1, 2, 3)
        assert value == 2  # regression constant for 10^499
        assert elapsed < 0.100, f"took {elapsed * 1000:.2f} ms"


def test_criterion_8_scaffolding_properties():
    with criterion(8, "euclid_div on 10^6 randomized cases (negative S "
                      "included) and the shift-bound instance (6, 4)"):
        rng = random.Random(63882)
        for _ in range(10 ** 6):
            s = rng.randint(-10 ** 12, 10 ** 12)
            q = rng.randint(1, 10 ** 6)
            x, y = euclid_div(s, q)
            assert s == q * x + y and 0 <= y < q
        assert shift_bounds(2, 0, 2, 1, 4) == (6, 4)


def test_criterion_9_certification_suite(truth_a, f_cert):
    with criterion(9, "every transition certifies at depth 16 across all "
                      "three boundary families; failures name a witness"):
        report = certify_transitions(truth_a, f_cert, depth=CERT_DEPTH,
                                     validate_to=2 ** 22)
        assert report.verdict == "pass"
        assert len(report.transitions) == 66
        assert all(t.family_depth == CERT_DEPTH for t in report.transitions)
        assert report.propagation_checked_to == 2 ** 21
        # a misrouted transition must fail with a named witness
        rows = [list(r) for r in truth_a.transitions]
        s = truth_a.names.index("101")
        rows[s][1] = truth_a.names.index("11101")
        broken = Dfao(2, 0, rows, truth_a.outputs, WINDOW, truth_a.names)
        try:
            certify_transitions(broken, f_cert, depth=CERT_DEPTH,
                                validate_to=2 ** 22)
            raise AssertionError("corrupted automaton was certified")
        except CertificationFailure as e:
            assert e.witness
            assert e.from_name == "101"


def test_criterion_10_open_question_probe(f_cert, v_big):
    with criterion(10, "kernel probe stabilizes for F by depth 12 at prefix "
                       "2^12; the V first-difference probe only reports counts"):
        f_report = kernel_probe(f_cert, 2, 12, 2 ** 12)
        assert len(f_report.levels) == 13
        assert not f_report.truncated
        assert f_report.stabilized
        assert f_report.levels[-1].distinct == 18  # derived constant
        d_report = kernel_probe(first_difference(v_big), 2, 12, 2 ** 12)
        assert len(d_report.levels) == 13
        assert all(lv.distinct >= 1 for lv in d_report.levels)
        # no stabilization assertion: the question is open
