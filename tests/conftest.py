"""Shared fixtures.

The heavy session fixtures (oracle tables, synthesized automata) are built
once and shared; only the tests that need the full certification-scale
oracle pull it in.
"""

from __future__ import annotations

from unittest import mock

import pytest

import vseq
from vseq import _oracle

VALIDATE_TO = 2 ** 22  # the CLI's default --validate
CERT_DEPTH = 16

# sha256 of vseq probe's stdout at the CLI defaults (depth 12, prefix
# 4096), which users and the benchmark run; the golden transcript runs
# faster settings
PROBE_AT_DEFAULTS = {
    "f": "5dedced71fb8f46b7b486621f75ad4545b146174a3240b83451e4fcf3a74eea4",
    "vdiff": "6e2959843008d6df785e4e76ce9c9396ffa20c3b3596f3e3c3609ecdbc9e2b6f",
}


def window4(t: vseq.SequenceTable, n: int) -> tuple[int, int, int, int]:
    """t's window (S(n-2), S(n-1), S(n), S(n+1)) at n, as a tuple."""
    return tuple(t.windows_at((n,)))


def on_each_engine(call) -> list:
    """call()'s result on each engine, forced through _oracle.library: the
    library as it loads (the compiled passes, where one does), then None
    (the plain-Python loops), at any input size."""
    lib = _oracle.library()
    got = []
    for forced in ((lib, None) if lib is not None else (None,)):
        with mock.patch.object(_oracle, "library", lambda: forced):
            got.append(call())
    return got


@pytest.fixture(scope="session")
def f_main() -> vseq.SequenceTable:
    """F oracle covering the default validation bound."""
    return vseq.gen_f(VALIDATE_TO + 2)


@pytest.fixture(scope="session")
def truth_a(f_main) -> vseq.Dfao:
    machine, verdict = vseq.synthesize_validated(f_main, VALIDATE_TO)
    assert verdict.passed
    return machine


@pytest.fixture(scope="session")
def truth_b(truth_a) -> vseq.Dfao:
    return truth_a.project_output().minimize()


@pytest.fixture(scope="session")
def f_cert(truth_a) -> vseq.SequenceTable:
    """Oracle long enough for depth-16 boundary-family certification."""
    return vseq.gen_f(vseq.cert_plan(truth_a, CERT_DEPTH)[-1] + 1)


@pytest.fixture(scope="session")
def v_big() -> vseq.SequenceTable:
    """V long enough to probe its first difference at depth 12, prefix 2^12."""
    return vseq.gen_v(2 ** 24 + 2)


# -- acceptance reporting ------------------------------------------------------

ACCEPTANCE_RESULTS: list[tuple[int, str, bool]] = []


def record_criterion(number: int, description: str, ok: bool) -> None:
    ACCEPTANCE_RESULTS.append((number, description, ok))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, description, ok in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} {status}: {description}")
