"""Shared fixtures.

The heavy session fixtures (oracle tables, synthesized automata) are built
once and shared; only the tests that need the full certification-scale
oracle pull it in.  Set VSEQ_ORACLE_CACHE=<dir> to reuse oracle tables
across pytest runs; without it everything is recomputed from scratch.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import vseq

CFG = vseq.SynthesisConfig.for_frequency()  # horizon 24, validate_to 2^22
CERT_DEPTH = 16


def cached_f(a_max: int) -> vseq.SequenceTable:
    cache_dir = os.environ.get("VSEQ_ORACLE_CACHE")
    if cache_dir:
        path = Path(cache_dir) / f"f_{a_max}.bin"
        if path.exists():
            data = bytearray(path.read_bytes())
            if len(data) == a_max + 1:
                return vseq.SequenceTable(0, a_max, data, "F")
    table = vseq.gen_f(a_max)
    if cache_dir:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        (Path(cache_dir) / f"f_{a_max}.bin").write_bytes(bytes(table.values))
    return table


def cached_v(n_max: int) -> vseq.SequenceTable:
    cache_dir = os.environ.get("VSEQ_ORACLE_CACHE")
    if cache_dir:
        path = Path(cache_dir) / f"v_{n_max}.bin"
        if path.exists():
            from array import array
            vals = array("q")
            vals.frombytes(path.read_bytes())
            if len(vals) == n_max:
                return vseq.SequenceTable(1, n_max, vals, "V")
    table = vseq.gen_v(n_max)
    if cache_dir:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        (Path(cache_dir) / f"v_{n_max}.bin").write_bytes(table.values.tobytes())
    return table


@pytest.fixture(scope="session")
def f_main() -> vseq.SequenceTable:
    """F oracle covering the default validation bound."""
    return cached_f(CFG.validate_to + 2)


@pytest.fixture(scope="session")
def truth_a(f_main) -> vseq.Dfao:
    machine, verdict = vseq.synthesize_validated(f_main, CFG)
    assert verdict.passed
    return machine


@pytest.fixture(scope="session")
def truth_b(truth_a) -> vseq.Dfao:
    return truth_a.project_output().minimize()


@pytest.fixture(scope="session")
def rules_main(f_main) -> vseq.WindowRuleTable:
    return vseq.derive_rules(f_main, 4, 2 ** 20)


@pytest.fixture(scope="session")
def f_cert(truth_a) -> vseq.SequenceTable:
    """Oracle long enough for depth-16 boundary-family certification."""
    return cached_f(vseq.cert_oracle_bound(truth_a, CERT_DEPTH))


@pytest.fixture(scope="session")
def v_big() -> vseq.SequenceTable:
    """V long enough to probe its first difference at depth 12, prefix 2^12."""
    return cached_v(2 ** 24 + 2)


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
