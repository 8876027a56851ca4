"""Golden transcript: the exact stdout of a fixed list of CLI runs.

Every run uses relative file names inside a scratch working directory, so
no temporary path reaches the recorded bytes.  Any change to what these
commands print shows up here as a diff against tests/data/golden_cli.txt.
To record the file again, from the root of a checkout:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/data/golden_cli.txt
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from vseq import Dfao
from vseq.cli import run

GOLDEN = Path(__file__).parent / "data" / "golden_cli.txt"
FAST = ["--validate", "65536", "--depth", "3"]

RUNS = [
    ["gen", "f", "--max", "20"],
    ["rules", "derive", "--max", "300"],
    ["synthesize", *FAST, "--out", "b.dfao", "--dot", "b.dot"],
    ["synthesize", *FAST, "--windowed", "--out", "a.dfao"],
    ["certify", "--automaton", "a.dfao", *FAST],
    ["certify", "--automaton", "b.dfao", *FAST],
    ["certify", "--automaton", "bad.dfao", *FAST],
    ["certify", "--automaton", "bad_window.dfao", *FAST],
    ["tables", "check", *FAST],
    ["probe", "--sequence", "f", "--depth", "6", "--prefix", "64"],
    ["probe", "--sequence", "vdiff", "--depth", "5", "--prefix", "32"],
    ["eval", "--automaton", "b.dfao", "--n", "463"],
    ["eval", "--automaton", "b.dfao", "--binary", "--n", "111001111"],
    ["eval", "--automaton", "a.dfao", "--n", "463"],
]


# corrupted file -> (written machine it copies, state, digit, wrong target)
CORRUPTED = {
    "bad.dfao": ("b.dfao", "101", 0, "11011"),
    "bad_window.dfao": ("a.dfao", "101", 1, "11101"),
}


def write_corrupted(path: str) -> None:
    source, state, digit, target = CORRUPTED[path]
    m = Dfao.deserialize(Path(source).read_text())
    rows = [list(r) for r in m.transitions]
    rows[m.names.index(state)][digit] = m.names.index(target)
    bad = Dfao(2, m.initial, rows, m.outputs, m.output_kind, m.names)
    Path(path).write_text(bad.serialize())


def transcript() -> str:
    """Run every command of RUNS in the current directory; their stdout
    and exit codes, each run under a '$ vseq ...' line."""
    chunks = []
    for argv in RUNS:
        if argv[0] == "certify" and argv[2] in CORRUPTED:
            write_corrupted(argv[2])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run(argv)
        chunks.append(f"$ vseq {' '.join(argv)}\n{out.getvalue()}[exit {rc}]\n")
    return "".join(chunks)


def test_cli_transcript_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        sys.stdout.write(transcript())
