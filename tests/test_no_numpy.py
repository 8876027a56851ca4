"""`import vseq`, `vseq eval` and the compiled synthesize pipeline run
without numpy: each runs in a subprocess where importing numpy fails, and
must print and write the same bytes as a run where numpy loads."""

import os
import subprocess
import sys

import pytest

from vseq import _oracle

SRC = os.path.dirname(os.path.dirname(os.path.abspath(_oracle.__file__)))
# any import of numpy in the process raises ImportError
BLOCK = "import sys; sys.modules['numpy'] = None\n"
CLI = "import sys\nfrom vseq.cli import run\nsys.exit(run(sys.argv[1:]))\n"


def _same_blocked_or_not(script: str, args: list[str], tmp_path, out: str | None = None):
    """stdout and, if named, the bytes of the file written by ``script``
    run with numpy blocked, which must equal those of a plain run; each
    run must exit 0."""
    got = []
    for blocked in (True, False):
        cwd = tmp_path / ("blocked" if blocked else "plain")
        cwd.mkdir()
        done = subprocess.run([sys.executable, "-c", (BLOCK if blocked else "") + script,
                               *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        got.append((done.stdout, (cwd / out).read_bytes() if out else None))
    assert got[0] == got[1]
    return got[0]


def test_import_loads_no_numpy(tmp_path):
    script = ("import vseq, vseq.cli\n"
              "print(vseq.__version__, sorted(n for n in dir(vseq) if n[0] != '_'))\n")
    _same_blocked_or_not(script, [], tmp_path)


def test_eval_of_a_4000_digit_numeral_loads_no_numpy(tmp_path, truth_b):
    machine = tmp_path / "f.dfao"
    machine.write_text(truth_b.serialize())
    stdout, _ = _same_blocked_or_not(
        CLI, ["eval", "--automaton", str(machine), "--n", "7" * 4000], tmp_path)
    assert stdout.strip() in ("1", "2", "3")


def test_compiled_synthesize_loads_no_numpy(tmp_path, truth_b):
    if _oracle.library() is None:
        pytest.skip("no C compiler: the numpy passes run in place of the compiled ones")
    stdout, written = _same_blocked_or_not(
        CLI, ["synthesize", "--depth", "12", "--out", "f.dfao"], tmp_path, "f.dfao")
    assert "certificate: pass at depth 12" in stdout
    assert written == truth_b.serialize().encode()


@pytest.mark.parametrize("kind", ["single", "window"])
def test_compiled_certify_loads_no_numpy(tmp_path, truth_a, truth_b, kind):
    # both certify paths count F past the validation prefix in a ring: the
    # reference pipeline's for a single-output file, the file's own plan
    # for a window file
    if _oracle.library() is None:
        pytest.skip("no C compiler: the numpy passes run in place of the compiled ones")
    machine = tmp_path / "m.dfao"
    machine.write_text((truth_b if kind == "single" else truth_a).serialize())
    stdout, _ = _same_blocked_or_not(
        CLI, ["certify", "--automaton", str(machine), "--depth", "12"], tmp_path)
    assert "verdict: pass (66 transitions, depth 12," in stdout
    assert "cross-validated on [0, 4194304]" in stdout
