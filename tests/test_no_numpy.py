"""`import vseq`, `vseq eval`, the compiled synthesize pipeline, the
compiled probes and the golden transcript's short oracle commands run
without numpy, and the short commands on the plain-Python passes too: each
runs in a subprocess where importing numpy fails, and must print and write
the same bytes as a plain run, where numpy and the library load.
`import vseq` and `vseq eval` run as well where importing dataclasses,
inspect or typing fails: importing them would slow every short run."""

import hashlib
import os
import subprocess
import sys

import pytest

from vseq import _oracle

from conftest import PROBE_AT_DEFAULTS

SRC = os.path.dirname(os.path.dirname(os.path.abspath(_oracle.__file__)))
# any import of numpy in the process raises ImportError
BLOCK = "import sys; sys.modules['numpy'] = None\n"
# any import of dataclasses, inspect or typing raises ImportError
NO_DATACLASSES = ("import sys; sys.modules['dataclasses'] = sys.modules['inspect'] = "
                  "sys.modules['typing'] = None\n")
# and no library: every pass runs its plain-Python loop
NO_LIBRARY = BLOCK + "import vseq._oracle; vseq._oracle.library = lambda: None\n"
CLI = "import sys\nfrom vseq.cli import run\nsys.exit(run(sys.argv[1:]))\n"


def _same_blocked_or_not(script: str, args: list[str], tmp_path, out: str | None = None,
                         block: str = BLOCK):
    """stdout and, if named, the bytes of the file written by ``script``
    run after ``block`` (by default, numpy blocked), which must equal those
    of a plain run; each run must exit 0."""
    got = []
    for blocked in (True, False):
        cwd = tmp_path / ("blocked" if blocked else "plain")
        cwd.mkdir()
        done = subprocess.run([sys.executable, "-c", (block if blocked else "") + script,
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


def test_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    script = ("import vseq, vseq.cli\n"
              "print(vseq.__version__, sorted(n for n in dir(vseq) if n[0] != '_'))\n")
    _same_blocked_or_not(script, [], tmp_path, block=NO_DATACLASSES)


def test_eval_loads_neither_dataclasses_nor_inspect(tmp_path, truth_b):
    machine = tmp_path / "f.dfao"
    machine.write_text(truth_b.serialize())
    stdout, _ = _same_blocked_or_not(
        CLI, ["eval", "--automaton", str(machine), "--n", "7" * 4000], tmp_path,
        block=NO_DATACLASSES)
    assert stdout.strip() in ("1", "2", "3")


def test_compiled_synthesize_loads_no_numpy(tmp_path, truth_b):
    if _oracle.library() is None:
        pytest.skip("no C compiler: the Python loops would count F for minutes")
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
        pytest.skip("no C compiler: the Python loops would count F for minutes")
    machine = tmp_path / "m.dfao"
    machine.write_text((truth_b if kind == "single" else truth_a).serialize())
    stdout, _ = _same_blocked_or_not(
        CLI, ["certify", "--automaton", str(machine), "--depth", "12"], tmp_path)
    assert "verdict: pass (66 transitions, depth 12," in stdout
    assert "cross-validated on [0, 4194304]" in stdout


@pytest.mark.parametrize("sequence", PROBE_AT_DEFAULTS)
def test_compiled_probe_loads_no_numpy(tmp_path, sequence):
    # vdiff's steps are F's counts rewritten in place in their own buffer,
    # and each probe joins its levels from the bytes and the ids before
    # them: no pass needs numpy at the defaults, whose prefix 4096 is a
    # power of the base
    if _oracle.library() is None:
        pytest.skip("no C compiler: the Python loops would count F for minutes")
    stdout, _ = _same_blocked_or_not(CLI, ["probe", "--sequence", sequence], tmp_path)
    assert hashlib.sha256(stdout.encode()).hexdigest() == PROBE_AT_DEFAULTS[sequence]


@pytest.mark.parametrize("args", [
    ["probe", "--sequence", "f", "--base", "3", "--depth", "10", "--prefix", "2187"],
    ["probe", "--sequence", "vdiff", "--prefix", "100", "--depth", "8"],
], ids=["probe-f-base-3", "probe-vdiff-prefix-100"])
def test_compiled_probe_off_the_defaults_loads_no_numpy(tmp_path, args):
    # base 3 hashes its joins past the rank table's reach, and a prefix
    # that is not a power of the base joins that level from the bytes
    if _oracle.library() is None:
        pytest.skip("no C compiler: the Python loops would count F for minutes")
    _same_blocked_or_not(CLI, args, tmp_path)


@pytest.mark.parametrize("args", [
    ["rules", "derive", "--max", "300"],
    ["probe", "--sequence", "f", "--depth", "6", "--prefix", "64"],
    ["probe", "--sequence", "vdiff", "--depth", "5", "--prefix", "32"],
], ids=["rules", "probe-f", "probe-vdiff"])
def test_short_oracle_commands_load_no_numpy(tmp_path, args):
    # their oracles run the Python loops, short of COMPILED_FROM steps, but
    # the rule scan and the probe's joins run compiled, where a library
    # loads, at any size
    _same_blocked_or_not(CLI, args, tmp_path)


@pytest.mark.parametrize("args", [
    ["probe", "--sequence", "f", "--depth", "6", "--prefix", "64"],
    ["probe", "--sequence", "f", "--prefix", "100", "--depth", "4"],
    ["rules", "derive", "--max", "300"],
], ids=["probe-f", "probe-f-prefix-100", "rules"])
def test_short_oracle_commands_run_in_plain_python(tmp_path, args):
    _same_blocked_or_not(CLI, args, tmp_path, block=NO_LIBRARY)
