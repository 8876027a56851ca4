"""What each entry point loads.  `import vseq, vseq.cli` and the query
commands `eval` and `dot` load the automaton, the oracle and the CLI only:
none of the batch layers, nor the compiled oracle's loader and ctypes.
Every other public name of the package resolves on first access, to the
object its submodule defines, and `dir(vseq)` lists it before then."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vseq

SRC = str(Path(vseq.__file__).resolve().parents[1])
F20 = Path(__file__).resolve().parents[1] / "benchmark" / "data" / "f20.dfao"
NOT_LOADED = ("vseq.synthesis", "vseq.rules", "vseq.published", "vseq._oracle", "ctypes")

# the package's names, by the submodule that defines them, as the package
# imported them all eagerly
PUBLIC = {
    "automaton": ("SINGLE", "WINDOW", "BadDigit", "BadNumeral", "Dfao",
                  "KindMismatch", "NotWindowKind", "ParseError", "base_digits"),
    "published": ("PAPER_TYPO", "UNRESOLVED", "DiffReport", "Finding",
                  "PrintedTable", "diff_report", "table1", "table2"),
    "rules": ("RuleConflict", "RuleVerification", "WindowRuleTable",
              "derive_rules", "format_rules", "verify_rules"),
    "sequences": ("MonotonicityViolation", "SequenceTable", "count_windows",
                  "first_difference", "gen_f", "gen_v", "write_table"),
    "synthesis": ("CertificateReport", "CertificationFailure",
                  "NonpositiveDivisor", "OracleTooShort", "ProbeReport",
                  "TransitionCertificate", "Validation",
                  "cert_plan", "certify_transitions", "cross_validate",
                  "discover", "euclid_div", "kernel_probe", "shift_bounds",
                  "synthesize_msb", "synthesize_validated"),
}


def _python(script: str, cwd) -> str:
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


@pytest.mark.parametrize("argv", [
    None,
    ["eval", "--automaton", str(F20), "--n", "7" * 4000],
    ["eval", "--automaton", str(F20), "--binary", "--n", "111001111"],
    ["dot", "--automaton", str(F20), "--out", "f20.dot"],
], ids=["import", "eval", "eval-binary", "dot"])
def test_query_entry_points_load_no_batch_layer(argv, tmp_path):
    run = "" if argv is None else f"assert vseq.cli.run({argv!r}) == 0\n"
    loaded = _python("import sys, vseq, vseq.cli\n" + run
                     + f"print(sorted(set({NOT_LOADED!r}) & set(sys.modules)))\n",
                     tmp_path)
    assert loaded.splitlines()[-1] == "[]"


def test_every_public_name_resolves_to_its_submodules_object(tmp_path):
    # in a fresh process, so that each name is looked up before its
    # submodule is imported
    script = ("import importlib, vseq\n"
              f"for module, names in {PUBLIC!r}.items():\n"
              "    for name in names:\n"
              "        scope = {}\n"
              "        exec(f'from vseq import {name} as got', scope)\n"
              "        owner = importlib.import_module(f'vseq.{module}')\n"
              "        assert scope['got'] is getattr(owner, name), name\n"
              "        assert getattr(vseq, module) is owner, module\n"
              "print('ok')\n")
    assert _python(script, tmp_path) == "ok\n"


def test_dir_lists_every_name_before_its_first_access(tmp_path):
    listed = _python("import vseq\nprint(' '.join(dir(vseq)))\n", tmp_path).split()
    names = {name for names in PUBLIC.values() for name in names}
    assert names | set(PUBLIC) <= set(listed)
    assert listed == sorted(listed)


def test_an_unknown_name_is_no_attribute():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        vseq.nope
    with pytest.raises(ImportError):
        exec("from vseq import nope", {})
