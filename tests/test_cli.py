import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vseq
from vseq import SINGLE, WINDOW, Dfao, gen_f
from vseq.cli import run

FAST = ["--validate", "65536", "--depth", "3"]


def seq_values(out: str) -> list[int]:
    lines = [l for l in out.splitlines() if l and not l.startswith(("#", "seq "))]
    return [int(l) for l in lines]


def test_gen_f(capsys):
    assert run(["gen", "f", "--max", "20"]) == 0
    out = capsys.readouterr().out
    assert "seed convention" in out
    assert "seq F 0 20" in out
    assert seq_values(out)[1:] == [4, 1, 1, 1, 2, 2, 1, 2, 2, 1, 3, 2, 1, 2, 2, 1, 3, 2, 1, 2]


def test_gen_v_to_file(tmp_path, capsys):
    path = tmp_path / "v.seq"
    assert run(["gen", "v", "--max", "20", "--out", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("seq V 1 20\n")
    assert [int(x) for x in text.splitlines()[1:]] == \
        [1, 1, 1, 1, 2, 3, 4, 5, 5, 6, 6, 7, 8, 8, 9, 9, 10, 11, 11, 11]


def test_qrs_equals_v(capsys):
    assert run(["qrs", "--r", "1", "--s", "4", "--max", "20"]) == 0
    out = capsys.readouterr().out
    assert "seq Q[1,4] 1 20" in out
    assert seq_values(out) == [1, 1, 1, 1, 2, 3, 4, 5, 5, 6, 6, 7, 8, 8, 9, 9, 10, 11, 11, 11]


def test_qrs_death_reports_index(capsys):
    assert run(["qrs", "--r", "2", "--s", "5", "--max", "10000"]) == 1
    out = capsys.readouterr().out
    assert "dead sequence" in out
    assert "n = 38" in out


def test_rules_derive(capsys):
    assert run(["rules", "derive", "--max", "300"]) == 0
    out = capsys.readouterr().out
    assert "g 1112 -> 2" in out
    assert "h 1122 -> 3" in out
    assert "# 24 distinct windows" in out


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    b_path = tmp / "b.dfao"
    a_path = tmp / "a.dfao"
    dot_path = tmp / "b.dot"
    assert run(["synthesize", *FAST,
                "--out", str(b_path), "--dot", str(dot_path)]) == 0
    assert run(["synthesize", *FAST, "--windowed",
                "--out", str(a_path)]) == 0
    return a_path, b_path, dot_path


def test_synthesize_outputs(built, capsys):
    a_path, b_path, dot_path = built
    b = Dfao.deserialize(b_path.read_text())
    assert b.state_count == 20
    a = Dfao.deserialize(a_path.read_text())
    assert a.state_count == 33
    assert dot_path.read_text() == b.to_dot()


def test_eval_decimal(built, capsys):
    _, b_path, _ = built
    assert run(["eval", "--automaton", str(b_path), "--n", "463"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run(["eval", "--automaton", str(b_path), "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_eval_binary_and_window(built, capsys):
    a_path, b_path, _ = built
    assert run(["eval", "--automaton", str(b_path), "--binary",
                "--n", "111001111"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run(["eval", "--automaton", str(a_path), "--n", "463"]) == 0
    assert capsys.readouterr().out.strip() == "2133"


def test_eval_agrees_with_oracle(built, capsys):
    _, b_path, _ = built
    f = gen_f(64)
    for n in range(1, 65):
        assert run(["eval", "--automaton", str(b_path), "--n", str(n)]) == 0
        assert int(capsys.readouterr().out.strip()) == f[n]


def test_certify_single(built, capsys):
    _, b_path, _ = built
    assert run(["certify", "--automaton", str(b_path), *FAST]) == 0
    out = capsys.readouterr().out
    assert "OK eps -0-> eps" in out
    assert "verdict: pass" in out
    assert "equivalent to the certified reference" in out


def test_certify_window(built, capsys):
    a_path, _, _ = built
    assert run(["certify", "--automaton", str(a_path), *FAST]) == 0
    out = capsys.readouterr().out
    assert "OK 100 -1-> 110" in out
    assert "cross-validated on [0, 65536]" in out


@pytest.mark.parametrize("validate", ["2", "5", "100"])
def test_certify_window_at_a_small_validate(built, validate, capsys):
    # F to --validate + 2 alone would hold no rule domain below 7; the window
    # file's certificate reads F as far as its rules do, as it did when F
    # was counted whole to the certificate's bound
    a_path, _, _ = built
    assert run(["certify", "--automaton", str(a_path), "--depth", "4",
                "--validate", validate]) == 0
    out = capsys.readouterr().out
    assert f"rule propagation to a = {int(validate) // 2})" in out
    assert f"cross-validated on [0, {validate}]" in out


def test_certify_rejects_corrupt(built, tmp_path, capsys):
    _, b_path, _ = built
    b = Dfao.deserialize(b_path.read_text())
    rows = [list(r) for r in b.transitions]
    rows[b.names.index("101")][0] = b.names.index("11011")
    bad = Dfao(2, b.initial, rows, b.outputs, b.output_kind, b.names)
    bad_path = tmp_path / "bad.dfao"
    bad_path.write_text(bad.serialize())
    assert run(["certify", "--automaton", str(bad_path), *FAST]) == 1
    out = capsys.readouterr().out
    assert "differs from the certified reference" in out


@pytest.mark.parametrize("name", ["-1", "+1", "0b1", "1_0"])
def test_certify_refuses_names_that_are_not_access_strings(name, built, tmp_path,
                                                           capsys):
    # int(name, 2) reads each of these names; an unreachable state under
    # one would get its windows from the zero padding below F
    a_path, _, _ = built
    a = Dfao.deserialize(a_path.read_text())
    extra = a.state_count
    bad = Dfao(2, a.initial, [*a.transitions, (extra, extra)],
               [*a.outputs, (0, 0, 0, 0)], WINDOW, [*a.names, name])
    bad_path = tmp_path / "named.dfao"
    bad_path.write_text(bad.serialize())
    assert run(["certify", "--automaton", str(bad_path), *FAST]) == 2
    assert capsys.readouterr().err == (
        f"vseq: state {extra} name {name!r} is not a base-2 access string; "
        "certification needs synthesized names\n")


def test_tables_check(capsys):
    assert run(["tables", "check", *FAST]) == 0
    out = capsys.readouterr().out
    assert "table A: 33 printed rows" in out
    assert "table B: 19 printed rows" in out
    assert "[paper-typo-candidate]" in out
    assert "[unresolved]" not in out


def test_probe_f(capsys):
    assert run(["probe", "--sequence", "f", "--depth", "6", "--prefix", "64"]) == 0
    out = capsys.readouterr().out
    assert "level 6: distinct" in out
    assert "stabilized:" in out


def test_probe_vdiff_makes_no_claim(capsys):
    assert run(["probe", "--sequence", "vdiff", "--depth", "5",
                "--prefix", "32"]) == 0
    out = capsys.readouterr().out
    assert "open" in out
    assert "level 5: distinct" in out


# sha256 of vseq probe's stdout at the CLI defaults (depth 12, prefix
# 4096), which users and the benchmark run; the golden transcript runs
# faster settings
PROBE_AT_DEFAULTS = {
    "f": "5dedced71fb8f46b7b486621f75ad4545b146174a3240b83451e4fcf3a74eea4",
    "vdiff": "6e2959843008d6df785e4e76ce9c9396ffa20c3b3596f3e3c3609ecdbc9e2b6f",
}


@pytest.mark.parametrize("sequence", PROBE_AT_DEFAULTS)
def test_probe_stdout_at_the_defaults(sequence, capsys):
    assert run(["probe", "--sequence", sequence]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PROBE_AT_DEFAULTS[sequence]


def test_dot_command(built, tmp_path, capsys):
    _, b_path, _ = built
    out_path = tmp_path / "x.dot"
    assert run(["dot", "--automaton", str(b_path), "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith("digraph dfao {")


def test_missing_automaton_is_usage_error(tmp_path, capsys):
    assert run(["eval", "--automaton", str(tmp_path / "nope"), "--n", "1"]) == 2


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as e:
        run(["gen", "f", "--max", "20", "--bogus"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        run(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        run(["qrs", "--r", "1", "--max", "5"])  # missing --s
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--automaton", "t.dfao", "--n", "abc"],                # BadNumeral
    ["eval", "--automaton", "t.dfao", "--binary", "--n", "12"],     # BadDigit
    ["gen", "f", "--max", "0"],
    ["rules", "derive", "--max", "3"],
    ["probe", "--sequence", "f", "--base", "1"],
    ["synthesize", "--validate", "65536", "--depth", "1", "--out", "x.dfao"],
    ["synthesize", "--validate", "10", "--out", "x.dfao"],          # OracleTooShort
    ["synthesize", "--validate", "65536", "--horizon", "0", "--out", "x.dfao"],
    ["synthesize", "--validate", "65536", "--depth", "-3", "--out", "x.dfao"],
    ["probe", "--sequence", "f", "--depth", "-1"],
    ["probe", "--sequence", "vdiff", "--prefix", "0"],
    ["probe", "--sequence", "vdiff", "--depth", "0", "--prefix", "1"],
    ["probe", "--sequence", "vdiff", "--depth", "1", "--prefix", "1"],
    ["probe", "--sequence", "f", "--depth", "40"],                  # oracle past 2^32
    ["probe", "--sequence", "f", "--prefix", "2000000", "--depth", "12"],
    ["gen", "v", "--max", str(2 ** 32)],
    ["qrs", "--r", "2", "--s", "5", "--max", str(2 ** 32)],
], ids=["bad-numeral", "bad-digit", "gen-max-0", "rules-max-3", "probe-base-1",
        "synthesize-depth-1", "synthesize-validate-10", "synthesize-horizon-0",
        "synthesize-depth-minus-3", "probe-depth-minus-1",
        "probe-prefix-0", "vdiff-span-1", "vdiff-span-2", "probe-depth-40",
        "probe-prefix-2e6", "gen-v-2^32", "qrs-max-2^32"])
def test_usage_errors_exit_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("t.dfao").write_text(Dfao(2, 0, [(0, 1), (1, 0)], [0, 1], SINGLE).serialize())
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("vseq: ") and err.count("\n") == 1, err
    assert not Path("x.dfao").exists()


def test_vdiff_span_below_3_prints_nothing(capsys):
    # V's first difference on [1, span] needs V to span + 1 >= 4
    assert run(["probe", "--sequence", "vdiff", "--depth", "1", "--prefix", "1"]) == 2
    assert capsys.readouterr() == (
        "", "vseq: --sequence vdiff needs --prefix * --base ** --depth >= 3, got 2\n")


def test_depth_below_2_is_one_usage_line(built, tmp_path, monkeypatch, capsys):
    a_path, _, _ = built
    monkeypatch.chdir(tmp_path)
    assert run(["synthesize", "--validate", "65536", "--depth", "-3",
                "--out", "x.dfao"]) == 2
    assert capsys.readouterr().err == "vseq: depth must be >= 2\n"

    # certify on a window file refuses the depth before it builds an oracle
    def no_oracle(n):
        raise AssertionError("certify built an oracle")

    monkeypatch.setattr(vseq.cli, "gen_f", no_oracle)
    assert run(["certify", "--automaton", str(a_path), "--depth", "-1"]) == 2
    assert capsys.readouterr().err == "vseq: depth must be >= 2\n"


def _no_oracle(n):
    raise AssertionError("an oracle was built before the flags were checked")


PIPELINE_COMMANDS = {
    "synthesize": ["synthesize", "--out", "x.dfao"],
    "tables-check": ["tables", "check"],
    "certify-single": ["certify", "--automaton", "single.dfao"],
    "certify-window": ["certify", "--automaton", "window.dfao"],
}


@pytest.mark.parametrize("flag, value, message", [
    ("--horizon", "0", "horizon must be >= 1"),
    ("--validate", "1", "validate_to must be >= 2"),
    ("--depth", "-3", "depth must be >= 2"),
], ids=["horizon-0", "validate-1", "depth-minus-3"])
@pytest.mark.parametrize("command", PIPELINE_COMMANDS)
def test_flag_values_are_checked_before_any_oracle(command, flag, value, message,
                                                   tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("single.dfao").write_text(
        Dfao(2, 0, [(0, 1), (1, 0)], [0, 1], SINGLE).serialize())
    Path("window.dfao").write_text(
        Dfao(2, 0, [(0, 0)], [(0, 0, 0, 0)], WINDOW, ("eps",)).serialize())
    monkeypatch.setattr(vseq.cli, "gen_f", _no_oracle)
    assert run([*PIPELINE_COMMANDS[command], flag, value]) == 2
    assert capsys.readouterr().err == f"vseq: {message}\n"
    assert not Path("x.dfao").exists()


@pytest.mark.parametrize("bounds, message", [
    (["--max", "3"], "a_max must be >= a_min"),
    (["--min", "3", "--max", "1000000000"],
     "a_min must be > 3: the doubling rules start at a = 4"),
], ids=["max-3", "min-3"])
def test_rules_bounds_are_checked_before_any_oracle(bounds, message, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(vseq.cli, "gen_f", _no_oracle)
    assert run(["rules", "derive", *bounds]) == 2
    assert capsys.readouterr() == ("", f"vseq: {message}\n")


@pytest.mark.parametrize("machine", [
    Dfao(3, 0, [(0, 1, 0), (1, 0, 1)], [1, 2], SINGLE),
    Dfao(3, 0, [(0, 1, 1), (1, 1, 0)], [(0, 0, 1, 2), (0, 1, 2, 1)], WINDOW,
         ("eps", "1")),
], ids=["single", "window"])
def test_certify_refuses_other_bases_before_any_oracle(machine, tmp_path,
                                                       monkeypatch, capsys):
    path = tmp_path / "base3.dfao"
    path.write_text(machine.serialize())
    monkeypatch.setattr(vseq.cli, "gen_f", _no_oracle)
    assert run(["certify", "--automaton", str(path), *FAST]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"vseq: {path} reads base 3; "
                            "certification is for base-2 automata\n")
    assert captured.out.count("\n") == 2  # the seed note and the command line


def test_oracle_too_large_for_memory_is_a_usage_error(monkeypatch, capsys):
    def refused(n):
        raise MemoryError("no memory for the V oracle")

    monkeypatch.setattr(vseq.cli, "gen_f", refused)
    assert run(["gen", "f", "--max", "1200000000"]) == 2
    assert capsys.readouterr().err == "vseq: no memory for the V oracle\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(vseq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "vseq", "gen", "f", "--max", "5"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "seq F 0 5" in done.stdout
