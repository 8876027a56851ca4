import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vseq
from vseq import SINGLE, WINDOW, Dfao, gen_f
from vseq.cli import run

from conftest import PROBE_AT_DEFAULTS

FAST = ["--validate", "65536", "--depth", "3"]
BENCH_F20 = Path(__file__).resolve().parents[1] / "benchmark" / "data" / "f20.dfao"


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


@pytest.mark.parametrize("validate", ["2", "5", "7", "8", "100"])
def test_certify_window_at_a_small_validate(built, validate, capsys):
    # the rule propagation to --validate // 2 reads no a below --validate 8,
    # where the window file's certificate passes on its planned windows and
    # outputs alone, and at 8 reads its first, a = 4, from F to 9
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
                                                           monkeypatch, capsys):
    # int(name, 2) reads each of these names; an unreachable state under
    # one would get its windows from the zero padding below F.  The names
    # are refused before any oracle is built
    a_path, _, _ = built
    monkeypatch.setattr(vseq.cli, "gen_f", _no_oracle)
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


@pytest.mark.parametrize("command", ["synthesize", "certify-window", "certify-single",
                                     "tables-check"])
def test_each_verifying_command_scans_the_rules_once(command, built, tmp_path,
                                                     monkeypatch, capsys):
    # certification derives the doubling rules it propagates in one scan of
    # the command's F, counted to --validate + 2, to a = --validate // 2; a
    # command that synthesizes scans besides only the walk's own F(0..465)
    a_path, b_path, _ = built
    argv = {"synthesize": ["synthesize", "--out", str(tmp_path / "x.dfao")],
            "certify-window": ["certify", "--automaton", str(a_path)],
            "certify-single": ["certify", "--automaton", str(b_path)],
            "tables-check": ["tables", "check"]}[command]
    scans = []
    scan = vseq.rules._scan

    def spy(f, a_min, a_max):
        scans.append((len(f), a_min, a_max))
        return scan(f, a_min, a_max)

    monkeypatch.setattr(vseq.rules, "_scan", spy)
    assert run([*argv, *FAST]) == 0
    walk = [] if command == "certify-window" else [(466, 4, 232)]
    assert scans == [*walk, (65536 + 3, 4, 65536 // 2)]


@pytest.mark.parametrize("validate", ["2", "3", "50", "100", "462", "463", "1000",
                                      "1853", "4194304"])
def test_the_walks_floor_and_past_it_write_the_committed_file(validate, tmp_path,
                                                             capsys):
    # the walk counts its own F(0..465), so --validate bounds only the
    # command's F: from check_bounds' floor of 2 up, synthesize writes the
    # committed machine, and tables check and certify of it pass
    out = tmp_path / "x.dfao"
    pipeline = ["--validate", validate, "--depth", "4"]
    assert run(["synthesize", *pipeline, "--out", str(out)]) == 0
    assert out.read_bytes() == BENCH_F20.read_bytes()
    assert run(["tables", "check", *pipeline]) == 0
    assert run(["certify", "--automaton", str(BENCH_F20), *pipeline]) == 0


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
        run(["gen", "v"])  # missing --max
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--automaton", "t.dfao", "--n", "abc"],                # BadNumeral
    ["eval", "--automaton", "t.dfao", "--binary", "--n", "12"],     # BadDigit
    ["gen", "f", "--max", "0"],
    ["rules", "derive", "--max", "3"],
    ["probe", "--sequence", "f", "--base", "1"],
    ["synthesize", "--validate", "65536", "--depth", "1", "--out", "x.dfao"],
    ["synthesize", "--validate", "65536", "--depth", "-3", "--out", "x.dfao"],
    ["probe", "--sequence", "f", "--depth", "-1"],
    ["probe", "--sequence", "vdiff", "--prefix", "0"],
    ["probe", "--sequence", "f", "--depth", "40"],                  # oracle past 2^32
    ["probe", "--sequence", "f", "--prefix", "2000000", "--depth", "12"],
    ["gen", "v", "--max", str(2 ** 32)],
], ids=["bad-numeral", "bad-digit", "gen-max-0", "rules-max-3", "probe-base-1",
        "synthesize-depth-1", "synthesize-depth-minus-3", "probe-depth-minus-1",
        "probe-prefix-0", "probe-depth-40",
        "probe-prefix-2e6", "gen-v-2^32"])
def test_usage_errors_exit_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("t.dfao").write_text(Dfao(2, 0, [(0, 1), (1, 0)], [0, 1], SINGLE).serialize())
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("vseq: ") and err.count("\n") == 1, err
    assert not Path("x.dfao").exists()


def test_vdiff_spans_1_and_2_print_on_both_engines(monkeypatch, capsys):
    # first_difference(span) takes any span >= 1: V's steps on [1, 1] and
    # [1, 2], and on [1, 3] at base 3, are probed, compiled and in plain
    # Python, to the same bytes
    from vseq import sequences
    for span, flags in ((1, "--depth 0 --prefix 1"), (2, "--depth 1 --prefix 1"),
                        (2, "--depth 0 --prefix 2"), (3, "--base 3 --depth 1 --prefix 1")):
        argv = ["probe", "--sequence", "vdiff", *flags.split()]
        with monkeypatch.context() as patch:
            patch.setattr(sequences, "_library", lambda: None)
            assert run(argv) == 0
            plain = capsys.readouterr()
        assert run(argv) == 0
        compiled = capsys.readouterr()
        assert compiled == plain and compiled.err == "", argv
        assert f"(oracle to {span})" in compiled.out
        assert compiled.out.endswith("stabilized: no\n"), compiled.out


@pytest.mark.parametrize("sequence", ["f", "vdiff"])
def test_probe_refuses_a_span_past_memory(sequence, monkeypatch, capsys):
    # on a machine of 1 MiB, a probe takes two bytes an index: a span of
    # 2^19 = 512 * 1024 fits it, and one of 1025 * 512 is refused with one
    # line, before any oracle runs
    from vseq import cli
    pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    assert run(["probe", "--sequence", sequence, "--depth", "9", "--prefix", "1024"]) == 0

    def oracle(*args):
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(cli, "gen_f", oracle)
    monkeypatch.setattr(cli, "first_difference", oracle)
    capsys.readouterr()
    assert run(["probe", "--sequence", sequence, "--depth", "9", "--prefix", "1025"]) == 2
    assert capsys.readouterr() == ("", "vseq: a probe to 524800 takes about 1049600 "
                                   "bytes of memory, and this machine has 1048576\n")


@pytest.mark.parametrize("sequence, fits, refused, need", [("v", 58254, 58255, 262147),
                                                      ("f", 262144, 262145, 262145)])
def test_gen_refuses_a_table_past_memory(sequence, fits, refused, need, tmp_path,
                                         monkeypatch, capsys):
    # on a machine of 256 KiB, V's table and its counts take 4.5 bytes a
    # term and F's counts a byte a value: the largest --max that fits runs,
    # and the next is refused with one line, before any oracle runs; so is
    # V to 2^32 - 1 on a machine of 8 GiB
    from vseq import cli
    pages = {"SC_PHYS_PAGES": 64, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    out = str(tmp_path / "t.seq")
    assert run(["gen", sequence, "--max", str(fits), "--out", out]) == 0

    def oracle(*args):
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(cli, "gen_f", oracle)
    monkeypatch.setattr(cli, "gen_v", oracle)
    capsys.readouterr()
    assert run(["gen", sequence, "--max", str(refused), "--out", out]) == 2
    assert capsys.readouterr() == ("", f"vseq: gen {sequence} --max {refused} takes "
                                   f"about {need} bytes of memory, and this machine "
                                   "has 262144\n")
    pages["SC_PHYS_PAGES"] = 2 ** 21
    assert run(["gen", "v", "--max", str(2 ** 32 - 1)]) == 2
    assert capsys.readouterr().err.startswith("vseq: gen v --max 4294967295 takes about")


@pytest.mark.parametrize("args, fits, refused, need", [
    (["rules", "derive", "--max"], 524287, 524288, 1048578),
    (["synthesize", "--depth", "4", "--out", "x.dfao", "--validate"], 1048574,
     1048575, 1048577),
    (["certify", "--automaton", str(BENCH_F20), "--depth", "4", "--validate"], 1048574,
     1048575, 1048577),
    (["tables", "check", "--depth", "4", "--validate"], 1048574, 1048575, 1048577),
], ids=["rules-derive", "synthesize", "certify", "tables-check"])
def test_f_past_memory_is_refused(args, fits, refused, need, tmp_path, monkeypatch,
                                  capsys):
    # on a machine of 1 MiB, rules derive counts F to 2 --max + 1 and the
    # pipeline commands to --validate + 2, a byte a value: the largest that
    # fits runs, and the next is refused with one line, before F is counted
    # or anything printed.  The plan of depth 4 ends at 29,665, inside F
    from vseq import cli
    monkeypatch.chdir(tmp_path)
    pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    assert run([*args, str(fits)]) == 0

    def oracle(*args):
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(cli, "gen_f", oracle)
    capsys.readouterr()
    assert run([*args, str(refused)]) == 2
    what = (f"rules derive --max {refused}" if args[0] == "rules"
            else f"--validate {refused} --depth 4")
    assert capsys.readouterr() == ("", f"vseq: {what} takes about {need} bytes of "
                                   "memory, and this machine has 1048576\n")


@pytest.mark.parametrize("args, pages, what, plain", [
    (["gen", "f", "--max", "131072"], 256, "gen f --max 131072", 1245184),
    (["gen", "v", "--max", "230000"], 256, "gen v --max 230000", 1092500),
    (["rules", "derive", "--max", "65536"], 256, "rules derive --max 65536", 1245203),
    (["probe", "--sequence", "f", "--depth", "17", "--prefix", "1"], 256,
     "a probe to 131072", 1245184),
    (["probe", "--sequence", "vdiff", "--depth", "18", "--prefix", "1"], 256,
     "a probe to 262144", 1245184),
    (["synthesize", "--depth", "4", "--validate", "131072", "--out", "x.dfao"], 256,
     "--validate 131072 --depth 4", 1245203),
    (["tables", "check", "--depth", "4", "--validate", "131072"], 256,
     "--validate 131072 --depth 4", 1245203),
    (["certify", "--automaton", str(BENCH_F20), "--depth", "6", "--validate", "65536"],
     256, "--validate 65536 --depth 6", 65538 + 1127251),
    (["gen", "f", "--max", str(2 ** 30)], 2 ** 21, f"gen f --max {2 ** 30}",
     10200547328),
    (["synthesize", "--depth", "19", "--out", "x.dfao"], 2 ** 21,
     "--validate 4194304 --depth 19", 4194306 + 9234284563),
], ids=["gen-f", "gen-v", "rules-derive", "probe-f", "probe-vdiff", "synthesize",
        "tables-check", "certify", "gen-f-2^30-of-8-GiB", "synthesize-depth-19-of-8-GiB"])
def test_memory_without_the_library_is_refused_at_the_plain_figures(
        args, pages, what, plain, tmp_path, monkeypatch, capsys):
    # on a machine of 1 MiB, or of 8 GiB, each command's compiled need fits
    # and its oracle is reached; without the library, the plain-Python
    # count holds V's 32-bit terms, PLAIN_F = 9.5 bytes a value of F, and
    # the command is refused with one line, before any oracle runs
    from vseq import cli, sequences
    monkeypatch.chdir(tmp_path)
    memory = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(cli.os, "sysconf", memory.__getitem__)
    for name in ("gen_f", "gen_v", "first_difference"):
        monkeypatch.setattr(cli, name, _no_oracle)
    with pytest.raises(AssertionError, match="an oracle was built"):
        run(args)
    capsys.readouterr()
    monkeypatch.setattr(sequences, "_library", lambda: None)
    assert run(args) == 2
    assert capsys.readouterr() == ("", f"vseq: {what} takes about {plain} bytes of "
                                   f"memory, and this machine has {pages * 4096}\n")
    assert not Path("x.dfao").exists()


@pytest.mark.parametrize("window", [False, True], ids=["synthesized", "window-file"])
def test_certificate_ring_past_memory_is_refused(window, built, tmp_path, monkeypatch,
                                                 capsys):
    # depth 12's plan ends at 7,593,985, past F to --validate + 2 = 65,538:
    # its windows past F are counted in a ring of 2^22 counts, 1 MiB, which
    # the need holds beside F's bytes.  The window file's plan is read off
    # the machine, the synthesized machine's is SYNTHESIZED_PLAN's
    from vseq import cli
    monkeypatch.chdir(tmp_path)
    need = 65538 + 2 ** 20
    pages = {"SC_PHYS_PAGES": need, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    args = ["certify", "--automaton", str(built[0] if window else BENCH_F20),
            "--validate", "65536", "--depth", "12"]
    assert run(args) == 0
    pages["SC_PHYS_PAGES"] = need - 1
    monkeypatch.setattr(cli, "gen_f", _no_oracle)
    capsys.readouterr()
    assert run(args) == 2
    assert capsys.readouterr() == ("", f"vseq: --validate 65536 --depth 12 takes about "
                                   f"{need} bytes of memory, and this machine has "
                                   f"{need - 1}\n")


def test_synthesized_plan_end_is_written_out():
    from vseq import cli, synthesis
    m = synthesis.synthesize_msb()
    for depth in range(2, synthesis.MAX_DEPTH + 1):
        assert synthesis.cert_plan(m, depth)[-1] == cli.SYNTHESIZED_PLAN << depth | 1


@pytest.mark.parametrize("command", ["synthesize", "tables-check", "certify-single"])
def test_plan_past_the_oracle_is_refused_before_any_oracle(command, tmp_path,
                                                           monkeypatch, capsys):
    # the synthesized machine's plan passes 2^32 from depth 22 on, inside
    # check_bounds's depth 30
    monkeypatch.chdir(tmp_path)
    Path("single.dfao").write_text(
        Dfao(2, 0, [(0, 1), (1, 0)], [0, 1], SINGLE).serialize())
    monkeypatch.setattr(vseq.cli, "gen_f", _no_oracle)
    assert run([*PIPELINE_COMMANDS[command], "--depth", "22"]) == 2
    assert capsys.readouterr() == ("", "vseq: the plan's end = 7776239618 is past "
                                   "the oracle's 32-bit range\n")

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
    ("--validate", "1", "validate_to must be >= 2"),
    ("--depth", "-3", "depth must be >= 2"),
    ("--depth", "31", "depth must be <= 30: the certificate reads F past 2^32, "
                      "beyond the oracle's 32-bit range"),
], ids=["validate-1", "depth-minus-3", "depth-31"])
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
    assert capsys.readouterr() == ("", f"vseq: {message}\n")
    assert not Path("x.dfao").exists()


@pytest.mark.parametrize("command", PIPELINE_COMMANDS)
def test_horizon_is_no_flag(command, tmp_path, monkeypatch):
    # --validate alone sets how far F is counted
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(vseq.cli, "gen_f", _no_oracle)
    with pytest.raises(SystemExit) as e:
        run([*PIPELINE_COMMANDS[command], "--horizon", "24"])
    assert e.value.code == 2
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
    assert captured.out == ""  # refused before the seed note prints


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


# -- the exit-code property ------------------------------------------------------

# flag values no command takes: zero, negatives, past the oracle's 32-bit
# range, text, and digits int() refuses ('²') or reads as 1 ('١')
BAD_VALUES = ["0", "-1", "-9", str(2 ** 32), str(2 ** 63), "ten", "²", "١"]
# the files a --automaton flag may name, written by _automaton_files
AUTOMATA = ["single.dfao", "window.dfao", "binary.dfao", "a_directory",
            "missing.dfao", "base3.dfao", "wrong_outputs.dfao"]
COUNT_LIMIT = 2 ** 16  # an oracle counted past this was not refused


def _automaton_files(tmp: Path) -> None:
    window = vseq.synthesize_msb()
    (tmp / "single.dfao").write_text(BENCH_F20.read_text())
    (tmp / "window.dfao").write_text(window.serialize())
    (tmp / "binary.dfao").write_bytes(bytes(range(256)))
    (tmp / "a_directory").mkdir()
    (tmp / "base3.dfao").write_text(
        Dfao(3, 0, [(0, 1, 0), (1, 0, 1)], [1, 2], SINGLE).serialize())
    wrong = [tuple(4 - v if v else 0 for v in o) for o in window.outputs]
    (tmp / "wrong_outputs.dfao").write_text(
        Dfao(2, window.initial, window.transitions, wrong, WINDOW,
             window.names).serialize())


def _commands(st, tmp: Path):
    """A subcommand and its flags, each value drawn from a pool of small
    valid values, four times in five, or else from BAD_VALUES; the flags
    whose defaults count a large oracle are always drawn."""

    def value(*valid):
        return st.sampled_from([True] * 4 + [False]).flatmap(
            lambda ok: st.sampled_from(valid if ok else BAD_VALUES))

    def flags(*switches, **pools):
        named = st.tuples(*(st.tuples(st.just(f"--{name}"), pool)
                            for name, pool in pools.items()))
        on = st.lists(st.booleans(), min_size=len(switches), max_size=len(switches))
        return st.tuples(named, on).map(
            lambda drawn: [word for flag in drawn[0] for word in flag]
            + [switch for switch, used in zip(switches, drawn[1]) if used])

    automaton = st.sampled_from([str(tmp / name) for name in AUTOMATA])
    out = st.sampled_from([str(tmp / "out.txt"), str(tmp / "a_directory"),
                           str(tmp / "missing" / "out.txt")])
    pipeline = dict(validate=value("2", "50", "463", "1000", "2000"),
                    depth=value("2", "3", "4"))
    probe = dict(base=value("2", "3"), depth=value("0", "1", "4"),
                 prefix=value("1", "3", "64"))
    commands = {
        ("gen", "f"): flags(max=value("1", "20", "300"), out=out),
        ("gen", "v"): flags(max=value("4", "20", "300"), out=out),
        ("rules", "derive"): flags(max=value("4", "20", "300"), min=value("4", "5", "10")),
        ("synthesize",): flags("--windowed", **pipeline, out=out),
        ("certify",): flags(automaton=automaton, **pipeline),
        ("tables", "check"): flags(**pipeline),
        ("probe", "--sequence", "f"): flags(**probe),
        ("probe", "--sequence", "vdiff"): flags(**probe),
        ("eval",): flags("--binary", automaton=automaton,
                         n=value("1", "463", "111001111", "7" * 40)),
        ("dot",): flags(automaton=automaton, out=out),
    }
    return st.sampled_from(sorted(commands)).flatmap(
        lambda head: commands[head].map(lambda tail: [*head, *tail]))


def test_every_command_exits_0_1_or_2_without_a_traceback(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    _automaton_files(tmp_path)

    def refuse_large(count):
        def bounded(n):
            if COUNT_LIMIT < n <= vseq.sequences.MAX_SIZE:
                raise AssertionError(f"an oracle of {n} was counted, not refused")
            return count(n)
        return bounded

    monkeypatch.setattr(vseq.cli, "gen_f", refuse_large(vseq.cli.gen_f))
    monkeypatch.setattr(vseq.cli, "first_difference",
                        refuse_large(vseq.cli.first_difference))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(_commands(st, tmp_path))
    def exits(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as e:  # argparse's usage errors
                code = e.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        lines = err.getvalue().splitlines()
        if code == 2:
            assert (len(lines) == 1 and lines[0].startswith("vseq: ")
                    or lines[0].startswith("usage: vseq")
                    and re.match(r"vseq( [a-z]+)*: error: ", lines[-1])), (
                argv, err.getvalue())
        else:
            assert lines == [], (argv, err.getvalue())

    exits()
