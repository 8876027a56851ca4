"""Command-line entry point.

Every subcommand is deterministic given its flags, prints the seed
conventions and bounds it relies on as '#' comment lines, and exits 0 on
success, 1 when a verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Sequence

from . import published, rules, synthesis
from .automaton import WINDOW, BadDigit, BadNumeral, Dfao, ParseError
from .sequences import (DeadSequence, SequenceTable, count_windows,
                        first_difference, gen_f, gen_qrs, gen_v, write_table)

SEED_NOTE = "# seed convention: Q_{r,s}(1..s) = 1 (V is Q_{1,4}; F counts V and has F(0) = 0)"

# what bad flag values, numerals or files, or an oracle too large for
# memory, raise: usage errors, exit 2
USAGE_ERRORS = (ValueError, OSError, MemoryError, ParseError, BadNumeral,
                BadDigit, synthesis.OracleTooShort)


@contextlib.contextmanager
def _output(path: str | None):
    """stdout for no path or '-', else the file, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fp:
            yield fp


def _write(path: str | None, text: str) -> None:
    with _output(path) as fp:
        fp.write(text)


def _load_automaton(path: str) -> Dfao:
    with open(path) as fp:
        return Dfao.deserialize(fp.read())


# the doubling rules the certificate checks are derived to a = 2^20, which
# reads F to 2^21 + 1
RULES_TO = 2 ** 20


def _rules(f: SequenceTable) -> rules.WindowRuleTable:
    """The doubling rules the certificate checks, derived from f to
    a = RULES_TO or as far as f reaches."""
    return rules.derive_rules(f, 4, min(RULES_TO, (f.hi - 1) // 2))


def _certify(machine: Dfao, f: SequenceTable, plan: list[int], depth: int,
             validate: int) -> synthesis.CertificateReport:
    """The certificate of machine at depth, from f, which reaches
    validate + 1: F past f is read only at plan's windows, which
    count_windows counts on into a ring."""
    return synthesis.certify_transitions(machine, count_windows(f, plan), _rules(f),
                                         depth=depth, validate_to=validate)


def _build_pipeline(horizon: int, validate: int, depth: int):
    """Oracle -> validated window automaton -> rules -> certificate, on one
    F, counted for validation; the certificate's windows past it are counted
    on from it, not counted again.  The F returned is that F."""
    synthesis.check_bounds(horizon=horizon, validate_to=validate, depth=depth)
    f = gen_f(validate + 2)
    machine, verdict = synthesis.synthesize_validated(f, horizon, validate)
    report = _certify(machine, f, synthesis.cert_plan(machine, depth), depth, validate)
    return f, machine, verdict, report


def cmd_gen(args) -> int:
    print(SEED_NOTE)
    print(f"# gen {args.sequence} --max {args.max}")
    if args.sequence == "v":
        table = gen_v(args.max)
    else:
        table = gen_f(args.max)
    with _output(args.out) as fp:
        write_table(table, fp)
    return 0


def cmd_qrs(args) -> int:
    print(SEED_NOTE)
    print(f"# qrs --r {args.r} --s {args.s} --max {args.max}")
    table = gen_qrs(args.r, args.s, args.max)
    with _output(args.out) as fp:
        write_table(table, fp)
    return 0


def cmd_rules(args) -> int:
    rules.check_range(args.min, args.max)
    print(SEED_NOTE)
    print(f"# rules derived on ({args.min - 1}, {args.max}], oracle to {2 * args.max + 1}")
    f = gen_f(2 * args.max + 1)
    table = rules.derive_rules(f, args.min, args.max)
    print(f"# {len(table)} distinct windows")
    sys.stdout.write(rules.format_rules(table))
    return 0


def cmd_synthesize(args) -> int:
    print(SEED_NOTE)
    print(f"# synthesize --horizon {args.horizon} --validate {args.validate} "
          f"--depth {args.depth}")
    f, machine, verdict, report = _build_pipeline(args.horizon, args.validate,
                                                  args.depth)
    if args.windowed:
        out = machine
    else:
        out = machine.project_output().minimize()
        final = synthesis.cross_validate(out, f, args.validate)
        if not final.passed:
            print(f"minimized automaton fails at n = {final.first_mismatch}")
            return 1
    print(f"# window automaton: {machine.state_count} states; writing "
          f"{out.state_count} states ({out.output_kind})")
    print(f"# cross-validated on [0, {verdict.n_max}]; certificate: {report.verdict} "
          f"at depth {report.depth}")
    _write(args.out, out.serialize())
    if args.dot:
        _write(args.dot, out.to_dot())
    return 0


def cmd_certify(args) -> int:
    print(SEED_NOTE)
    print(f"# certify --automaton {args.automaton} --depth {args.depth} "
          f"--validate {args.validate}")
    loaded = _load_automaton(args.automaton)
    if loaded.alphabet_size != 2:
        raise ValueError(f"{args.automaton} reads base {loaded.alphabet_size}; "
                         "certification is for base-2 automata")
    synthesis.check_bounds(horizon=args.horizon, validate_to=args.validate,
                           depth=args.depth)
    if loaded.output_kind == WINDOW:
        # one F serves the certificate, its rules and the cross-check: F to
        # --validate + 2, and as far towards the certificate's bound as the
        # rules read, so that a small --validate derives the same rules
        plan = synthesis.cert_plan(loaded, args.depth)
        f = gen_f(max(args.validate + 2, min(plan[-1] + 1, 2 * RULES_TO + 1)))
        report = _certify(loaded, f, plan, args.depth, args.validate)
        sys.stdout.write(report.format())
        passed = "cross-validated"
    else:
        # single-output automaton: certify a fresh window automaton, then tie
        # the loaded machine to it by exact product equivalence
        f, machine, _, report = _build_pipeline(
            args.horizon, args.validate, args.depth)
        sys.stdout.write(report.format())
        same, witness = machine.project_output().minimize().equivalent(loaded)
        if not same:
            print(f"loaded automaton differs from the certified reference on "
                  f"input {witness!r}")
            return 1
        passed = "equivalent to the certified reference; cross-validated"
    checked = synthesis.cross_validate(loaded, f, args.validate)
    if not checked.passed:
        print(f"cross-validation fails at n = {checked.first_mismatch}")
        return 1
    print(f"{passed} on [0, {checked.n_max}]")
    return 0


def cmd_tables(args) -> int:
    print(SEED_NOTE)
    print(f"# tables check --validate {args.validate} --depth {args.depth}")
    _, machine, _, _ = _build_pipeline(args.horizon, args.validate, args.depth)
    minimized = machine.project_output().minimize()
    ok = True
    for printed, truth in ((published.table1(), machine),
                           (published.table2(), minimized)):
        report = published.diff_report(printed, truth)
        sys.stdout.write(report.format())
        ok = ok and report.all_classified
    return 0 if ok else 1


def cmd_probe(args) -> int:
    synthesis.check_probe_args(args.base, args.depth, args.prefix)
    if args.depth >= 32:  # base >= 2: refuse before building base ** depth
        raise ValueError(f"--depth {args.depth} needs an oracle past 2^32")
    span = args.prefix * args.base ** args.depth
    # a documented usage error, kept from when vdiff was read off
    # gen_v(span + 1), which needs 4 terms; first_difference(span) itself
    # takes any span >= 1
    if args.sequence == "vdiff" and span < 3:
        raise ValueError(f"--sequence vdiff needs --prefix * --base ** --depth "
                         f">= 3, got {span}")
    print(SEED_NOTE)
    print(f"# probe --sequence {args.sequence} --base {args.base} "
          f"--depth {args.depth} --prefix {args.prefix} (oracle to {span})")
    if args.sequence == "f":
        table: SequenceTable = gen_f(span)
    else:
        table = first_difference(span)
        print("# first difference of V; whether it is automatic is an open "
              "question, so these counts carry no claim")
    report = synthesis.kernel_probe(table, args.base, args.depth, args.prefix)
    sys.stdout.write(report.format())
    return 0


def cmd_eval(args) -> int:
    machine = _load_automaton(args.automaton)
    if args.binary:
        out = machine.eval(args.n)
    else:
        out = machine.eval_big(args.n)
    if machine.output_kind == WINDOW:
        print("".join(map(str, out)))
    else:
        print(out)
    return 0


def cmd_dot(args) -> int:
    _write(args.out, _load_automaton(args.automaton).to_dot())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vseq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate V or F as a seq table")
    g.add_argument("sequence", choices=["v", "f"])
    g.add_argument("--max", type=int, required=True)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    q = sub.add_parser("qrs", help="generate Q_{r,s} under the all-ones seed")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--max", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_qrs)

    r = sub.add_parser("rules", help="window rule table operations")
    rsub = r.add_subparsers(dest="action", required=True)
    rd = rsub.add_parser("derive", help="derive g/h from the F oracle")
    rd.add_argument("--max", type=int, required=True)
    rd.add_argument("--min", type=int, default=4)
    rd.set_defaults(func=cmd_rules)

    def pipeline_flags(sp):
        sp.add_argument("--horizon", type=int, default=24)
        sp.add_argument("--validate", type=int, default=2 ** 22)
        sp.add_argument("--depth", type=int, default=16)

    s = sub.add_parser("synthesize", help="synthesize, validate, certify, write")
    pipeline_flags(s)
    s.add_argument("--out", required=True)
    s.add_argument("--dot", default=None)
    s.add_argument("--windowed", action="store_true",
                   help="write the window automaton instead of the minimized one")
    s.set_defaults(func=cmd_synthesize)

    c = sub.add_parser("certify", help="certify an automaton file against the oracle")
    c.add_argument("--automaton", required=True)
    pipeline_flags(c)
    c.set_defaults(func=cmd_certify)

    t = sub.add_parser("tables", help="reference-table reconciliation")
    tsub = t.add_subparsers(dest="action", required=True)
    tc = tsub.add_parser("check", help="diff printed tables against synthesized truth")
    pipeline_flags(tc)
    tc.set_defaults(func=cmd_tables)

    pr = sub.add_parser("probe", help="kernel-size probe for automaticity evidence")
    pr.add_argument("--sequence", choices=["f", "vdiff"], required=True)
    pr.add_argument("--base", type=int, default=2)
    pr.add_argument("--depth", type=int, default=12)
    pr.add_argument("--prefix", type=int, default=4096)
    pr.set_defaults(func=cmd_probe)

    e = sub.add_parser("eval", help="evaluate an automaton at an index")
    e.add_argument("--automaton", required=True)
    e.add_argument("--n", required=True)
    e.add_argument("--binary", action="store_true",
                   help="treat --n as base-2 digits instead of decimal")
    e.set_defaults(func=cmd_eval)

    d = sub.add_parser("dot", help="export an automaton as graphviz dot")
    d.add_argument("--automaton", required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_dot)
    return p


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (synthesis.CertificationFailure, synthesis.InsufficientHorizon) as e:
        print(f"FAIL {e}")
        return 1
    except DeadSequence as e:
        print(f"dead sequence: {e}")
        return 1
    except USAGE_ERRORS as e:
        print(f"vseq: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
