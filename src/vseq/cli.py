"""Command-line entry point.

Every subcommand is deterministic given its flags, prints the seed
conventions and bounds it relies on as '#' comment lines, and exits 0 on
success, 1 when a verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Sequence

# only the oracle and the automaton are imported with the CLI: each command
# imports the layers it runs (rules, synthesis, published) and calls them
# through the module, so that eval and dot compile none of them
from .automaton import WINDOW, BadDigit, BadNumeral, Dfao, ParseError
from .sequences import SequenceTable, first_difference, gen_f, gen_v, write_table

SEED_NOTE = "# seed convention: Q_{r,s}(1..s) = 1 (V is Q_{1,4}; F counts V and has F(0) = 0)"

# what bad flag values, numerals or files, or an oracle too large for
# memory, raise: usage errors, exit 2
USAGE_ERRORS = (ValueError, OSError, MemoryError, ParseError, BadNumeral,
                BadDigit)


def _synthesis_errors(*names: str) -> tuple:
    """The exception classes of these names in vseq.synthesis, or none
    while it is not loaded, as then none of them can have been raised.  An
    except clause evaluates its tuple only when an exception arrives, so
    the commands that never synthesize never import synthesis."""
    synthesis = sys.modules.get(f"{__package__}.synthesis")
    return tuple(getattr(synthesis, name) for name in names) if synthesis else ()


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


def _build_pipeline(validate: int, depth: int, machine: Dfao | None = None):
    """Oracle -> validated window automaton -> certificate, on one F,
    counted to validate + 2 for validation; the certificate's windows past
    it are counted on from it, not counted again.  A window machine given
    is certified in place of a synthesized one, with no verdict.  The F
    returned is that F."""
    from . import synthesis
    synthesis.check_bounds(validate_to=validate, depth=depth)
    f = gen_f(validate + 2)
    verdict = None
    if machine is None:
        machine, verdict = synthesis.synthesize_validated(f, validate)
    report = synthesis.certify_transitions(machine, f, depth, validate)
    return f, machine, verdict, report


def _check_memory(what: str, need: int) -> None:
    """A MemoryError, a usage error, unless ``need`` bytes, what ``what``
    takes, fit this machine's physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise MemoryError(f"{what} takes about {need} bytes of memory, and "
                          f"this machine has {memory}")


def cmd_gen(args) -> int:
    # V's table, four bytes a term, beside F's counts to about half its
    # end; or F's counts alone, a byte a value: peak RSS grew by 4.1 to 4.5
    # and by 1.0 bytes a term, from about 15 MB, at --max 2^21 to 2^23
    _check_memory(f"gen {args.sequence} --max {args.max}",
                  9 * args.max // 2 if args.sequence == "v" else args.max)
    print(SEED_NOTE)
    print(f"# gen {args.sequence} --max {args.max}")
    if args.sequence == "v":
        table = gen_v(args.max)
    else:
        table = gen_f(args.max)
    with _output(args.out) as fp:
        write_table(table, fp)
    return 0


def cmd_rules(args) -> int:
    from . import rules
    rules.check_range(args.min, args.max)
    print(SEED_NOTE)
    print(f"# rules derived on ({args.min - 1}, {args.max}], oracle to {2 * args.max + 1}")
    f = gen_f(2 * args.max + 1)
    table = rules.derive_rules(f, args.min, args.max)
    print(f"# {len(table)} distinct windows")
    sys.stdout.write(rules.format_rules(table))
    return 0


def cmd_synthesize(args) -> int:
    from . import synthesis
    print(SEED_NOTE)
    print(f"# synthesize --validate {args.validate} --depth {args.depth}")
    f, machine, verdict, report = _build_pipeline(args.validate, args.depth)
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
    from . import synthesis
    print(SEED_NOTE)
    print(f"# certify --automaton {args.automaton} --depth {args.depth} "
          f"--validate {args.validate}")
    loaded = _load_automaton(args.automaton)
    if loaded.alphabet_size != 2:
        raise ValueError(f"{args.automaton} reads base {loaded.alphabet_size}; "
                         "certification is for base-2 automata")
    # a window file is certified itself; a single-output file is tied by
    # exact product equivalence to a fresh window automaton, certified
    window = loaded.output_kind == WINDOW
    if window:  # refuse names that are not access strings before any oracle
        synthesis.cert_plan(loaded, args.depth)
    f, machine, _, report = _build_pipeline(args.validate, args.depth,
                                            loaded if window else None)
    sys.stdout.write(report.format())
    if window:
        passed = "cross-validated"
    else:
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
    from . import published
    print(SEED_NOTE)
    print(f"# tables check --validate {args.validate} --depth {args.depth}")
    _, machine, _, _ = _build_pipeline(args.validate, args.depth)
    minimized = machine.project_output().minimize()
    ok = True
    for printed, truth in ((published.table1(), machine),
                           (published.table2(), minimized)):
        report = published.diff_report(printed, truth)
        sys.stdout.write(report.format())
        ok = ok and report.all_classified
    return 0 if ok else 1


def cmd_probe(args) -> int:
    from . import synthesis
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
    # F's table or V's steps, and the first join's ids: peak RSS grew by
    # 1.2 to 1.3 bytes an index at bases 2 and 3 and by 1.9 at base 40,
    # from about 15 MB, at spans of 10^7 to 6 * 10^7
    _check_memory(f"a probe to {span}", 2 * span)
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

    r = sub.add_parser("rules", help="window rule table operations")
    rsub = r.add_subparsers(dest="action", required=True)
    rd = rsub.add_parser("derive", help="derive g/h from the F oracle")
    rd.add_argument("--max", type=int, required=True)
    rd.add_argument("--min", type=int, default=4)
    rd.set_defaults(func=cmd_rules)

    def pipeline_flags(sp):
        sp.add_argument("--validate", type=int, default=2 ** 22,
                        help="count F to VALIDATE + 2; cross-validate on "
                             "[0, VALIDATE] and check the doubling rules to "
                             "a = VALIDATE // 2")
        sp.add_argument("--depth", type=int, default=16,
                        help="the certificate's boundary families 0^j, 0^j 1, "
                             "1^j for j up to DEPTH")

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
    except _synthesis_errors("CertificationFailure") as e:
        print(f"FAIL {e}")
        return 1
    except USAGE_ERRORS as e:
        print(f"vseq: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
