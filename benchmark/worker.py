"""One process of a benchmark workload: set up, run, check, report.

run.py starts this script once per process it needs; it is not meant to be
run by hand.  A process does one of three things:

- ``--setup-only``: gets ready and stops, so that set-up is timed alone;
- ``--queries FILE``: loads the automaton in FILE and runs query rounds on
  it until ``--seconds`` have passed (at least one round);
- otherwise: runs the ``synthesize`` or ``probe`` job once.

The process is ready (``setup_s``) once ``import vseq`` is done and, with
``--queries``, the automaton file is read and parsed.  Its peak resident
set is read right after the timed work, before any check allocates.  The
outputs are then checked against reference.py.  The last line of standard
output is one JSON object.  Its times are scaled to a reference host speed,
measured alongside the work by ``calibration_loop``; the ``raw_`` ones are
as measured.  README.md says why.
"""

import argparse
import array
import contextlib
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"

SYNTH_DEPTH = 12       # see README: depth 16 takes 140 s and 2 GB per run
PROBE_ARGS = (["probe", "--sequence", "f"], ["probe", "--sequence", "vdiff"])
PROBE_DEPTH, PROBE_PREFIX = 12, 4096  # the CLI defaults the probe jobs run at
GROUPS = 64            # doubling groups per query round
MAX_DIGITS = 4000      # longest numeral in the timed stream
GOLDEN = (math.sqrt(5) - 1) / 2
TABLE_SAMPLES = 4096   # points of the probe's F table checked against the automaton
AUTOMATON = BENCH / "data" / "f20.dfao"
CAL_REF_S = 0.004      # the calibration loop's time at the reference speed
CAL_TERMS = 30000      # terms of the calibration loop, about 4 ms
SAMPLE_PERIOD_S = 0.2  # how often a job samples the host speed


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("synthesize", "probe", "query"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--queries", type=Path, metavar="FILE")
    p.add_argument("--job", type=int, default=0, help="index of this job in its run")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- host speed ------------------------------------------------------------------

def calibration_loop() -> float:
    """Seconds for a fixed interpreter-bound loop that shares no code with
    vseq: CAL_TERMS terms of Hofstadter's Q recursion."""
    started = time.perf_counter()
    q = [1, 1, 1]
    for n in range(3, CAL_TERMS):
        q.append(q[n - q[n - 1]] + q[n - q[n - 2]])
    return time.perf_counter() - started


def speed_now() -> float:
    """The host's speed now, relative to the reference: a time multiplied
    by it reads as on a host where the calibration loop takes CAL_REF_S.
    The median of three loops, as a round or a job meets the host's
    slow moments too."""
    return CAL_REF_S / statistics.median(calibration_loop() for _ in range(3))


class JobSpeed:
    """A job's time at the reference speed, from samples of the host speed.

    While ``sampling``, a SIGALRM handler runs the calibration loop every
    SAMPLE_PERIOD_S, between the job's own bytecodes (a signal waits for a
    long numpy call to return).  Each stretch of the job's time up to a
    sample is scaled by the speed that sample measured, and the stretch
    after the last sample by the last speed.  The samples' own time is
    counted in neither time.
    """

    def __init__(self):
        self.raw = 0.0      # the job's time, as measured
        self.scaled = 0.0   # the job's time at the reference speed
        self.speed = 0.0    # the latest sample's speed
        self._mark = 0.0    # end of the stretch already counted

    def _count(self, now: float) -> None:
        self.raw += now - self._mark
        self.scaled += (now - self._mark) * self.speed

    def _sample(self, signum, frame) -> None:
        now = time.perf_counter()
        self.speed = CAL_REF_S / calibration_loop()
        self._count(now)
        self._mark = time.perf_counter()

    @contextlib.contextmanager
    def sampling(self):
        if not self.speed:
            self.speed = speed_now()
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._count(time.perf_counter())


# -- the query stream -----------------------------------------------------------

def round_groups(rng: random.Random, positions: list[float]) -> list[int]:
    """One round's values of a, with numeral lengths log-uniform over
    [1, MAX_DIGITS] and one group in eight shaped like each certification
    family: 10^k, 2^k - 1 and 2^k.  Group i's length lies in stratum i of
    GROUPS, at ``positions[i]`` within it, so every round has the same
    length profile."""
    groups = []
    for i, position in enumerate(positions):
        digits = max(1, math.ceil(MAX_DIGITS ** ((i + position) / GROUPS)))
        bits = max(3, int(digits * math.log2(10)) - 1)
        shape = i % 8
        if shape == 0:
            a = 10 ** (digits - 1)
        elif shape == 1:
            a = (1 << bits) - 1
        elif shape == 2:
            a = 1 << bits
        else:
            a = rng.randrange(10 ** (digits - 1), 10 ** digits)
        groups.append(max(a, 4))
    return groups


def group_indices(a: int) -> tuple[int, ...]:
    """F(a-2..a+1) is the window; F(2a), F(2a+1) are its doubling images."""
    return (a - 2, a - 1, a, a + 1, 2 * a, 2 * a + 1)


def failing_numerals() -> list[tuple[str, int]]:
    """Decimal numerals past CPython's 4300-digit int/str limit, with their
    values built without converting a string.  The same on every seed."""
    return [
        ("1" + "0" * 4300, 10 ** 4300),
        ("9" * 5000, 10 ** 5000 - 1),
        ("1" * 4301, (10 ** 4301 - 1) // 9),
        ("12345678" * 1000, 12345678 * ((10 ** 8000 - 1) // (10 ** 8 - 1))),
    ]


class QueryRun:
    """Rounds of timed single queries on one automaton.

    After each round, untimed, the three forms of every index are compared
    and the answers are folded into what ``check`` needs: each distinct
    doubling group F(a-2..a+1), F(2a), F(2a+1), and the answers for n inside
    the reference prefix.  What a run keeps grows little with its rounds,
    so its peak resident set does not depend on how many it ran.
    """

    def __init__(self, machine, rng: random.Random):
        from reference import PREFIX
        self.machine = machine
        self.rng = rng
        self.prefix = PREFIX
        self.starts = [rng.random() for _ in range(GROUPS)]
        self.latencies_us = array.array("d")   # at the reference speed
        self.round_walls: list[float] = []      # at the reference speed
        self.raw_walls: list[float] = []        # as measured
        self.doubling_groups: dict[tuple, int] = {}  # values -> bit length of one such a
        self.prefix_answers: dict[int, int] = {}    # n -> F(n) for n in the reference prefix
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, seconds: float, with_failing: bool) -> None:
        """One untimed warm-up round, then whole timed rounds: at least one,
        and more until ``seconds`` have passed."""
        self.round(with_failing, timed=False)
        started = time.monotonic()
        while not self.round_walls or time.monotonic() - started < seconds:
            self.round(with_failing)

    def round(self, with_failing: bool, timed: bool = True) -> None:
        # each stratum's positions over the rounds: a seeded start, then
        # steps of the golden ratio, which cover the stratum evenly
        positions = [(start + len(self.round_walls) * GOLDEN) % 1 for start in self.starts]
        groups = round_groups(self.rng, positions)
        queries = []
        for g, a in enumerate(groups):
            for j, n in enumerate(group_indices(a)):
                slot = (6 * g + j) * 3
                queries += [(slot, False, n), (slot + 1, False, str(n)),
                            (slot + 2, True, bin(n)[2:])]
        # answers[(6 g + j) * 3 + form]: index j of group g, forms int, decimal, binary
        answers = [None] * len(queries)
        self.rng.shuffle(queries)
        eval_big, eval_bits = self.machine.eval_big, self.machine.eval
        lat = self.latencies_us
        clock = time.perf_counter_ns
        speed = speed_now()
        first = len(lat)
        started = time.perf_counter()
        for slot, bits, arg in queries:
            t = clock()
            out = eval_bits(arg) if bits else eval_big(arg)
            lat.append((clock() - t) / 1000)
            answers[slot] = out
        wall = time.perf_counter() - started
        if timed:
            for i in range(first, len(lat)):
                lat[i] *= speed
            self.raw_walls.append(wall)
            self.round_walls.append(wall * speed)
        else:
            del lat[first:]
        self.attempted += len(queries)
        self._fold(groups, answers)
        if with_failing:
            self._failing_batch()

    def _fold(self, groups: list[int], answers: list) -> None:
        for g, a in enumerate(groups):
            values = []
            for j, n in enumerate(group_indices(a)):
                slot = (6 * g + j) * 3
                forms = answers[slot:slot + 3]
                if len(set(forms)) != 1:
                    self.errors.append(f"int/decimal/binary answers differ at n = {n}: {forms}")
                values.append(forms[0])
                if n <= self.prefix:
                    self.prefix_answers[n] = forms[0]
            self.doubling_groups.setdefault(tuple(values), a.bit_length())

    def _failing_batch(self) -> None:
        """Untimed: each numeral as int, binary and decimal string."""
        for text, n in failing_numerals():
            by_int = self.machine.eval_big(n)
            by_bits = self.machine.eval(bin(n)[2:])
            self.attempted += 3
            try:
                by_text = self.machine.eval_big(text)
            except Exception:
                self.failed += 1
                by_text = by_int
            if not by_int == by_bits == by_text:
                self.errors.append(f"forms disagree on the {len(text)}-digit numeral {text[:12]}...")

    def check(self, ref) -> None:
        """20 states; the doubling identity holds, prefix values match."""
        if self.machine.state_count != 20:
            self.errors.append(f"automaton has {self.machine.state_count} states, expected 20")
        for values, bits in self.doubling_groups.items():
            if not ref.doubling_holds(values[:4], values[4], values[5]):
                self.errors.append(f"doubling identity fails at a of {bits} bits "
                                   f"(window {values[:4]}, images {values[4:]})")
        for n, value in self.prefix_answers.items():
            if value != ref.f[n]:
                self.errors.append(f"F({n}) = {value}, reference {ref.f[n]}")


# -- jobs ----------------------------------------------------------------------

def run_cli(argv: list[str], speed: JobSpeed | None):
    """Exit code, standard output and wall time of one CLI call.  With
    ``speed``, the call is timed by it instead, with the host speed
    sampled throughout."""
    import vseq.cli
    out = io.StringIO()
    started = time.perf_counter()
    with speed.sampling() if speed else contextlib.nullcontext():
        with contextlib.redirect_stdout(out):
            rc = vseq.cli.run(argv)
    return rc, out.getvalue(), time.perf_counter() - started


def record_job(result: dict, wall: float, speed: JobSpeed | None) -> None:
    """The job's time, unscaled and at the reference speed, and its peak."""
    result["raw_wall_s"] = speed.raw if speed else wall
    result["wall_s"] = speed.scaled if speed else wall
    result["speed"] = result["wall_s"] / result["raw_wall_s"]
    result["peak_rss_mb"] = peak_rss_mb()


# Each job fills in the measured part of ``result`` and returns the checks
# that need the reference, run after the timing.

def synthesize(args, result: dict, speed: JobSpeed | None):
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / f"synthesize-{args.seed}-{args.job}{'-traced' if args.trace else ''}.dfao"
    rc, stdout, wall = run_cli(["synthesize", "--depth", str(SYNTH_DEPTH), "--out", str(path)],
                               speed)
    record_job(result, wall, speed)
    result["attempted"] += 1
    result["machine"] = str(path)
    errors = result["errors"]

    def check(ref):
        from reference import PlainDfao
        if rc != 0:
            errors.append(f"synthesize exited {rc}: {stdout[-300:]}")
            return
        if f"certificate: pass at depth {SYNTH_DEPTH}" not in stdout:
            errors.append("synthesize did not report a passing certificate at its depth")
        plain = PlainDfao(path.read_text())
        if plain.states != 20 or plain.kind != "single":
            errors.append(f"written machine has {plain.states} {plain.kind} states, expected 20 single")
        elif not (plain.values_upto(ref.a_max) == ref.f).all():
            errors.append("written machine disagrees with the reference F on its prefix")

    return check


def parse_probe(stdout: str) -> tuple[list[tuple[int, int, int, int]], bool]:
    levels = []
    for line in stdout.splitlines():
        if line.startswith("level "):
            # level <e>: distinct <d> (blocks of <b>, <s> samples)
            words = line.replace(":", " ").replace("(", " ").replace(",", " ").split()
            levels.append((int(words[1]), int(words[3]), int(words[6]), int(words[7])))
    return levels, "# truncated" in stdout


def probe(args, result: dict, speed: JobSpeed | None):
    import numpy as np
    import vseq.cli
    kept = {}

    def keep(name, fn):
        def tap(*a, **kw):
            kept[name] = fn(*a, **kw)
            return kept[name]
        setattr(vseq.cli, name, tap)

    keep("gen_f", vseq.cli.gen_f)
    keep("first_difference", vseq.cli.first_difference)
    errors = result["errors"]
    rng = random.Random(args.seed)

    rc_f, out_f, wall_f = run_cli(PROBE_ARGS[0], speed)
    table = kept.pop("gen_f")
    f_prefix = np.frombuffer(bytes(table.values[:2 ** 20]), dtype=np.uint8)
    points = sorted(rng.randrange(table.lo, table.hi + 1) for _ in range(TABLE_SAMPLES))
    f_points = [(n, table.values[n - table.lo]) for n in points]
    f_hi = table.hi
    del table
    rc_d, out_d, wall_d = run_cli(PROBE_ARGS[1], speed)
    record_job(result, wall_f + wall_d, speed)
    result["attempted"] += 2
    for rc, argv in ((rc_f, PROBE_ARGS[0]), (rc_d, PROBE_ARGS[1])):
        if rc != 0:
            errors.append(f"{' '.join(argv)} exited {rc}")
    diff = kept.pop("first_difference")
    d = np.asarray(diff.values)
    if not ((d == 0) | (d == 1)).all():
        errors.append("a first difference of V lies outside {0, 1}")
    d_prefix = d[:2 ** 19].copy()
    del d, diff

    def check(ref):
        from reference import PlainDfao
        plain = PlainDfao(AUTOMATON.read_text())
        levels, truncated = parse_probe(out_f)
        if len(levels) != PROBE_DEPTH + 1 or truncated:
            errors.append(f"probe f: {len(levels)} levels, truncated={truncated}")
        for e, distinct, block, samples in levels:
            floor = ref.distinct_blocks(e, PROBE_PREFIX)
            if not floor <= distinct <= plain.states:
                errors.append(f"probe f level {e}: {distinct} blocks, outside "
                              f"[{floor}, {plain.states}]")
        if f_hi != PROBE_PREFIX << PROBE_DEPTH or not (f_prefix[:ref.a_max + 1] == ref.f).all():
            errors.append("probe's F table disagrees with the reference F")
        for n, v in f_points:
            if plain.value(n) != v:
                errors.append(f"probe's F table has F({n}) = {v}, automaton {plain.value(n)}")
                break
        levels, truncated = parse_probe(out_d)
        if len(levels) != PROBE_DEPTH + 1 or truncated or levels[0][1] != 2:
            errors.append(f"probe vdiff: {len(levels)} levels, truncated={truncated}, "
                          f"level 0 = {levels[0][1] if levels else None}")
        for e, distinct, block, samples in levels:
            if distinct > samples:
                errors.append(f"probe vdiff level {e}: {distinct} blocks from {samples} samples")
        want = ref.vdiff(min(len(d_prefix), len(ref.v) - 1))
        if not (d_prefix[:len(want)] == want).all():
            errors.append("probe's first differences disagree with the reference V")

    return check


def query_rounds(args, result: dict, machine):
    """Rounds on ``machine``; only the ``query`` workload adds the failing batch."""
    queries = QueryRun(machine, random.Random(args.seed))
    queries.run(args.seconds, with_failing=args.workload == "query")
    result["round_walls"] = queries.round_walls
    result["raw_round_walls"] = queries.raw_walls
    result["peak_rss_mb"] = peak_rss_mb()
    result["latencies_us"] = queries.latencies_us.tolist()
    result["attempted"] += queries.attempted
    result["failed"] += queries.failed

    def check(ref):
        queries.check(ref)
        result["errors"] += queries.errors

    return check


def main(argv) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    import vseq
    import vseq.cli  # noqa: F401  (the synthesize and probe jobs enter here)
    if not Path(vseq.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"vseq imported from {vseq.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if tracer:
        tracer.install()
    machine = vseq.Dfao.deserialize(args.queries.read_text()) if args.queries else None
    setup = time.monotonic() - args.t0
    speed = speed_now()
    result = {"raw_setup_s": setup, "setup_s": setup * speed}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result.update(attempted=0, failed=0, errors=[])
    if machine is not None:
        check = query_rounds(args, result, machine)
    elif args.workload == "synthesize":
        check = synthesize(args, result, None if args.trace else JobSpeed())
    elif args.workload == "probe":
        check = probe(args, result, None if args.trace else JobSpeed())
    else:
        print("the query workload needs --queries", file=sys.stderr)
        return 2

    from reference import Reference
    check(Reference())
    if tracer:
        result["spans"] = [span.__dict__ for span in tracer.spans]
        result["bookkeeping_s"] = tracer.bookkeeping
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
