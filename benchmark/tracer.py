"""Spans around the calls into each vseq layer, kept in memory.

``Tracer.install`` replaces the public functions that callers look up (for
example ``vseq.cli.gen_f`` and ``vseq.synthesis.cross_validate``) with
wrappers that record a span each: name, start, end, the span that called it,
and the counts listed in ``TARGETS``.  Nothing inside the package changes.
``layer_metrics`` folds the spans into the per-layer figures.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import threading
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("sequences", "rules", "synthesis", "automaton", "cli")
MB = 1024 * 1024
PAGE = resource.getpagesize()


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fp:
        return int(fp.read().split()[1]) * PAGE


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class _PeakSampler:
    """Highest resident set seen while one span is open.

    A thread samples the current resident set every millisecond.  When the
    process high-water mark rises during the span, that mark is exact and
    wins; otherwise the samples give the span's own peak.
    """

    def __init__(self):
        self.peak = _rss_bytes()
        self._hwm = _maxrss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(0.001):
            self.peak = max(self.peak, _rss_bytes())

    def close(self) -> int:
        self._stop.set()
        self._thread.join()
        hwm = _maxrss_bytes()
        peak = max(self.peak, _rss_bytes())
        return hwm if hwm > self._hwm else peak


@dataclass
class Span:
    id: int
    name: str
    parent: int
    start: float
    end: float
    counts: dict


def _gen_f_counts(args, result):
    # V terms the scan computed: every counted term plus the one that ended it
    return {"v_steps": int(np.frombuffer(result.values, dtype=np.uint8).sum()) + 1}


def _derive_counts(args, result):
    return {"a": args["a_max"] - args["a_min"] + 1}


def _discover_counts(args, result):
    return {"states": len(result[0])}


def _cross_validate_counts(args, result):
    return {"indices": args["n_max"] + 1}


def _certify_counts(args, result):
    # output windows, then per transition the base case and three boundary
    # families per depth, then one window per a in the rule propagation
    m = args["m"]
    transitions = m.state_count * m.alphabet_size
    propagation = max(0, args["validate_to"] // 2 - 3)
    return {"windows": m.state_count + transitions * (1 + 3 * args["depth"]) + propagation}


def _probe_counts(args, result):
    return {"bytes": sum(lv.samples * lv.block_len for lv in result.levels)}


def _walk_counts(args, result):
    return {"digits": len(args["digits"])}


# span name -> (module path or class, attribute, counts, sample the peak RSS)
TARGETS = (
    ("sequences.gen_f", "vseq.cli", "gen_f", _gen_f_counts, True),
    ("sequences.gen_v", "vseq.cli", "gen_v", None, True),
    ("sequences.first_difference", "vseq.cli", "first_difference", None, False),
    ("rules.derive_rules", "vseq.rules", "derive_rules", _derive_counts, False),
    ("synthesis.synthesize_validated", "vseq.synthesis", "synthesize_validated", None, False),
    ("synthesis.synthesize_msb", "vseq.synthesis", "synthesize_msb", None, False),
    ("synthesis.discover", "vseq.synthesis", "discover", _discover_counts, False),
    ("synthesis.cross_validate", "vseq.synthesis", "cross_validate", _cross_validate_counts, True),
    ("synthesis.certify_transitions", "vseq.synthesis", "certify_transitions", _certify_counts, False),
    ("synthesis.kernel_probe", "vseq.synthesis", "kernel_probe", _probe_counts, False),
    ("automaton.project_output", "Dfao", "project_output", None, False),
    ("automaton.minimize", "Dfao", "minimize", None, False),
    ("automaton.serialize", "Dfao", "serialize", None, False),
    ("automaton.deserialize", "Dfao", "deserialize", None, False),
    ("automaton.eval_big", "Dfao", "eval_big", None, False),
    ("automaton.eval", "Dfao", "eval", None, False),
    ("automaton.walk", "Dfao", "walk", _walk_counts, False),
    ("cli.run", "vseq.cli", "run", None, False),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.bookkeeping = 0.0  # seconds spent in the wrappers themselves
        self._stack: list[int] = []

    def install(self) -> None:
        import importlib

        from vseq.automaton import Dfao
        for name, owner_path, attr, counts, rss in TARGETS:
            owner = Dfao if owner_path == "Dfao" else importlib.import_module(owner_path)
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self._wrap(name, fn, counts, rss)
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def _wrap(self, name, fn, counts, rss):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            sampler = _PeakSampler() if rss else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, name, parent, start, end,
                                  {"rss": sampler.close()} if sampler else {}))
                self.bookkeeping += time.perf_counter() - entered - (end - start)
                raise
            end = time.perf_counter()
            stack.pop()
            recorded = {"rss": sampler.close()} if sampler else {}
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                recorded.update(counts(bound.arguments, result))
            spans.append(Span(sid, name, parent, start, end, recorded))
            self.bookkeeping += time.perf_counter() - entered - (end - start)
            return result

        return traced


def dump_spans(spans: list[Span], path) -> None:
    with open(path, "w") as fp:
        for s in sorted(spans, key=lambda s: s.id):
            fp.write(json.dumps(s.__dict__) + "\n")


def layer_metrics(spans: list[Span], bookkeeping: float) -> dict[str, float]:
    """The per-layer figures of one traced process."""
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.end - s.start for s in named(name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    def peak_mb(name):
        return max((s.counts["rss"] for s in named(name)), default=0) / MB

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def under(span, name):
        while span.parent >= 0:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    self_time = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_time[s.name.split(".")[0]] += s.end - s.start - child_time.get(s.id, 0.0)
    eval_big_digits = sum(s.counts["digits"] for s in named("automaton.walk")
                          if under(s, "automaton.eval_big"))
    return {
        "sequences.gen_f.s": total("sequences.gen_f"),
        "sequences.gen_f.calls": len(named("sequences.gen_f")),
        "sequences.gen_f.v_steps_per_s": per(count("sequences.gen_f", "v_steps"),
                                             total("sequences.gen_f")),
        "sequences.gen_f.rss_mb": peak_mb("sequences.gen_f"),
        "sequences.gen_v.s": total("sequences.gen_v"),
        "sequences.gen_v.rss_mb": peak_mb("sequences.gen_v"),
        "sequences.first_difference.s": total("sequences.first_difference"),
        "rules.derive_rules.s": total("rules.derive_rules"),
        "rules.derive_rules.ns_per_a": per(1e9 * total("rules.derive_rules"),
                                           count("rules.derive_rules", "a")),
        "synthesis.synthesize_validated.attempts": sum(
            1 for s in named("synthesis.synthesize_msb")
            if under(s, "synthesis.synthesize_validated")),
        "synthesis.discover.s": total("synthesis.discover"),
        "synthesis.discover.states": max((s.counts["states"] for s in named("synthesis.discover")),
                                         default=0),
        "synthesis.cross_validate.s": total("synthesis.cross_validate"),
        "synthesis.cross_validate.ns_per_index": per(
            1e9 * total("synthesis.cross_validate"),
            count("synthesis.cross_validate", "indices")),
        "synthesis.cross_validate.rss_mb": peak_mb("synthesis.cross_validate"),
        "synthesis.certify_transitions.s": total("synthesis.certify_transitions"),
        "synthesis.certify_transitions.windows_compared": count(
            "synthesis.certify_transitions", "windows"),
        "synthesis.kernel_probe.s": total("synthesis.kernel_probe"),
        "synthesis.kernel_probe.bytes_compared": count("synthesis.kernel_probe", "bytes"),
        "automaton.minimize.s": total("automaton.minimize"),
        "automaton.deserialize.s": total("automaton.deserialize"),
        "automaton.eval_big.us_per_digit": per(1e6 * total("automaton.eval_big"),
                                               eval_big_digits),
        "automaton.walk.digits": count("automaton.walk", "digits"),
        **{f"{layer}.self_s": self_time[layer] for layer in LAYERS},
        "trace.bookkeeping_s": bookkeeping,
    }
