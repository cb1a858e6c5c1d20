"""Child process of the benchmark: runs one workload in a fresh interpreter.

``run.py`` starts it, one child at a time, so that peak RSS belongs to one
workload alone.  Modes::

    worker.py run WORKLOAD SEED SECONDS TRACE SPANS_FILE
    worker.py selftest

``run`` prints one JSON line with the samples; ``run.py`` turns them into
metrics.  All load is a closed loop with one client: each request starts when
the previous one has returned.  Times are in reference seconds (see
``calibration.py``).
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as W  # noqa: E402  (imports the engine from src/)
from calibration import Sampler  # noqa: E402
from qheis import (Coefficient, QheisError, RewriteSystem, normalize,  # noqa: E402
                   parse_expr, parse_machine, reduce_trace)
from spec import CLAIMS, TAIL_PCT, min_passes  # noqa: E402
from tracing import NULL, Tracer  # noqa: E402

MICRO_MIN_S = 0.2          # each micro-benchmark repeats its pool this long
MICRO_POOL = 200           # coefficients (or polynomial pairs) per pool
SETUP_REPEATS = 3          # traced rebuilds of the presentations


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def _call(req, tracer):
    with tracer.span("request." + req.kind):
        try:
            return req.run(tracer)
        except QheisError as exc:
            return exc


def _checked(req, out):
    if isinstance(out, QheisError):
        return False
    try:
        return bool(req.check(out))
    except QheisError:
        return False


class Tally:
    """Samples of several passes, and the failures among their requests."""

    def __init__(self):
        self.pass_s, self.raw_pass_s, self.latencies = [], [], []
        self.attempted = self.failed = 0
        self.notes = []

    def run_pass(self, requests, sampler, tracer=NULL, pass_check=None):
        """One closed-loop pass; returns its time in reference seconds."""
        latencies, outcomes, raw = [], [], 0.0
        for req in requests:
            t0 = perf_counter()
            outcomes.append(_call(req, tracer))
            t1 = perf_counter()
            latencies.append(sampler.reference_seconds(t0, t1)[0])
            raw += t1 - t0
        bad = {i for i, (req, out) in enumerate(zip(requests, outcomes))
               if not _checked(req, out)}
        if pass_check is not None:
            bad.update(pass_check(outcomes))
        for i in sorted(bad)[:5 - len(self.notes)]:
            out = outcomes[i]
            self.notes.append(f"request {i} ({requests[i].kind}): " + (
                f"{type(out).__name__}: {out}" if isinstance(out, QheisError)
                else "wrong answer"))
        self.pass_s.append(sum(latencies))
        self.raw_pass_s.append(raw)
        self.latencies.append(latencies)
        self.attempted += len(requests)
        self.failed += len(bad)
        return self.pass_s[-1]

    def report(self):
        return {"pass_s": self.pass_s, "raw_pass_s": self.raw_pass_s,
                "latencies": self.latencies, "attempted": self.attempted,
                "failed": self.failed, "failures": self.notes}


def measured_run(wl, seconds):
    tally = Tally()
    passes = min_passes(len(wl.requests), TAIL_PCT[wl.name])
    with Sampler() as sampler:
        start = perf_counter()
        while len(tally.pass_s) < passes or perf_counter() - start < seconds:
            tally.run_pass(wl.requests, sampler, pass_check=wl.pass_check)
    return tally.report()


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _time_pool(sampler, op, items):
    """Median reference seconds per ``op`` call over ``items``, repeated for
    MICRO_MIN_S and at least three rounds."""
    rounds = []
    start = perf_counter()
    while len(rounds) < 3 or perf_counter() - start < MICRO_MIN_S:
        t0 = perf_counter()
        for item in items:
            op(item)
        rounds.append(sampler.reference_seconds(t0, perf_counter())[0] / len(items))
    return median(rounds)


def _spaced(items, n):
    step = max(1, len(items) // n)
    return items[::step][:n]


def micro_metrics(wl, sampler):
    """Coefficient and polynomial arithmetic on the workload's expected
    outputs; polynomials pair up within one presentation."""
    polys = [(key, p) for key in sorted(wl.pool_polys) for p in wl.pool_polys[key]]
    coeffs = [c for _, p in polys for c in p.terms.values()]
    sample = _spaced(coeffs, MICRO_POOL)
    pairs = list(zip(sample, sample[1:] + sample[:1]))
    # half the equality tests compare a value with an equal copy of itself
    eq_pairs = [(a, Coefficient(dict(a.num), dict(a.den)) if i % 2 else b)
                for i, (a, b) in enumerate(pairs)]
    poly_pairs = _spaced([(a, b) for (ka, a), (kb, b) in zip(polys, polys[1:])
                          if ka == kb], MICRO_POOL // 4)

    def us(op, items):
        return _time_pool(sampler, op, items) * 1e6

    return {
        "coeffs.mul_us": us(lambda ab: ab[0] * ab[1], pairs),
        "coeffs.add_us": us(lambda ab: ab[0] + ab[1], pairs),
        "coeffs.eq_us": us(lambda ab: ab[0] == ab[1], eq_pairs),
        "coeffs.inv_us": us(lambda a: a.inverse(), sample),
        "coeffs.terms_max": max(len(c.num) + len(c.den) for c in coeffs),
        "ncpoly.mul_us": us(lambda ab: ab[0] * ab[1], poly_pairs),
        "ncpoly.add_us": us(lambda ab: ab[0] + ab[1], poly_pairs),
    }


def traced_run(wl, seconds, spans_file):
    tracer, tally = Tracer(), Tally()
    with Sampler() as sampler:
        with tracer.span("setup"):
            for _ in range(SETUP_REPEATS):
                W.build_presentations(wl.name, tracer)

        # untraced and traced passes alternate, so that a slow spell of the
        # machine does not land on one side of the overhead ratio only
        untraced, traced = [], []
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            if len(untraced) == len(traced):
                untraced.append(tally.run_pass(wl.requests, sampler,
                                               pass_check=wl.pass_check))
            else:
                with tracer.span("pass"):
                    traced.append(tally.run_pass(wl.requests, sampler, tracer,
                                                 wl.pass_check))

        # layers the workload's own requests do not reach are timed by probes
        names = {s[1] for s in tracer.spans}
        for prefix, requests in wl.probes.items():
            if requests and not any(n == prefix or n.startswith(prefix + ".")
                                    for n in names):
                with tracer.span("probe"):
                    tally.run_pass(requests, sampler, tracer)
        micro = micro_metrics(wl, sampler)

    def ref(span):
        return sampler.reference_seconds(span[2], span[3])[0]

    def mean_of(name, scale):
        values = tracer.durations(name, ref)
        return sum(values) / len(values) * scale

    def mean_note(name):
        values = tracer.notes[name]
        return sum(values) / len(values)

    steps = sum(len(reduce_trace(poly, pres.system()))
                for pres, poly in wl.normalize_inputs)
    normalize_s = tracer.durations("rewrite.normalize", ref)
    passes_of_normalize = len(normalize_s) / len(wl.normalize_inputs)
    layers = {
        "rewrite.normalize_ms": mean_of("rewrite.normalize", 1e3),
        "rewrite.steps": steps,
        "rewrite.step_us": sum(normalize_s) * 1e6 / (passes_of_normalize * steps),
        "rewrite.orient_ms": mean_of("rewrite.orient", 1e3),
        "rewrite.confluence_ms": mean_of("rewrite.confluence", 1e3),
        "rewrite.critical_pairs": mean_note("rewrite.critical_pairs"),
        "families.catalog_ms": mean_of("families.catalog", 1e3),
        "families.extract_ore_ms": mean_of("families.extract_ore", 1e3),
        "parser.parse_us": mean_of("parser.parse", 1e6),
        "printer.format_us": mean_of("printer.format", 1e6),
        **{f"verify.case_ms.{c}": mean_of(f"verify.case.{c}", 1e3) for c in CLAIMS},
        "verify.oracle_ms": mean_of("verify.oracle", 1e3),
        "verify.oracle_words": mean_note("verify.oracle_words"),
        "trace.overhead_ratio": median(traced) / median(untraced),
        **micro,
    }

    self_ms = {name: t * 1e3 / len(traced)
               for name, t in sorted(tracer.self_times({"pass"}, ref).items())}
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "columns": ["id", "name", "start", "end", "parent"],
                   "spans": tracer.spans, "notes": tracer.notes,
                   "calibration": {"starts": sampler.starts, "times": sampler.times}}, fh)
    out = tally.report()
    return {"layers": layers, "self_ms_per_pass": self_ms,
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "raw_pass_s": out["raw_pass_s"], "pass_s": out["pass_s"],
            "attempted": out["attempted"], "failed": out["failed"],
            "failures": out["failures"]}


# ---------------------------------------------------------------------------
# Self-test: failures are counted, not crashed on and not passed
# ---------------------------------------------------------------------------

def self_test():
    press = W.build_presentations("words", NULL)
    wl = W.build("words", 0, press)
    first = W.load_expected("words")["requests"][0]
    pres = press[first["pres"]]
    corrupted = W.normalize_request(pres, first["expr"],
                                    parse_machine(first["nf"]) * 2)
    sysm = pres.system()
    starved = RewriteSystem(sysm.rules, sysm.order, step_limit=3)
    looping = W.Request("normalize",
                        lambda tr: normalize(parse_expr("y^3*x^3", pres), starved),
                        lambda value: True)
    requests = [corrupted, looping] + wl.requests
    tally = Tally()
    with Sampler() as sampler:
        tally.run_pass(requests, sampler)
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "fail_ratio": tally.failed / tally.attempted,
                      "failures": tally.notes}))
    counted = [note.split(" (")[0] for note in tally.notes]
    return 0 if counted == ["request 0", "request 1"] else 1


def main(argv):
    mode = argv[0]
    if mode == "selftest":
        return self_test()
    name, seed, seconds, trace, spans_file = argv[1:6]
    press = W.build_presentations(name, NULL)
    wl = W.build(name, int(seed), press)
    if trace == "1":
        out = traced_run(wl, float(seconds), spans_file)
    else:
        out = measured_run(wl, float(seconds))
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
