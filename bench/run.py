"""Closed-loop benchmark of nilsteer planning queries.

    python3 bench/run.py --workload canon_steer --seed 1 --seconds 25 --trace 0

One process, one thread: each query starts when the previous one has
returned and its law has been checked, outside the timed region.
Inputs come from --seed alone.  With --trace 0 the run queries, with
no tracing, until the summed query latency reaches --seconds and
prints the end-to-end metrics.  With --trace 1 it runs a fixed number
of seeded queries twice, untraced and with spans around the library's
public functions, and prints the per-layer metrics.  The last line of
standard output is the JSON result; bench/README.md explains every
metric.

The library is imported from ``src/`` next to this directory; without
it the script exits non-zero before printing a result.
"""

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Set-up is timed again after every SETUP_EVERY-th timed query.  A
# canon_steer set-up costs two thirds of a query; timing it after every
# query would stretch a run's wall time by that much.
SETUP_EVERY = 2

# Functions the traced run wraps, "module.function" as the library
# names them.  det_matrix is wrapped only where planner calls it.
SPAN_TARGETS = (
    "hall.build_hall_basis",
    "canonical.canonical_fields",
    "steer.build_plan",
    "steer.exact_steer",
    "steer.propagate_period",
    "privcoord.first_order_approx",
    "desing.desingularize",
    "sim.integrate",
    "poly.det_matrix",
    "planner.build_covering",
    "planner.global_free",
    "planner.global_plan",
)
ONLY = {"poly.det_matrix": ("planner",)}


def declared_metrics():
    """Per --trace mode, the metric names and units BENCHMARK.json
    declares; a run prints exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {mode: {m["name"]: m["unit"] for m in spec[key]}
            for mode, key in ((0, "end_to_end"), (1, "per_layer"))}


def load_library():
    if not os.path.isfile(os.path.join(SRC, "nilsteer", "__init__.py")):
        sys.exit("bench: nilsteer sources not found under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# Counters read from what the wrapped functions return


def _on_solve(tracer, sol):
    tracer.count("sim.rhs_evals", sol.nfev)


def _on_global_free(tracer, report):
    tracer.count("planner.attempts", report.attempts)
    tracer.count("planner.rejections", report.rejections)
    tracer.count("planner.iterations", report.iterations)


def _on_covering(tracer, atlas):
    tracer.count("planner.covering_cells", len(atlas.cells))


def _on_plan(tracer, plan):
    tracer.keep_max("steer.plan_max_freq",
                    max(entry.max_frequency() for entry in plan.classes))


def _on_law(tracer, law):
    tracer.count("steer.law_periods", law.nperiods)
    for period in law.periods:
        for terms in period["channels"]:
            for amp, _, _ in terms:
                tracer.keep_max("steer.law_max_amp", abs(float(amp)))


HOOKS = {
    "planner.global_free": _on_global_free,
    "planner.build_covering": _on_covering,
    "steer.build_plan": _on_plan,
    "steer.exact_steer": _on_law,
}


def trace_targets():
    targets = {name: (HOOKS.get(name), True, ONLY.get(name))
               for name in SPAN_TARGETS}
    # A counter only: the solver's own rhs evaluation count.
    targets["sim.solve_ivp"] = (_on_solve, False, ("sim",))
    return targets


# ---------------------------------------------------------------------------
# Running and checking queries


def one_query(wl, state, inp, lib, tracer=None, qid=None):
    """Run one query; a record is (input, result, latency, error code).

    A raised NilsteerError makes a failed query, never a skipped one.
    """
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.query(state, inp)
        else:
            with tracer.span("query", qid):
                result = wl.query(state, inp)
        code = None
    except lib.NilsteerError as ex:
        result, code = None, ex.code
    return inp, result, time.perf_counter() - t0, code


def check(wl, state, record, lib):
    """Check one query's laws outside any timed region.

    Returns (its laws, or None, and the failure code, or None).
    """
    inp, result, _, code = record
    if code is not None:
        return None, code
    try:
        if wl.check(state, inp, result):
            return wl.laws(result), None
        return None, "check-miss"
    except lib.NilsteerError as ex:
        return None, "check-" + ex.code


def check_records(wl, state, records, lib):
    """Failure codes of the records, each checked."""
    failures = Counter()
    for record in records:
        code = check(wl, state, record, lib)[1]
        if code is not None:
            failures[code] += 1
    return failures


def tail(samples):
    """The sample with ten samples above it, once that is at or above
    the median; with fewer than 21 samples, the largest one."""
    ordered = sorted(samples)
    if len(ordered) < 21:
        return ordered[-1], len(ordered)
    return ordered[-11], len(ordered) - 10


def calibrate(reps=5):
    """Seconds for a fixed pure-Python loop; tracks host speed only."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for k in range(1, 2000):
            Fraction(k, 7) * Fraction(3, k + 1) + Fraction(1, k)
        total = 0.0
        for k in range(40000):
            total += math.cos(k * 0.001) * k
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_setup(wl):
    t0 = time.perf_counter()
    state = wl.setup()
    return state, time.perf_counter() - t0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, lib, seed, seconds):
    """Query until the summed query latency reaches `seconds`.

    Each law is checked as soon as its query returns, outside the
    timed region, and then dropped, so that the heap stays the same
    size through the run.  Set-up is repeated through the run, so that
    its timings see the same host as the queries, and its median is
    reported.  The law-quality metrics read the first sample_queries
    queries and so depend on seed and program only; queries still
    missing when the time is up are planned untimed.
    """
    state, first = timed_setup(wl)
    setups = [first]
    inputs = wl.inputs(random.Random(seed), state)
    latencies, failures, sups, to_measure = [], Counter(), [], []
    timed_ok = attempted = 0
    busy = 0.0
    gc.collect()
    while busy < seconds or attempted < wl.sample_queries:
        timed = busy < seconds
        record = one_query(wl, state, next(inputs), lib)
        laws, code = check(wl, state, record, lib)
        if code is not None:
            failures[code] += 1
        if timed:
            latencies.append(record[2])
            busy += record[2]
            timed_ok += laws is not None
            if len(latencies) % SETUP_EVERY == 0:
                setups.append(timed_setup(wl)[1])
        if laws is not None and attempted < wl.sample_queries:
            sups.extend(lib.sim.input_sup_bound(law) for law in laws)
            if attempted < wl.length_queries:
                to_measure.extend(laws)
        attempted += 1
    rss = peak_rss_mb()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lengths = [lib.sim.input_length(law) for law in to_measure]
    query_tail, rank = tail(latencies)
    failed = sum(failures.values())
    values = {
        "setup_s": statistics.median(setups),
        "queries_per_s": timed_ok / busy,
        "query_p50_s": statistics.median(latencies),
        "query_tail_s": query_tail,
        "ok_frac": (attempted - failed) / attempted,
        "input_len": statistics.fmean(lengths) if lengths else math.nan,
        "input_sup": max(sups, default=math.nan),
        "peak_rss_mb": rss,
    }
    print("bench: %s seed=%d timed=%d attempted=%d failed=%s setups=%d "
          "tail_rank=%d quad_warnings=%d host_calib_s=%.6f %s"
          % (wl.name, seed, len(latencies), attempted, dict(failures),
             len(setups), rank, len(caught), calibrate(),
             " ".join("%s=%.6g" % item for item in values.items())))
    return attempted, failures, values


def traced(wl, lib, seed):
    """The same seeded queries untraced and traced, alternating which
    runs first, so that drift in host speed cancels in the overhead."""
    from spans import Tracer, installed

    count = wl.trace_queries
    tracer = Tracer()
    targets = trace_targets()
    plain_state = wl.setup()
    with installed(tracer, targets), tracer.span("setup"):
        state = wl.setup()
    plain_inputs = wl.inputs(random.Random(seed), plain_state)
    traced_inputs = wl.inputs(random.Random(seed), state)
    plain, records = [], []
    gc.collect()
    for qid in range(count):
        for side in ((0, 1) if qid % 2 == 0 else (1, 0)):
            if side == 0:
                plain.append(one_query(wl, plain_state, next(plain_inputs),
                                       lib))
            else:
                with installed(tracer, targets):
                    records.append(one_query(wl, state, next(traced_inputs),
                                             lib, tracer, qid))
    failures = check_records(wl, state, plain + records, lib)
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, "trace_%s_%d.json" % (wl.name, seed)))

    totals = tracer.totals()
    values = {}
    for name in SPAN_TARGETS:
        calls, total, own = totals.get(name, (0, 0.0, 0.0))
        values[name + ".calls"] = calls
        values[name + ".self_s"] = own
        values[name + ".total_s"] = total
    counts, maxima = tracer.counts, tracer.maxima
    integrate_s = values["sim.integrate.total_s"]
    rhs = counts["sim.rhs_evals"]
    untraced_s = math.fsum(rec[2] for rec in plain)
    traced_s = math.fsum(rec[2] for rec in records)
    values.update({
        "sim.rhs_evals": int(rhs),
        "sim.us_per_rhs": 1e6 * integrate_s / rhs if rhs else 0.0,
        "planner.attempts": int(counts["planner.attempts"]),
        "planner.rejections": int(counts["planner.rejections"]),
        "planner.accept_ratio": (counts["planner.iterations"]
                                 / counts["planner.attempts"]
                                 if counts["planner.attempts"] else 0.0),
        "planner.covering_cells": int(counts["planner.covering_cells"]),
        "steer.plan_max_freq": maxima["steer.plan_max_freq"],
        "steer.law_max_amp": maxima["steer.law_max_amp"],
        "steer.law_periods": int(counts["steer.law_periods"]),
        "trace.queries": count,
        "trace.setup_s": totals["setup"][1],
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.unattributed_s": totals.get("query", (0, 0.0, 0.0))[2],
        "host.calib_s": calibrate(),
    })
    print("bench: %s seed=%d traced queries=%d failed=%s"
          % (wl.name, seed, count, dict(failures)))
    return len(plain) + len(records), failures, values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    lib = load_library()
    if args.workload not in lib.WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(sorted(lib.WORKLOADS))))
    wl = lib.WORKLOADS[args.workload]

    units = declared_metrics()[args.trace]
    if args.trace:
        attempted, failures, values = traced(wl, lib, args.seed)
    else:
        attempted, failures, values = end_to_end(
            wl, lib, args.seed, args.seconds)
    misses = sum(n for code, n in failures.items()
                 if code.startswith("check-"))
    print(json.dumps({
        "correct": misses == 0,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
