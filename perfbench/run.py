"""riemcond benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload {sweep,validate,triangulate} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each call into the workload's entry point
starts only after the previous one returned and was checked against its
reference. --trace 0 times the calls with no tracing and reports the
end-to-end metrics; --trace 1 runs every call twice, untraced and traced in
alternating order, and reports per-layer metrics from the spans plus the
tracing overhead. Times are CPU time of this process (env.CLOCK); wall
times are kept in the record. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A fuller
record, with the run environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
from env import CLOCK

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported
PROBE_TIMEOUT_S = 60
MAX_PROBLEMS_SHOWN = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "validate", "triangulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="build the workload, print 'ready' and its CPU seconds, exit (times setup_s)")
    return p.parse_args(argv)


class Tally:
    """Items attempted, failed and degraded, and the problems behind the failures."""

    def __init__(self):
        self.attempted = self.failed = self.degraded = 0
        self.problems = []

    def add(self, call, out, exc):
        self.attempted += call.items
        if exc is not None:
            self.failed += call.items
            self.problems.append(f"raised {type(exc).__name__}: {exc}")
            return
        verdict = call.check(out)
        self.failed += verdict.failed
        self.degraded += verdict.degraded
        self.problems.extend(verdict.problems)


def timed_call(call):
    """Run one call; return its CPU and wall nanoseconds, output and exception."""
    wall, cpu = time.perf_counter_ns(), CLOCK()
    try:
        out, exc = call.run(), None
    except Exception as err:  # the loop records the failure and goes on
        out, exc = None, err
    return CLOCK() - cpu, time.perf_counter_ns() - wall, out, exc


def probe_setup(workload: str, seed: int) -> float:
    """CPU seconds a fresh interpreter spends from its start until its workload is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {proc.stderr[-500:]}")
    return float(words[1])


def run_untraced(calls, seconds, probe):
    """Time calls for `seconds`, pausing at even intervals to run the set-up probes.

    Spreading the probes over the run samples set-up time and call time
    across more of the machine's speed swings than one block of each would.
    Call times are scaled by the calibration bursts around them
    (calibrate.py); the raw ones go to the record. Set-up times are not
    scaled: they run in other processes, whose speed the bursts of this one
    track poorly.
    """
    import calibrate

    cal = calibrate.Calibrator()
    tally, durations, walls, setup = Tally(), [], [], []
    call_burst = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        if len(setup) < SETUP_PROBES and (
                time.perf_counter() - start >= seconds * len(setup) / SETUP_PROBES):
            paused = time.perf_counter()
            setup.append(probe())
            deadline += time.perf_counter() - paused
            continue
        call = next(calls)
        call_burst.append(cal.before_call())
        ns, wall_ns, out, exc = timed_call(call)
        cal.after_call(ns)
        durations.append(ns)
        walls.append(wall_ns / 1e6)
        tally.add(call, out, exc)
    if not durations:
        raise RuntimeError("no call completed")
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    scale = cal.factors()
    raw_ms = [d / 1e6 for d in durations]
    ms = [m * scale[b] for m, b in zip(raw_ms, call_burst)]
    done = tally.attempted - tally.failed

    def call_metrics(ms):
        return {
            "items_per_s": (done / (sum(ms) / 1e3), "1/s"),
            "call_ms_p50": (statistics.median(ms), "ms"),
            "call_ms_p90": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        }

    metrics = call_metrics(ms)
    metrics["setup_s"] = (statistics.median(setup), "s")
    samples = {"unscaled": {k: v for k, (v, _) in call_metrics(raw_ms).items()},
               "call_ms": ms, "call_raw_ms": raw_ms, "call_wall_ms": walls, "setup_s": setup,
               "calibration_burst_ms": [b / 1e6 for b in cal.bursts_ns]}
    return tally, metrics, samples


def run_traced(calls, seconds, window_calls, spans_path):
    import spans

    tally = Tally()
    tracer = spans.Tracer()
    plain_ns = traced_ns = 0
    items = window_items = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < window_calls or time.perf_counter() < deadline:
        call = next(calls)
        tracer.call_id = i
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    ns, _, out, exc = timed_call(call)
                traced_ns += ns
                tally.add(call, out, exc)
            else:
                ns, _, _, _ = timed_call(call)
                plain_ns += ns
        items += call.items
        if i < window_calls:
            window_items += call.items
        i += 1
    tracer.write(spans_path)
    metrics = spans.layer_metrics(tracer.spans, tracer.svd_calls, window_calls, window_items, items)
    metrics["trace.overhead_frac"] = (traced_ns / plain_ns - 1.0, "frac")
    return tally, metrics, i


def main(argv=None) -> int:
    args = parse_args(argv)
    env.pin_threads()  # before numpy loads OpenBLAS
    try:
        env.load_riemcond()
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load riemcond from this checkout: {exc}", file=sys.stderr)
        return 2

    if args.setup_probe:
        next(workloads.CALLS[args.workload](args.seed, None))
        print("ready", CLOCK() / 1e9, flush=True)
        return 0

    reference = workloads.load_reference()
    calls = workloads.CALLS[args.workload](args.seed, reference)
    calls = itertools.chain([next(calls)], calls)  # set-up done before anything is timed
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tally, metrics, n_calls = run_traced(
            calls, args.seconds, workloads.COUNT_WINDOW[args.workload], OUT / f"{stem}.spans.jsonl.gz")
    else:
        tally, metrics, samples = run_untraced(
            calls, args.seconds, lambda: probe_setup(args.workload, args.seed))
        n_calls = len(samples["call_ms"])
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    correct = tally.failed == 0 and not tally.problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": n_calls,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "degraded_frac": tally.degraded / tally.attempted,
        "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": tally.problems[:MAX_PROBLEMS_SHOWN],
        "environment": env.describe(),
    }
    if not args.trace:
        record["samples"] = samples
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in tally.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n_calls} calls, {tally.attempted} items, correct={correct}")
    print(f"  failed_frac = {record['failed_frac']!r} frac")
    print(f"  degraded_frac = {record['degraded_frac']!r} frac")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    if not args.trace:
        raw = ", ".join(f"{k} = {v!r}" for k, v in samples["unscaled"].items())
        print(f"  unscaled CPU time: {raw}")
    print(f"  environment: {json.dumps(record['environment'])}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
