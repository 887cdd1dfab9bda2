#!/usr/bin/env python3
"""One workload run in a process of its own, started by run.py.

It imports spanplan from the checkout's src/, makes the inputs, then issues
whole passes of requests from a single closed-loop client and checks every
output outside its timed span.  It reports on stdout, one line per event:

    S {"setup_s": ..., "speed": ..., "backend": ...}   after set-up
    R <ms> <speed|-> <ok 0|1> <cost|-> <reference cost|->  after each request
    D {...}                                             at the end

The shared machine changes speed by up to 2x over seconds to minutes, so
the untraced run times a fixed task between requests (and before and after
set-up), and reports with each time the machine's speed around it: the
task's time on a quiet reference machine over the mean of the two timings
around the request.  run.py multiplies each time by its speed.

With --trace 1 the requests run in this process, in passes that alternate
between untraced and traced (span wrappers installed); the D line carries
the per-layer metrics and the spans go to _work/spans-<workload>.jsonl.
"""
import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 100  # p90 is reported only with at least ten samples beyond it
CAL_ITERATIONS = 5000
REFERENCE_LOOP_MS = 1.25   # calibrate_loop() on a quiet 2-core machine: 1.1 to 1.4 ms
REFERENCE_SPAWN_MS = 50.0  # calibrate_spawn() there: 47 to 52 ms
MAX_REPORTED_PROBLEMS = 20


def emit(kind: str, payload) -> None:
    import json  # not before `import spanplan` is timed: spanplan imports it too

    text = payload if isinstance(payload, str) else json.dumps(payload)
    print(f"{kind} {text}", flush=True)


def calibrate_loop() -> float:
    """Wall time in ms of a fixed pure-Python loop, for in-process requests.

    The loop makes and drops small tuples, lists and dicts, as the planner
    does.  Measured next to each request on a shared 2-core machine, it
    tracked the requests' slowdown better than loops of integer arithmetic,
    of dict lookups in a large table, or of a small subset DP."""
    t0 = time.perf_counter()
    live = []
    for i in range(CAL_ITERATIONS):
        live.append({"a": (i, i + 1, float(i)), "b": [i, i]})
        if len(live) > 64:
            live.clear()
    return (time.perf_counter() - t0) * 1000.0


def calibrate_spawn() -> float:
    """Wall time in ms of starting a bare interpreter, for requests that
    start a process: their start-up slows otherwise than in-process work."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return (time.perf_counter() - t0) * 1000.0


def passes(slots, rng, seconds: float, min_samples: int):
    """Seeded orders of whole passes, until `seconds` have passed and at
    least min_samples requests were issued."""
    start = time.perf_counter()
    issued = 0
    while True:
        order = list(slots)
        rng.shuffle(order)
        yield order
        issued += len(order)
        if time.perf_counter() - start >= seconds and issued >= min_samples:
            return


def run_pass(request, order, record, calibration=None) -> float:
    """Issue each request of one pass; returns the summed request time.
    calibration, if given, is (timing function, its reference ms); it is
    timed before the first request and after each one."""
    busy = 0.0
    if calibration:
        measure, reference_ms = calibration
        before = measure()
    for slot in order:
        t0 = time.perf_counter()
        try:
            output, error = request(slot), None
        except Exception as exc:  # a failed request is counted, never fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        speed = None
        if calibration:
            after = measure()
            speed, before = reference_ms / ((before + after) / 2.0), after
        busy += elapsed
        record(slot, output, error, elapsed, speed)
    return busy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    loop_before = calibrate_loop()
    t0 = time.perf_counter()
    import spanplan
    import_s = time.perf_counter() - t0

    import random
    import resource
    import shutil
    import statistics

    import tracing
    import workloads

    workdir = HERE / "_work" / f"inputs-{os.getpid()}"
    try:
        t1 = time.perf_counter()
        slots = workloads.make_slots(args.workload, args.profile, args.seed, workdir)
        setup_s = import_s + time.perf_counter() - t1
        speed = REFERENCE_LOOP_MS / ((loop_before + calibrate_loop()) / 2.0)
        emit("S", {"setup_s": setup_s, "import_s": import_s, "speed": speed,
                   "backend": spanplan.DEFAULT_BACKEND, "requests_per_pass": len(slots)})
        if args.setup_only:
            return 0

        reference = workloads.load_reference()
        reported = []
        tracer = tracing.Tracer()

        def record(slot, output, error, elapsed, speed=None):
            problem, got, want = error, None, None
            if error is None:
                try:
                    problem, got, want = workloads.check(args.workload, slot, output, reference)
                except Exception as exc:  # a check that cannot run is a failed request
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem and len(reported) < MAX_REPORTED_PROBLEMS:
                reported.append(slot.key)
                print(f"{slot.key}: {problem}", file=sys.stderr, flush=True)
            emit("R", f"{elapsed * 1000.0!r} {'-' if speed is None else repr(speed)} "
                      f"{0 if problem else 1} "
                      f"{'-' if got is None else repr(got)} {'-' if want is None else repr(want)}")

        rng = random.Random(f"order:{args.workload}:{args.seed}")
        done = {}
        if not args.trace:
            request = workloads.REQUESTS[args.workload]
            calibration = ((calibrate_spawn, REFERENCE_SPAWN_MS) if args.workload == "cli_short"
                           else (calibrate_loop, REFERENCE_LOOP_MS))
            request(slots[0])  # warm-up, untimed and unchecked
            start = time.perf_counter()
            for order in passes(slots, rng, args.seconds, MIN_SAMPLES):
                run_pass(request, order, record, calibration)
            done["loop_s"] = time.perf_counter() - start
        else:
            request = (workloads.run_cli_inprocess if args.workload == "cli_short"
                       else workloads.REQUESTS[args.workload])
            request(slots[0])

            def traced(slot):
                tracer.request += 1
                tracer.active = True
                try:
                    return request(slot)
                finally:
                    tracer.active = False

            # Untraced and traced passes alternate, so drift in the
            # machine's speed falls on both alike.
            untraced, traced_times, per_pass = [], [], []
            for i, order in enumerate(passes(slots, rng, args.seconds, 2 * len(slots))):
                if i % 2 == 0:
                    untraced.append(run_pass(request, order, record))
                    continue
                restore = tracing.install(tracer)
                try:
                    first, before = len(tracer.spans), dict(tracer.counters)
                    traced_times.append(run_pass(traced, order, record))
                finally:
                    restore()
                per_pass.append(tracing.pass_metrics(tracer, first, before))
            layers = tracing.median_metrics(per_pass)
            # Each traced pass is compared with the untraced pass just before it.
            pairs = list(zip(untraced, traced_times))
            layers["trace.overhead_ms"] = statistics.median(t - u for u, t in pairs) * 1000.0
            layers["trace.overhead_ratio"] = statistics.median(t / u - 1.0 for u, t in pairs)
            done.update(layers=layers, traced_passes=len(per_pass), untraced_passes=len(untraced))
            tracing.write_spans(tracer, HERE / "_work" / f"spans-{args.workload}.jsonl")

        # cli_short's program runs in the spanplan child processes; the
        # worker's own memory is the harness's.
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_short" else resource.RUSAGE_SELF
        done["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        emit("D", done)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
