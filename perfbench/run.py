#!/usr/bin/env python3
"""spanplan's benchmark: one run of one workload.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Run from anywhere; it works on the checkout it sits in.  It builds the
program in place (``setup.py build_ext --inplace``),
times set-up in fresh processes, then runs the workload in a child process
under a wall-clock watchdog and prints, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it, ``stamp {...}``, names the workload, seed, kernel backend, Python
version, CPU count and commit.  ``--out FILE`` also saves both as a record
that compare.py reads.

--trace 0 reports the end-to-end metrics (END_TO_END); --trace 1 reports
the per-layer metrics of a traced run (tracing.LAYER_METRICS).  See
perfbench/README.md for the workloads and what each metric means.

Every end-to-end time is scaled to the machine's speed when it was taken:
multiplied by the speed the worker measured around it (a fixed task's time
on a quiet reference machine over its time then; see worker.py).  A time
then reads as on that quiet machine, however busy the shared host is.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("exact", "greedy", "cli_short", "oracle")
REQUIRED_FILES = ("src/spanplan/__init__.py", "data/query_2a.json", "setup.py")
END_TO_END = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("cost_ratio", "ratio"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 6   # set-up-only processes; setup_s is their median with the run's own
FLOOR_PROBES = 5   # bare-interpreter starts for cli.python_floor_ms
RUN_LIMIT_S = 170.0


def percentile(values, q: int) -> float:
    """The q-th percentile (exclusive method), refused unless at least ten
    samples lie beyond it."""
    if len(values) * (100 - q) < 1000:
        raise ValueError(f"p{q} needs ten samples beyond it; {len(values)} samples give "
                         f"{len(values) * (100 - q) / 100:g}")
    return statistics.quantiles(values, n=100)[q - 1]


def source_digest() -> str:
    """Digest of the program's sources and build file, for the stamp."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts and p.suffix != ".so")
    for path in files + [ROOT / "setup.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def build() -> None:
    """Build the program in place from source."""
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit("perfbench: building the program failed")


def run_worker(args, timeout: float, setup_only: bool = False):
    """Run worker.py; kill its whole process group when timeout expires.
    Returns (stdout lines, return code, killed)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--profile", args.profile]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    killed = False
    try:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            killed = True
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        # A killed worker cannot remove its own input files.
        shutil.rmtree(HERE / "_work" / f"inputs-{proc.pid}", ignore_errors=True)
    sys.stderr.write(err[-8000:])
    return out.splitlines(), proc.returncode, killed


def parse(lines):
    setup, records, done = None, [], None
    for line in lines:
        kind, _, rest = line.partition(" ")
        if kind == "S":
            setup = json.loads(rest)
        elif kind == "R":
            ms, speed, ok, got, want = rest.split()
            records.append((float(ms), None if speed == "-" else float(speed), ok == "1",
                            None if got == "-" else float(got),
                            None if want == "-" else float(want)))
        elif kind == "D":
            done = json.loads(rest)
    return setup, records, done


def python_floor_ms() -> float:
    times = []
    for _ in range(FLOOR_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def end_to_end(records, attempted: int, setups, done) -> dict:
    """records: (ms, speed, ok, cost, reference cost); setups: (s, speed).
    Times are scaled by the machine's speed when they were taken."""
    latencies = [ms * speed for ms, speed, _ok, _got, _want in records]
    passed = sum(1 for r in records if r[2])
    pairs = [(got, want) for _ms, _speed, _ok, got, want in records if got is not None and want]
    tails = {}
    for q in (50, 90):
        try:
            tails[q] = percentile(latencies, q)
        except ValueError:
            # Only a run cut short by the watchdog gets here; its slowest
            # completed request stands in for the percentile.
            tails[q] = max(latencies)
    rss = done["peak_rss_mb"] if done else \
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "latency_ms_p50": tails[50],
        "latency_ms_p90": tails[90],
        "queries_per_s": passed / (sum(latencies) / 1000.0),
        "setup_s": statistics.median(s * speed for s, speed in setups),
        "cost_ratio": sum(g for g, _w in pairs) / sum(w for _g, w in pairs) if pairs else 0.0,
        "success_ratio": passed / attempted,
        "peak_rss_mb": rss,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="tiny: small graphs, for the benchmark's own tests")
    parser.add_argument("--out", help="also save the stamp and result to this JSON file")
    args = parser.parse_args(argv)
    started = time.monotonic()

    missing = [f for f in REQUIRED_FILES if not (ROOT / f).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} missing under {ROOT}; "
              "run the benchmark from a spanplan checkout", file=sys.stderr)
        return 2
    digest = source_digest()
    build()

    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        lines, code, _killed = run_worker(args, 120.0, setup_only=True)
        setup, _records, _done = parse(lines)
        if code != 0 or setup is None:
            print("perfbench: set-up failed", file=sys.stderr)
            return 1
        setups.append((setup["setup_s"], setup["speed"]))
        imports.append(setup["import_s"])

    # The worker runs at least `seconds` and at least worker.MIN_SAMPLES requests
    # (about 30 s of cli_short), plus set-up and a last partial pass.
    budget = min(RUN_LIMIT_S - (time.monotonic() - started), max(2 * args.seconds, 60.0) + 30.0)
    lines, code, killed = run_worker(args, budget)
    setup, records, done = parse(lines)
    if setup is None or not records:
        print(f"perfbench: the {args.workload} run produced no requests (exit {code})",
              file=sys.stderr)
        return 1
    if killed:
        print(f"perfbench: watchdog stopped the run after {budget:.0f} s", file=sys.stderr)
    elif code != 0 or done is None:
        print(f"perfbench: the run ended early (exit {code})", file=sys.stderr)
        done = None
    setups.append((setup["setup_s"], setup["speed"]))
    imports.append(setup["import_s"])
    # A run that did not finish had one request in flight; it counts as failed.
    attempted = len(records) + (done is None)
    failed = sum(1 for r in records if not r[2]) + (done is None)

    if args.trace:
        if done is None:
            return 1
        metrics = dict(done["layers"])
        metrics["cli.import_ms"] = statistics.median(imports) * 1000.0
        metrics["cli.python_floor_ms"] = python_floor_ms()
        zero = tracing.check_required(args.workload, metrics)
        if zero:
            print(f"perfbench: on {args.workload} these layers read zero, so a traced "
                  f"entry point was renamed or inlined: {', '.join(zero)}", file=sys.stderr)
            return 1
        units = {name: unit for name, unit, _b, _w in tracing.LAYER_METRICS}
    else:
        metrics = end_to_end(records, attempted, setups, done)
        units = dict(END_TO_END)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "profile": args.profile, "backend": setup["backend"],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "source_digest": digest, "samples": len(records),
        "requests_per_pass": setup["requests_per_pass"],
    }
    speeds = [speed for _ms, speed, _ok, _got, _want in records if speed is not None]
    if speeds:
        # How fast the machine ran, and the unscaled median for comparison.
        stamp["speed"] = statistics.median(speeds)
        stamp["wall_ms_p50"] = statistics.median(ms for ms, *_rest in records)
    if args.out:
        Path(args.out).write_text(json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n")
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
