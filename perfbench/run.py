#!/usr/bin/env python3
"""End-to-end benchmark of the ALBADross pipeline.

One run:
    python3 perfbench/run.py --workload volta_sliding --seed 1 --seconds 10 --trace 0

builds the benchmark (perfbench/CMakeLists.txt, against ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and passes its output through. The last line of standard output
is the result JSON: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.

Steadiness and attribution report:
    python3 perfbench/run.py --report [--runs 5] [--seconds 10]

runs every workload --runs times on seeds 1..N, prints each end-to-end
metric's median, quartiles, spread and sample count, then makes one traced
run per workload and prints its per-layer self-time table and metrics.

Run from the root of the source tree. The pool size is fixed with
ALBA_THREADS so every run has the same thread budget.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["volta_sliding", "eclipse_tumbling", "volta_al_session"]
POOL_THREADS = "2"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return os.path.join(out, "perfbench")


def source_revision():
    """git HEAD when available, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, extra=(), commit=None):
    """Runs the binary; returns (exit code, stdout, stderr)."""
    env = dict(os.environ, ALBA_THREADS=POOL_THREADS)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit or source_revision(), *extra]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout, done.stderr


def parse_output(stdout):
    """Returns (run record, result) from the binary's standard output."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("perfbench-run "):
        raise ValueError("benchmark printed no result")
    run = json.loads(lines[-2][len("perfbench-run "):])
    result = json.loads(lines[-1])
    return run, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(args):
    binary = build()
    commit = source_revision()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    print(f"commit {commit}; {args.runs} runs per workload, "
          f"{args.seconds} s each, ALBA_THREADS={POOL_THREADS}")
    ok = True
    for w in WORKLOADS:
        values, samples = {}, {}
        for seed in range(1, args.runs + 1):
            code, out, err = run_once(binary, w, seed, args.seconds, 0,
                                      commit=commit)
            try:
                run, res = parse_output(out)
            except ValueError as e:
                sys.stderr.write(err)
                fail(f"{w} seed {seed}: {e} (exit {code})")
            if code != 0 or not res["correct"]:
                ok = False
                print(f"  {w} seed {seed}: CHECK FAILED {run['errors']}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                samples.setdefault(name, []).append(run["samples"][name])
        print(f"\n{w}: {run['thread_budget']}; nproc {run['nproc']}, "
              f"build {run['build_type']}")
        print(f"  {'metric':<20}{'unit':>7}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'spread':>9}{'bound':>7}{'samples':>9}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else float("nan")
            n = int(statistics.median(samples[m["name"]]))
            print(f"  {m['name']:<20}{m['unit']:>7}{med:>14.6g}{q1:>14.6g}"
                  f"{q3:>14.6g}{spread:>9.4f}{m['bound']:>7}{n:>9}")
        print(f"  ({err.strip().splitlines()[0] if err.strip() else ''})")

    print("\nper-layer attribution (one traced run per workload, seed 1)")
    for w in WORKLOADS:
        code, out, err = run_once(binary, w, 1, args.seconds, 1,
                                  commit=commit)
        try:
            run, res = parse_output(out)
        except ValueError as e:
            sys.stderr.write(err)
            fail(f"{w} traced: {e} (exit {code})")
        ok = ok and code == 0 and res["correct"]
        print(f"\n{w}:")
        for line in err.strip().splitlines():
            print(f"  {line}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, m in res["metrics"].items():
            n = run["samples"][name]
            if m["value"] == 0 and n == 0:
                continue  # a layer this workload does not exercise
            print(f"  {name:<34}{m['value']:>14.6g} {units[name]:<6} n={n}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="steadiness + attribution report")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload in --report")
    args = parser.parse_args()

    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required")
    binary = build()
    code, out, err = run_once(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    sys.stderr.write(err)
    try:
        parse_output(out)
    except ValueError as e:
        fail(f"{e} (exit {code})")
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
