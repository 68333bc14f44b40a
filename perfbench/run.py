#!/usr/bin/env python3
"""The repository benchmark: build the program from source, run a workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload small --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --all --seed 1          # every workload, both runs
  python3 perfbench/run.py --steadiness 10 --workload small
  python3 perfbench/run.py --selftest

A measuring run builds perfbench/ (which adds the repository's own
CMake project) into $CARGO_TARGET_DIR or .bench_build, then runs the
benchmark binary, whose last line of output is the JSON result.  See
README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def source_id():
    """Content hash of the program sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build(targets):
    """Configure and build into build_dir(); exit 2 on any failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no program sources next to perfbench/; nothing to build")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "--build", out, "-j", str(os.cpu_count() or 1), "--target", *targets]]
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            # Once configured, the build step re-runs CMake itself when a
            # CMakeLists.txt changes.
            steps.insert(0, ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return out


def refuse_overrides():
    """The program must run at its defaults: no OOKAMI_* override."""
    set_vars = sorted(k for k in os.environ if k.startswith("OOKAMI_"))
    if set_vars:
        fail("refusing to run with %s set; the benchmark measures the program's defaults"
             % ", ".join(set_vars))


def run_bench(exe, workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (exit code, parsed result or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--source-id", source_id()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          stderr=None if echo else subprocess.DEVNULL)
    if echo:
        sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def spread_table(workload, results, spec):
    """Median, quartiles and spread of every end-to-end metric over runs.

    Returns whether every spread is within its bound; setup_s is exempt,
    as its spread is not gated.
    """
    print(f"steadiness of workload {workload} over {len(results)} runs")
    print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    within = True
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        gated = m["name"] != "setup_s"
        within = within and (spread <= m["bound"] or not gated)
        note = "  above bound/3" if gated and spread > m["bound"] / 3 else ""
        print(f"  {m['name']:<16}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
              f"{m['bound']:>8.2f}{note}")
    return within


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced")
    parser.add_argument("--steadiness", type=int, metavar="K",
                        help="run --workload K times with seeds seed..seed+K-1")
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        exe = os.path.join(build(["perfbench_tests"]), "perfbench_tests")
        suite = unittest.defaultTestLoader.discover(os.path.join(HERE, "tests"))
        py_ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
        cpp_ok = subprocess.run([exe]).returncode == 0
        sys.exit(0 if py_ok and cpp_ok else 1)

    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not args.all and args.workload not in names:
        fail("--workload must be one of %s" % ", ".join(names))
    refuse_overrides()
    exe = os.path.join(build(["perfbench", "ookamid"]), "perfbench")

    if args.all:
        status = 0
        for trace in (0, 1):
            for w in names:
                code, _ = run_bench(exe, w, args.seed, seconds, trace)
                status = status or code
        sys.exit(status)

    if args.steadiness:
        results = []
        for k in range(args.steadiness):
            code, result = run_bench(exe, args.workload, args.seed + k, seconds, 0, echo=False)
            if code != 0 or result is None:
                fail(f"run with seed {args.seed + k} failed (exit {code})", 1)
            results.append(result)
            print(f"  seed {args.seed + k}: " + ", ".join(
                f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()), flush=True)
        sys.exit(0 if spread_table(args.workload, results, spec) else 1)

    code, _ = run_bench(exe, args.workload, args.seed, seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
