#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload paper --seed 7 --check-determinism

The first call configures and builds perfbench/ (the repository's
libraries plus the benchmark program) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. The last line of stdout is the result
JSON; any failed check exits non-zero without it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet-large", "fleet-hot", "serve-restart", "paper"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (expected src/)")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "pgsd_perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "pgsd_perfbench")


def source_revision():
    """The git commit, or a digest of src/ when the checkout is not a repo."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_bench(binary, args, extra):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "runs",
                        "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected_baselines.txt"),
           "--workdir", work, "--commit", source_revision()] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_determinism(binary, args):
    """Count and quality metrics must repeat exactly across two runs of
    one seed and at 1 worker against 4."""
    args.trace = 1
    args.seconds = 0
    seen = []
    for jobs in (4, 4, 1):
        code, lines = run_bench(binary, args,
                                ["--iterations", "1", "--jobs", str(jobs)])
        if code != 0:
            fail("determinism run at %d jobs failed" % jobs)
        det = [l for l in lines if l.startswith("perfbench-deterministic: ")]
        if not det:
            fail("no deterministic metrics printed")
        values = json.loads(det[-1].split(": ", 1)[1])
        seen.append(values)
        print("jobs=%d %s" % (jobs, json.dumps(values, sort_keys=True)))
    same = seen[0] == seen[1] == seen[2]
    print("determinism %s: %s seed %d" % ("ok" if same else "FAILED",
                                           args.workload, args.seed))
    return 0 if same else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-determinism", action="store_true")
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    if args.check_determinism:
        return check_determinism(binary, args)

    code, lines = run_bench(binary, args, [])
    if code != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail("benchmark failed (exit %d)" % code)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    names = declared_metrics(args.trace)
    if not result.get("correct") or (
            names is not None and sorted(names) != sorted(result["metrics"])):
        fail("result does not match BENCHMARK.json: " + lines[-1])
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
