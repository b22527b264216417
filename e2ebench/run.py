#!/usr/bin/env python3
"""Benchmark of record for the RED simulator.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a RED checkout. Builds the library and the e2ebench
program from source (Release, under .bench_build/e2ebench), then runs one
workload once in a fresh process, so peak RSS belongs to that workload. The
program checks every output; this wrapper checks that the result line names
exactly the metrics BENCHMARK.json declares for the mode, with their units,
and prints it as the last line of stdout. Build logs go to stderr.

Workloads: red-stream-exact, baseline-bitacc, fault-repair, design-search
(see e2ebench/README.md). Default seed 1; claims must also hold on the
held-out seed 7919.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("red-stream-exact", "baseline-bitacc", "fault-repair", "design-search")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in a process group of its own: on timeout, or when this
    script is interrupted or terminated, the whole group (a build's compilers
    too) is killed and reaped before the exception propagates."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def source_digest(root):
    """SHA-256 over the library sources, standing in for a commit id when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for p in sorted(paths):
            h.update(os.path.relpath(p, root).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit_id(root):
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return f"{out.stdout.strip()} src:{source_digest(root)}"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"src:{source_digest(root)}"


def build(root):
    bench_dir = os.path.join(root, "e2ebench")
    build_dir = os.path.join(root, ".bench_build", "e2ebench")
    steps = [["cmake", "--build", build_dir, "--target", "e2ebench", "-j", "4"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        try:
            rc = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr).returncode
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if rc != 0:
            fail(f"build step {' '.join(cmd)} exited with {rc}")
    return os.path.join(build_dir, "e2ebench")


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    # SIGTERM unwinds like Ctrl-C, so run_group reaps whatever it started.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("CMakeLists.txt", os.path.join("src", "red")):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"not a RED checkout: {need} is missing under {root}")
    declared = declared_metrics(root, args.trace)
    binary = build(root)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(root)]
    if args.trace:
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ)
    env["RED_THREADS"] = "2"     # one process, at most two lanes
    env.pop("RED_MVM_ISA", None)  # the auto-dispatched MVM tier
    try:
        proc = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=env)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")

    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))} "
             f"or units {[k for k in got if got[k] != declared.get(k, got[k])]}")
    if result["attempted"] < 1:
        fail("no item attempted")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
