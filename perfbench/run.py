#!/usr/bin/env python3
"""Benchmark of the two user paths of the Reptile reproduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload correct_remote|build_ooc|serve_mix \\
        --seed N --seconds S --trace 0|1

One run builds the `perfbench` package (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs three processes so that the measured one
holds only the workload's inputs:

1. `gen`: makes the inputs from the seed, plus the truth and the output
   of the sequential oracle (`reptile::correct_dataset`);
2. `measure`: runs the workload for S seconds and writes every corrected
   output. `--trace 0` reports the end-to-end metrics; `--trace 1`
   reports per-layer metrics from a run with the span recorder on;
3. `check`: compares every corrected read with the oracle and scores the
   correction gain against the truth.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it
records the host. Work files live under `.bench_work/` and are removed
at the end of the run; the full record of each run (host, per-phase
output) and the spans of traced runs are kept in `.bench_work/results/`.

`--smoke` shrinks every input (the harness self-test uses it), and
`--corrupt` changes one corrected read so the oracle gate must trip.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("correct_remote", "build_ooc", "serve_mix")
# Every subprocess of one run must end within this many seconds of its
# start (the build excepted).
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 850.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BenchError(Exception):
    pass


def build():
    """Build the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed: %s" % e)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        raise BenchError("build failed with exit code %d" % done.returncode)
    return os.path.join(target, "release", "perfbench")


def run_json(cmd, deadline, env):
    """Run one phase and parse the JSON object on its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before %s" % cmd[1])
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % cmd[1])
    sys.stderr.write(done.stderr.decode(errors="replace"))
    if done.returncode != 0:
        raise BenchError("%s failed with exit code %d" % (cmd[1], done.returncode))
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % cmd[1])
    return json.loads(lines[-1])


def result(measured, checked):
    """Combine the measured and checked phases into the result line."""
    metrics = dict(measured["metrics"])
    attempted = measured["attempted"]
    # Reads the program marked degraded, plus reads missing from an output
    # (refused, lost, or never returned).
    failed = measured["failed"] + checked["missing"]
    correct = (checked["records"] > 0 and checked["mismatched"] == 0
               and checked["unknown"] == 0 and failed == 0)
    if "reads_per_s" in metrics:
        metrics["correction_gain"] = {"value": checked["correction_gain"], "unit": "frac"}
        metrics["success_frac"] = {
            "value": 1.0 - failed / attempted if attempted else 0.0, "unit": "frac"}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    binary = build()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    seed = args.seed % (1 << 64)
    tag = "%s-s%d-t%d" % (args.workload, seed, args.trace)
    results = os.path.join(ROOT, ".bench_work", "results")
    work = os.path.join(ROOT, ".bench_work", "%s-p%d" % (tag, os.getpid()))
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    # spill runs and other temporaries stay inside the checkout
    env = dict(os.environ, TMPDIR=tmp)
    spans = os.path.join(results, "spans-%s.jsonl" % tag)
    try:
        common = ["--workload", args.workload, "--dir", work]
        gen = [binary, "gen", "--seed", str(seed)] + common
        measure = [binary, "measure", "--seconds", repr(args.seconds),
                   "--trace", str(args.trace), "--spans", spans] + common
        if args.smoke:
            gen.append("--smoke")
        if args.corrupt:
            measure.append("--corrupt")
        host = run_json([binary, "host"], deadline, env)
        generated = run_json(gen, deadline, env)
        measured = run_json(measure, deadline, env)
        checked = run_json([binary, "check", "--dir", work], deadline, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = result(measured, checked)
    host.update(workload=args.workload, seed=seed, seconds=args.seconds,
                trace=args.trace, run_s=round(time.monotonic() - start, 3))
    record = {"host": host, "gen": generated, "measure": measured,
              "check": checked, "result": out}
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    info = dict(host, latency_samples=measured["info"].get("latency_samples"),
                spans=spans if args.trace else None)
    print("host " + json.dumps(info))
    print(json.dumps(out))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
