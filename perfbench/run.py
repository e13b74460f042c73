#!/usr/bin/env python3
"""End-to-end benchmark of the zkflow resident daemon.

    python3 perfbench/run.py --workload {ingest-steady,audit}
        --seed N --seconds S --trace {0,1} [--tamper]

Run from the root of a source checkout. Builds perfbench/perfbench.exe
with dune, then runs it with ZKFLOW_JOBS=1, each run in a fresh
directory under .perfbench/ for the checkpoint WAL and trace.

--trace 0 prints the end-to-end metrics. The measured run is preceded
by two set-up-only runs, each a fresh process, and setup_s is the
median of the three set-ups.

--trace 1 runs the workload untraced and then traced, with the same
seed and sizes, and prints the per-layer metrics of the traced run plus
overhead.<metric>: traced minus untraced, for each end-to-end metric.

Earlier stdout lines carry the configuration of each run; the last line
is the result object. Exits 1 on a wrong output, 2 when the harness
cannot be built or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("ingest-steady", "audit")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORK = ".perfbench"
SETUPS = 3
RUN_TIMEOUT_S = 120


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        die("cannot run dune: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def run_once(args, tag, extra):
    d = os.path.join(WORK, "%s-%d-%d-%s" % (args.workload, args.seed, os.getpid(), tag))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--dir", d] + extra
    if args.tamper:
        cmd.append("--tamper")
    env = dict(os.environ, ZKFLOW_JOBS="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("%s run timed out" % tag)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or proc.returncode not in (0, 1):
        die("%s run failed (exit %d)" % (tag, proc.returncode))
    for line in lines[:-1]:
        print(line)
    if "--trace" in extra:
        # Keep the span trace of the traced run; drop everything else.
        trace = os.path.join(d, "trace.json")
        if os.path.exists(trace):
            os.replace(trace, os.path.join(
                WORK, "trace-%s-%d.json" % (args.workload, args.seed)))
    shutil.rmtree(d, ignore_errors=True)
    return json.loads(lines[-1])


def value(res, name):
    return res["metrics"][name]["value"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tamper", action="store_true",
                   help="ingest-steady: one window changed after its commitment")
    args = p.parse_args()
    if not os.path.exists(os.path.join("perfbench", "dune")):
        die("run from the root of the checkout")
    build()
    os.makedirs(WORK, exist_ok=True)

    if args.trace == 0:
        setups = [run_once(args, "setup%d" % i, ["--setup-only"]) for i in range(SETUPS - 1)]
        main_run = run_once(args, "run", [])
        runs = setups + [main_run]
        metrics = dict(main_run["metrics"])
        metrics["setup_s"] = {
            "value": statistics.median(value(r, "setup_s") for r in runs), "unit": "s"}
    else:
        plain = run_once(args, "untraced", [])
        main_run = run_once(args, "traced", ["--trace"])
        runs = [plain, main_run]
        metrics = dict(main_run["per_layer"])
        for name, m in plain["metrics"].items():
            metrics["overhead." + name] = {
                "value": value(main_run, name) - m["value"], "unit": m["unit"]}

    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
