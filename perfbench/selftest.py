#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke size (a few ops per workload).

    python3 perfbench/selftest.py

Run from the root of the checkout. Checks that

- every workload prints every end-to-end metric of BENCHMARK.json with
  its unit (--trace 0) and every per-layer metric (--trace 1), with no
  failed op and every output check passing;
- one tampered window (a record changed after its router published the
  commitment) counts as exactly one failed op;
- the benchmark fails without printing a result in a directory that
  holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
# The op count follows --seconds: 3 epochs of ingest-steady, 7 audit sessions.
SMOKE_SECONDS = "3"


def bench(workload, trace, *extra, cwd="."):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", SMOKE_SECONDS,
               "--trace", str(trace)] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload, trace, *extra):
    code, lines = bench(workload, trace, *extra)
    assert lines, "%s: no output (exit %d)" % (workload, code)
    return code, json.loads(lines[-1])


def expect_metrics(res, specs, what):
    got = res["metrics"]
    for spec in specs:
        m = got.get(spec["name"])
        assert m is not None, "%s: %s missing" % (what, spec["name"])
        assert m["unit"] == spec["unit"], "%s: %s unit %s" % (what, spec["name"], m["unit"])
        assert isinstance(m["value"], (int, float)), "%s: %s not a number" % (what, spec["name"])
    extra = set(got) - {s["name"] for s in specs}
    assert not extra, "%s: unlisted metrics %s" % (what, sorted(extra))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for w in (x["name"] for x in spec["workloads"]):
        for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, res = result(w, trace)
            what = "%s --trace %d" % (w, trace)
            assert code == 0 and res["correct"], "%s: wrong output" % what
            assert res["failed"] == 0 and res["attempted"] >= 1, "%s: %r" % (what, res)
            expect_metrics(res, specs, what)
            print("ok  %s" % what)

    code, res = result("ingest-steady", 0, "--tamper")
    assert code == 0 and res["correct"], "tamper: refused window must not be a wrong output"
    assert res["failed"] == 1, "tamper: %d failed ops, want 1" % res["failed"]
    print("ok  tampered window counts as one failed op")

    bare = os.path.join(".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    code, lines = bench("ingest-steady", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not any(l.startswith("{\"correct\"") for l in lines), \
        "bare directory: exit %d, output %r" % (code, lines)
    print("ok  fails cleanly without the program's sources")


if __name__ == "__main__":
    main()
