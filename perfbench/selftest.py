#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny size.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload of the benchmark program for a moment (--scale tiny),
untraced and traced, and checks that the last output line is the result object with
exactly the keys correct/attempted/failed/metrics, that every declared
metric is present, finite and in its declared unit, and that nothing failed
at the seed. Then checks that the benchmark refuses to run, printing no
result, in a directory holding only BENCHMARK.json and the benchmark files.
Exits 0 when every check passes.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
# Every workload perfbench runs; serve_flood is runnable and probed by the
# traced runs but is not one of BENCHMARK.json's gated workloads.
WORKLOADS = ["locate_batch", "serve_paced", "serve_flood", "track_moving"]


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(bench, workload, trace, problems):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "0.3", "--trace", str(trace),
                              "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = "%s trace=%d" % (workload, trace)
    before = len(problems)
    if done.returncode != 0:
        problems.append("%s: exit %d: %s" % (where, done.returncode,
                                             done.stderr[-400:]))
        return
    result = result_of(done.stdout)
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        problems.append("%s: last line is not the result object" % where)
        return
    if result["correct"] is not True or result["failed"] != 0:
        problems.append("%s: correct=%s failed=%s" %
                        (where, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s: attempted=%r" % (where, result["attempted"]))
    declared = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        problems.append("%s: metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (where, sorted(names - set(metrics)),
                                      sorted(set(metrics) - names)))
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s is not a finite number: %r" %
                            (where, m["name"], value))
        if got.get("unit") != m["unit"]:
            problems.append("%s: %s unit %r, declared %r" %
                            (where, m["name"], got.get("unit"), m["unit"]))
    print("ok   " if len(problems) == before else "FAIL ", where, flush=True)


def check_refuses_without_sources(bench, problems):
    """Only BENCHMARK.json and the benchmark paths: must fail, no result."""
    before = len(problems)
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    isolated = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(isolated, path))
        cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                  "--seed", "1", "--seconds", "1",
                                  "--trace", "0"]
        done = subprocess.run(cmd, cwd=isolated, capture_output=True,
                              text=True, timeout=180)
        if done.returncode == 0 or '"correct"' in done.stdout:
            problems.append("a directory without the program sources did not "
                            "fail cleanly")
    finally:
        shutil.rmtree(isolated)
    print("ok   " if len(problems) == before else "FAIL ",
          "refuses to run without the program sources", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(bench, workload, trace, problems)
    check_refuses_without_sources(bench, problems)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("passed" if not problems else
                            "%d problem(s)" % len(problems)))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
