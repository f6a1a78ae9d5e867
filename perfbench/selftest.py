#!/usr/bin/env python3
"""Self-tests of the saffire benchmark. Run from the root of a checkout:

  python3 perfbench/selftest.py

Checks, on the reduced-size smoke workloads:
  - workload, metric and unit names use only the allowed characters;
  - every workload prints every end-to-end metric with its unit, and every
    per-layer metric when traced, and the traced metrics show the workload
    split the benchmark is built on;
  - a smoke run finishes in seconds;
  - a corrupted pinned digest makes the command fail and name the workload
    and the first diverging campaign;
  - without the saffire sources the command fails without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = 30


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def run(args, cwd=ROOT, env=None):
    """Runs perfbench/run.py of the checkout at `cwd`."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True)
    return proc, time.monotonic() - start


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def smoke(workload, trace, extra=()):
    return run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke"] + list(extra))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] + bench["per_layer"]
    check(all(NAME.match(n) for n in workloads +
              [m["name"] for m in metrics]),
          "workload and metric names use [A-Za-z0-9_.-]")
    check(all(UNIT.match(m["unit"]) for m in metrics), "units are well formed")

    # The first call builds; keep it out of the smoke timing.
    proc, _ = smoke(workloads[0], 0)
    check(proc.returncode == 0, "build and first smoke run succeed")

    traced = {}
    for workload in workloads:
        for trace, wanted in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            proc, seconds = smoke(workload, trace)
            result = result_line(proc)
            check(proc.returncode == 0 and result is not None and
                  result["correct"] and result["failed"] == 0,
                  "%s trace=%d smoke run is correct" % (workload, trace))
            check(seconds < SMOKE_SECONDS,
                  "%s trace=%d smoke run took %.1f s" %
                  (workload, trace, seconds))
            got = result["metrics"]
            check(all(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                      for m in wanted) and len(got) == len(wanted),
                  "%s trace=%d prints every metric with its unit" %
                  (workload, trace))
            if trace:
                traced[workload] = {k: v["value"] for k, v in got.items()}

    check(traced["table1-closed-form"]["fi.predict_hit_frac"] == 1.0 and
          traced["forwarding-replay"]["fi.predict_hit_frac"] == 0.0,
          "closed form serves table1-closed-form and none of "
          "forwarding-replay")
    check(traced["cnn-cycle"]["accel.construct_ms"] > 0 and
          traced["mlp-appfi"]["accel.construct_ms"] == 0,
          "accelerators are built on cnn-cycle only")
    check(traced["mlp-appfi"]["appfi.inject_ms"] > 0 and
          traced["cnn-cycle"]["appfi.inject_ms"] == 0,
          "appfi runs on mlp-appfi only")

    scratch = os.path.join(ROOT, ".bench_build", "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)
    pin = pins["table1-closed-form"]["smoke"]["1"]
    pin["campaign_digests"][0] = "0" * 16
    bad_pins = os.path.join(scratch, "pins.json")
    with open(bad_pins, "w") as f:
        json.dump(pins, f)
    proc, _ = smoke("table1-closed-form", 0, ["--pins", bad_pins])
    result = result_line(proc)
    check(proc.returncode != 0 and result is not None and
          not result["correct"] and "table1-closed-form" in proc.stderr and
          "campaign 0" in proc.stderr,
          "a corrupted pinned digest fails the run and names the campaign")

    bare = os.path.join(scratch, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc, _ = run(["--workload", "mlp-appfi", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=bare, env=env)
    check(proc.returncode != 0 and result_line(proc) is None,
          "without the sources the command fails and prints no result")
    shutil.rmtree(scratch, ignore_errors=True)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
