#!/usr/bin/env python3
"""saffire benchmark: cold operator and network sweeps on four workloads.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. Builds perfbench/ (and ../src) into .bench_build/perfbench on
      first use, runs the workload, checks its outputs, and prints the
      manifest, then the result as the last stdout line:
      {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
      --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
      (names and units come from BENCHMARK.json).

  python3 perfbench/run.py --steadiness N --workload NAME [--seed K]
      [--seconds S] [--trace 0|1] [--save FILE]
      Repeats the run N times on seed K (same inputs, so the spread is
      run-to-run noise) and prints the median, quartiles and quartile spread
      of every metric against its bound.

  python3 perfbench/run.py --compare BASE.json NEW.json
      Compares two --save files metric by metric. Refuses when the run
      manifests differ in anything but the commit.

  python3 perfbench/run.py --pin --workload NAME --seed N [--smoke]
      Records the record count and sink digests of one sweep in pins.json,
      after confirming them against an independent rung (see README.md for
      when re-pinning is allowed).

--smoke shrinks every workload to a seconds-long smoke size; --pins FILE
reads the pinned digests from FILE instead of perfbench/pins.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1-closed-form", "forwarding-replay", "cnn-cycle",
             "mlp-appfi")
OPERATOR_WORKLOADS = ("table1-closed-form", "forwarding-replay")
# Upper bound on one run of the binary; the first run also builds.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("saffire sources (src/) not found next to perfbench/; run from "
             "the root of a full checkout")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.log"), "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "--target",
                      "saffire_perfbench", "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                fail("build failed; see " + log.name)
    return os.path.join(bdir, "saffire_perfbench")


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, smoke, extra=()):
    """Runs one workload; returns the binary's result document."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d%s" % (workload, seed, trace,
                                    "-smoke" if smoke else "")
    out = os.path.join(results, stem + ".json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--specs", os.path.join(HERE, "specs"), "--out", out,
           "--trace-out", os.path.join(results, stem + ".trace.json")]
    cmd += ["--smoke"] if smoke else []
    cmd += list(extra)
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.isfile(out):
        fail("%s failed with exit code %d" % (workload, proc.returncode))
    with open(out) as f:
        return json.load(f)


def pin_errors(doc, workload, seed, smoke, pins_path):
    """Mismatches against the pinned record count and sink digests."""
    with open(pins_path) as f:
        pins = json.load(f)
    size = "smoke" if smoke else "full"
    pin = pins.get(workload, {}).get(size, {}).get(str(seed))
    if pin is None:
        return [], False
    errors = []
    if doc["records"] != pin["records"]:
        errors.append("%s: %d records, pinned %d" %
                      (workload, doc["records"], pin["records"]))
    got, want = doc["campaign_digests"], pin["campaign_digests"]
    for index in range(max(len(got), len(want))):
        if index >= len(got) or index >= len(want) or got[index] != want[index]:
            errors.append("%s: sink digest diverges from the pin at campaign "
                          "%d" % (workload, index))
            break
    if not errors and doc["digest"] != pin["digest"]:
        errors.append("%s: sink digest %s, pinned %s" %
                      (workload, doc["digest"], pin["digest"]))
    return errors, True


def run_once(args):
    bench = load_benchmark()
    binary = build()
    doc = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace, args.smoke)
    doc["manifest"]["commit"] = commit()
    errors = list(doc["errors"])
    pinned_errors, pinned = pin_errors(doc, args.workload, args.seed,
                                       args.smoke, args.pins)
    errors += pinned_errors
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for metric in wanted:
        got = doc["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            errors.append("metric %s missing or not in %s" %
                          (metric["name"], metric["unit"]))
            continue
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    if not pinned:
        print("perfbench: seed %d has no pinned digest for %s; checked "
              "against the differential rung / replay and across sweeps" %
              (args.seed, args.workload), file=sys.stderr)
    for error in errors:
        print("perfbench: MISMATCH " + error, file=sys.stderr)
    print("manifest " + json.dumps(doc["manifest"], sort_keys=True))
    result = {"correct": not errors, "attempted": doc["attempted"],
              "failed": doc["failed"], "metrics": metrics}
    print(json.dumps(result))
    return result, doc["manifest"], errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    bench = load_benchmark()
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}
    runs = []
    for i in range(args.steadiness):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--pins",
               args.pins] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail("run %d failed" % i)
        manifest = json.loads(lines[-2][len("manifest "):])
        runs.append({"manifest": manifest, "result": json.loads(lines[-1])})
        print("run %d: %s" % (i, json.dumps(
            {k: v["value"] for k, v in runs[-1]["result"]["metrics"].items()})),
            flush=True)
    print("%-34s %12s %12s %12s %8s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print("%-34s %12.6g %12.6g %12.6g %8.4f %6s" %
              (name, q1, median, q3, spread,
               "-" if bound is None else bound))
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f, indent=1)


def compare(args):
    with open(args.compare[0]) as f:
        base = json.load(f)
    with open(args.compare[1]) as f:
        new = json.load(f)

    def manifests(doc):
        out = {}
        for run in doc["runs"]:
            m = dict(run["manifest"])
            m.pop("commit", None)
            out[m.pop("seed")] = m
        return out

    mb, mn = manifests(base), manifests(new)
    if sorted(mb) != sorted(mn):
        fail("the two sets ran different seeds; refusing to compare")
    for seed in mb:
        if mb[seed] != mn[seed]:
            diff = sorted(k for k in set(mb[seed]) | set(mn[seed])
                          if mb[seed].get(k) != mn[seed].get(k))
            fail("run manifests differ in %s; refusing to compare" %
                 ", ".join(diff))
    bench = load_benchmark()
    print("%-24s %12s %12s %9s %6s  %s" %
          ("metric", "base", "new", "change", "bound", "verdict"))
    worse = False
    for metric in bench["end_to_end"]:
        name = metric["name"]
        b = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in base["runs"])
        n = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in new["runs"])
        change = (n - b) / b
        loss = -change if metric["better"] == "higher" else change
        verdict = "worse" if loss > metric["bound"] else "ok"
        worse = worse or verdict == "worse"
        print("%-24s %12.6g %12.6g %+8.2f%% %6s  %s" %
              (name, b, n, 100 * change, metric["bound"], verdict))
    sys.exit(1 if worse else 0)


def pin(args):
    """Pins one sweep's record count and digests after cross-checking them:
    operator digests must equal the same sweep on the differential engine,
    network digests must repeat byte for byte in a second process."""
    binary = build()
    # --seconds 0 runs exactly one sweep.
    doc = run_binary(binary, args.workload, args.seed, 0, 0, args.smoke)
    extra = (["--engine", "differential"]
             if args.workload in OPERATOR_WORKLOADS else [])
    check = run_binary(binary, args.workload, args.seed, 0, 0, args.smoke,
                       extra)
    if doc["errors"] or check["errors"]:
        fail("checks failed: %s" % (doc["errors"] + check["errors"]))
    for key in ("records", "digest", "campaign_digests"):
        if doc[key] != check[key]:
            fail("%s differs from the cross-check run; not pinning" % key)
    with open(args.pins) as f:
        pins = json.load(f)
    size = "smoke" if args.smoke else "full"
    pins.setdefault(args.workload, {}).setdefault(size, {})[str(args.seed)] = {
        "records": doc["records"], "digest": doc["digest"],
        "campaign_digests": doc["campaign_digests"]}
    with open(args.pins, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print("pinned %s/%s seed %d: %d records, digest %s" %
          (args.workload, size, args.seed, doc["records"], doc["digest"]))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"))
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--save", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.compare:
        compare(args)
        return
    if args.workload is None:
        parser.error("--workload is required")
    if args.steadiness:
        steadiness(args)
    elif args.pin:
        pin(args)
    else:
        _, _, errors = run_once(args)
        sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
