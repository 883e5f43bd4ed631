#!/usr/bin/env python3
"""Builds and runs the cds benchmark for one workload.

    python3 perfbench/run.py --workload map-read --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds `perfbench` twice from source, once
plain and once with `--features telemetry`, into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs one workload:

* `--trace 0` runs the plain build for `--seconds` and reports the end-to-end
  metrics;
* `--trace 1` runs the plain build and then the traced build, each for half of
  `--seconds`, and reports the per-layer metrics plus `trace.overhead_frac`,
  the share of plain throughput the traced build loses. The traced run's spans
  are written to `<target>/spans/<workload>.jsonl`.

`--workload all` runs every workload in turn. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
lines before it list every metric with its unit and a record of the run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["map-read", "set-churn", "scatter-gather"]
# Runs only when named: reproduces a known library defect (README.md).
UNLISTED = ["skiplist-churn"]
BUILD_TIMEOUT_S = 840
# Budget for the measuring processes of one workload.
RUN_TIMEOUT_S = 160


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(target):
    """Builds the plain and the traced binary; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        fail(f"the library sources are not beside {HERE}; run from a full checkout", 2)
    binaries = {}
    for mode, extra in (("plain", []), ("traced", ["--features", "telemetry"])):
        tdir = os.path.join(target, mode)
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml"),
               "--target-dir", tdir] + extra
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"building the {mode} benchmark: {e}", 3)
        if r.returncode != 0:
            fail(f"building the {mode} benchmark failed ({r.returncode})", 3)
        binaries[mode] = os.path.join(tdir, "release", "perfbench")
    return binaries


def measure(binary, workload, seed, seconds, trace, timeout, spans=None):
    """Runs one measuring process and returns its JSON document."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:.0f} s", 4)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail(f"{workload} exited with {r.returncode}", 4)
    return json.loads(r.stdout)


def run_workload(binaries, target, workload, seed, seconds, trace):
    """One workload's result: the plain run's, or for --trace 1 the traced
    run's merged with the plain run it is compared against."""
    if not trace:
        return measure(binaries["plain"], workload, seed, seconds, 0, RUN_TIMEOUT_S)
    half = seconds / 2
    plain = measure(binaries["plain"], workload, seed, half, 0, RUN_TIMEOUT_S / 2)
    spans_dir = os.path.join(target, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    traced = measure(binaries["traced"], workload, seed, half, 1, RUN_TIMEOUT_S / 2,
                     spans=os.path.join(spans_dir, f"{workload}.jsonl"))
    base = plain["record"]["throughput_ops_s"]
    overhead = 1.0 - traced["record"]["throughput_ops_s"] / base if base else 0.0
    traced["metrics"]["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    traced["correct"] = traced["correct"] and plain["correct"]
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["record"]["untraced_throughput_ops_s"] = base
    return traced


def rustc_version():
    try:
        return subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                              timeout=60).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def report(workload, doc, rustc):
    """Prints one workload's metrics, failure count and run record."""
    print(f"== {workload}")
    unreached = []
    for name, m in doc["metrics"].items():
        if m.get("samples") == 0:
            unreached.append(name)
            continue
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']:<6}{samples}")
    if unreached:
        print("  reported as 0, no samples on this workload: " + ", ".join(unreached))
    frac = doc["failed"] / doc["attempted"]
    print(f"  {'failed_frac':<28} {frac:>16.6g} ratio   "
          f"({doc['failed']} of {doc['attempted']})")
    doc["record"]["rustc"] = rustc
    print("  record " + json.dumps(doc["record"], sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + UNLISTED + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive", 2)

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    binaries = build(target)
    rustc = rustc_version()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        doc = run_workload(binaries, target, w, args.seed, args.seconds, args.trace)
        report(w, doc, rustc)
        result["correct"] = result["correct"] and doc["correct"]
        result["attempted"] += doc["attempted"]
        result["failed"] += doc["failed"]
        prefix = "" if len(names) == 1 else f"{w}."
        for name, m in doc["metrics"].items():
            result["metrics"][prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
