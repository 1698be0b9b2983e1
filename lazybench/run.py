#!/usr/bin/env python3
"""Build and run the lazytree benchmark; print one JSON result line.

Usage (from the repository root):

    python3 lazybench/run.py --workload insert-grow --seed 1 --seconds 30 --trace 0

The script builds lazybench/ (a CMake project compiling ../src) as a
Release build in .bench_build, runs one workload, stamps the provenance,
keeps the full report under .bench_out/, prints a human-readable summary
and, as the last line of stdout, a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
`end_to_end` metrics of BENCHMARK.json, with --trace 1 its `per_layer`
metrics. See lazybench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 120  # on top of --seconds: set-up rounds, checks, spans


def fail(msg):
    print(f"lazybench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout):
    """Runs cmd, sending its output to stderr; fails on error or timeout."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "core", "cluster.h")):
        fail(f"no lazytree sources under {root}/src; run from the repo root")
    build_dir = os.path.join(root, ".bench_build")
    run_checked(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, "lazybench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def source_digest(root):
    """sha256 over src/ and lazybench/ (stands in for the git sha when the
    checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "lazybench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found; run from the repo root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"{args.workload}.spans.csv")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"lazybench exited {proc.returncode} without a report")
    report = json.loads(lines[-1])

    prov = report["provenance"]
    if prov["build_type"] != "Release":
        fail(f"refusing to record a {prov['build_type']} build")
    prov["nproc"] = os.cpu_count()
    prov["git_sha"] = git_sha(root)
    prov["source_sha256"] = source_digest(root)

    errors = list(report["errors"])
    if proc.returncode != 0:
        errors.append(f"lazybench exited {proc.returncode}")
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in report["metrics"]:
            metrics[name] = {"value": report["metrics"][name],
                             "unit": m["unit"]}
        elif name in report["absent"]:
            # Spec'd per-layer metric that does not exist on this workload:
            # reported as 0, with the reason in the summary and report.
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            errors.append(f"metric {name} missing from the report")
    correct = (report["correct"] and not errors and report["failed"] == 0)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(report | {"errors": errors}, f, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " +
          " ".join(f"{k}={v}" for k, v in sorted(prov.items())))
    for name, value in sorted(report["metrics"].items()):
        print(f"#   {name} = {value:.6g}")
    for name, why in sorted(report["absent"].items()):
        print(f"#   {name}: absent ({why})")
    for name, count in sorted(report["samples"].items()):
        print(f"#   {name} = {count}")
    for e in errors:
        print(f"# ERROR {e}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
