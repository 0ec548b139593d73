#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark from source in an optimised build tree
($CARGO_TARGET_DIR, default .bench_build); later runs only re-check it.
The last line of standard output is the result object; the lines before
it are JSON notes (provenance, sample counts, layer boundaries). The
exit code is 0 only for a correct run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175
MEASURED_KEYS = {"correct", "attempted", "failed", "values"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src", "mcfs")):
        fail("library sources not found under %s" % os.path.join(ROOT, "src"))
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return {"git_sha": sha.stdout.strip()}
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": None, "source_sha256": digest.hexdigest()}


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def compose_result(measured, spec, trace):
    """Turns the binary's measured line into the result object.

    BENCHMARK.json is the only list of metrics: the mode picks
    end_to_end (trace 0) or per_layer (trace 1), in that order and with
    those units. Returns (result, layers_not_entered, problems); the
    result is None when there are problems. A name the binary measured
    that BENCHMARK.json does not know is a problem, so is a missing
    end-to-end metric; a per-layer metric the workload never entered
    reads 0 and is listed.
    """
    if not isinstance(measured, dict) or set(measured) != MEASURED_KEYS:
        return None, [], ["measured keys must be exactly %s"
                          % sorted(MEASURED_KEYS)]
    problems = []
    if not isinstance(measured["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = measured[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(measured["attempted"], int) and measured["attempted"] < 1:
        problems.append("attempted is below 1")
    values = measured["values"]
    if not isinstance(values, dict):
        return None, [], problems + ["values is not an object"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(values) - known)
    if unknown:
        problems.append("metrics not in BENCHMARK.json: %s" % unknown)
    problems += ["%s: value is not a finite number" % name
                 for name, value in sorted(values.items())
                 if not is_number(value)]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    not_entered = [m["name"] for m in wanted if m["name"] not in values]
    if not trace and not_entered:
        problems.append("end-to-end metrics not measured: %s" % not_entered)
    if problems:
        return None, not_entered, problems
    result = {key: measured[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0),
                                     "unit": m["unit"]} for m in wanted}
    return result, not_entered, []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(build_dir)
    print(json.dumps({"source": source_identity()}), flush=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", build_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("the workload printed nothing (exit code %d)" % run.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        measured = json.loads(lines[-1])
    except ValueError:
        fail("the last line is not a JSON object (exit code %d)"
             % run.returncode)
    result, not_entered, problems = compose_result(
        measured, spec, args.trace == "1")
    if problems:
        fail("malformed result: " + "; ".join(problems))
    if args.trace == "1":
        print(json.dumps({"layers_not_entered": not_entered}))
    print(json.dumps(result), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
