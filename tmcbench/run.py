#!/usr/bin/env python3
"""Build the tmcsim benchmark from source and run one workload.

usage (from the repository root):
  python3 tmcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                          [--smoke]

Workloads: paper_batch, serve_hybrid_faulty (see
BENCHMARK.json and tmcbench/NOTES.md). The first run configures and builds
the benchmark package (tmcbench/CMakeLists.txt, which compiles src/) into
.bench_build/tmcbench; later runs only re-check the build.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The line before it carries the host provenance, and the full
report (both metric sets, check failures, provenance) is written to
.bench_build/results/<workload>-seed<N>.json. The traced run's spans go to
.bench_build/results/spans-<workload>.json (Chrome trace format).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "tmcbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "tmcbench")
# The benchmark binary's own run limit; the whole command must finish
# within 180 s once built.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"tmcbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the smoke test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    return args


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_logged(cmd, log_path):
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under ./src; run from the root of "
             "a tmcsim checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"], log_path)
        if rc != 0:
            sys.stderr.write(open(log_path).read()[-4000:])
            fail("configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], log_path)
    if rc != 0 or not os.path.isfile(BINARY):
        sys.stderr.write(open(log_path).read()[-4000:])
        fail("build failed", 1)


def source_digest():
    """sha256 over the simulator and benchmark sources, for provenance in
    checkouts that are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "tmcbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(build_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": build_info.get("compiler", "unknown"),
        "build_flags": build_info.get("flags", "unknown"),
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
    }


def main():
    args = parse_args()
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload '{args.workload}' (one of {', '.join(workloads)})")
    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--data", os.path.join(HERE, "data"),
           "--out", RESULTS_DIR]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}", 1)
    report = json.loads(lines[-1])

    # Every metric BENCHMARK.json names must come back, with its unit.
    metrics = report["metrics"]
    problems = []
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            got = metrics.get(m["name"])
            if got is None:
                problems.append(f"metric {m['name']} missing")
            elif got["unit"] != m["unit"]:
                problems.append(f"metric {m['name']} has unit {got['unit']}, "
                                f"expected {m['unit']}")
            elif got["value"] is None:
                problems.append(f"metric {m['name']} is not a finite number")
    for line in report["failures"] + problems:
        print(f"tmcbench: check failed: {line}", file=sys.stderr)

    chosen = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": report["failed"] == 0 and not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in chosen
                    if metrics.get(m["name"]) is not None},
    }
    prov = provenance(report["build"])
    report["provenance"] = prov
    with open(os.path.join(RESULTS_DIR,
                           f"{args.workload}-seed{args.seed}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
