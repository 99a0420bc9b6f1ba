#!/usr/bin/env python3
"""Host-cost benchmark of the meshnet simulator.

    python3 perfbench/run.py --workload fig4|mesh100|parsim --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (the simulator from src/ plus the benchmark executable) in
.bench_build/ with CMake, runs one workload for S seconds and prints the
metrics by name with their units. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones and
writes the traced run's spans to .bench_build/traces/.

Correctness: the executable's checks (conservation, the workload's model
check) fail every request of an iteration that breaks them. The
sim_digest of the run's simulated outputs must also match every other run
of the same seed made by the same binary, traced or not; the digests are
kept in .bench_build/digests/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fig4", "mesh100", "parsim")
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--violate", action="store_true",
                        help="deliberately break the conservation check")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures on first use, then (re)builds incrementally."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(step))


def binary_id():
    digest = hashlib.sha1()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_digest(workload, seed, sim_digest):
    """True if no earlier run of this binary and seed saw another digest."""
    store = os.path.join(BUILD_ROOT, "digests", binary_id())
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%d" % (workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == sim_digest
    with open(path, "w") as f:
        f.write(sim_digest + "\n")
    return True


def run(args):
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        spans = os.path.join(BUILD_ROOT, "traces",
                             "%s-seed%d.jsonl" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        command += ["--spans", spans]
    if args.violate:
        command.append("--violate")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s exited with %d" %
                         (os.path.basename(BINARY), proc.returncode))
    return json.loads(lines[-1]), spans


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    build()
    raw, spans = run(args)

    correct = raw["correct"]
    attempted = raw["attempted"]
    failed = raw["failed"]
    digest_ok = check_digest(args.workload, args.seed, raw["sim_digest"])
    if not digest_ok:
        correct = False
        failed = attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        raise SystemExit("perfbench: metrics not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}

    print("workload %s seed %d: %d iterations" %
          (args.workload, args.seed, raw["iterations"]))
    if raw["parallel_threads"]:
        print("  parallel arm: %d engine threads" % raw["parallel_threads"])
    for name, metric in metrics.items():
        print("  %-34s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-34s %16.6g %s" % ("failed_ratio", failed / max(1, attempted),
                                 "ratio"))
    print("  sim_digest %s (%s)" % (raw["sim_digest"],
                                    "matches earlier runs of this seed"
                                    if digest_ok else "DIFFERS from an "
                                    "earlier run of this seed"))
    for name, ok in sorted(raw["checks"].items()):
        print("  check %-40s %s" % (name, "ok" if ok else "FAILED"))
    if spans:
        print("  spans written to %s" % os.path.relpath(spans, ROOT))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
