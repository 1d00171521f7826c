#!/usr/bin/env python3
"""Host-time benchmark of the DAMN simulator.

Builds the simulator and the benchmark driver from source, runs one
workload in its own process and prints, as the last line of standard
output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones (spans are written to
.bench_build/spans-NAME-seedN.json).  Every run also makes one untimed
repetition at the default seed, whose virtual-time digest must equal
the one recorded in perfbench/digests.json; when the run's own seed
has a recorded digest, every repetition must match that too.
--record-digest stores the run's digest for its seed instead.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
# The driver's kDefaultSeed: the Figure 1 layout.
DEFAULT_SEED = 42
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the driver binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)


def load_digests():
    """Recorded digests: {workload: {seed: hex}}."""
    with open(DIGESTS) as f:
        return json.load(f)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--record-digest", action="store_true",
                   help="store this run's digest for its seed")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    digests = load_digests()
    recorded = digests.setdefault(args.workload, {})
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if not (args.record_digest and args.seed == DEFAULT_SEED):
        if str(DEFAULT_SEED) not in recorded:
            raise RuntimeError("no digest recorded for %s at seed %d" % (
                args.workload, DEFAULT_SEED))
        cmd += ["--default-digest", recorded[str(DEFAULT_SEED)]]
    if str(args.seed) in recorded and not args.record_digest:
        cmd += ["--expect-digest", recorded[str(args.seed)]]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD_ROOT, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.record_digest and res["correct"]:
        recorded[str(args.seed)] = res["digest"]
        for name in digests:
            digests[name] = dict(sorted(digests[name].items(),
                                        key=lambda kv: int(kv[0])))
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2)
            f.write("\n")
        log("recorded %s = %s" % (args.workload, res["digest"]))

    for err in res["errors"]:
        log("failed: " + err)
    # Virtual-time results next to the raw host metrics.
    print("workload %s seed %d (seed %s) digest %s reps %d: "
          "gbps %.6g cpu_pct %.6g faults_serviced %.6g" % (
              res["workload"], res["seed"],
              "applies" if res["seed_applies"] else "does not apply",
              res["digest"], res["reps"], res["gbps"], res["cpu_pct"],
              res["faults_serviced"]))
    print("host " + " ".join("%s %.6g %s" % (name, m["value"], m["unit"])
                             for name, m in res["host"].items()))
    print(json.dumps({key: res[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        sys.exit(1)
