#!/usr/bin/env python3
"""RCt benchmark: builds perfbench/rct_bench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench under the repository root (Release).
With --trace 0 the last stdout line is a JSON object whose metrics are the
end_to_end list of BENCHMARK.json; with --trace 1 they are the per_layer list,
and the run's spans are written to .bench_build/traces/. The exit status is 0
only if the run's correctness gate passed ("correct": true). --selftest checks
that the simulated metrics and the gate verdicts repeat exactly across two runs of
one seed and across pool sizes 1 and nproc, and that every run's gate caught
the corrupted LFT entry it plants after its stream.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rct_bench")
WORKLOADS = ("boot_5832", "vm_migration_648", "topology_churn_648",
             "spine_maintenance_648")
# Operations per stream for --selftest: enough to reach every op kind.
SELFTEST_OPS = {"boot_5832": 2, "vm_migration_648": 1000,
                "topology_churn_648": 200, "spine_maintenance_648": 60}
RUN_TIMEOUT_S = 170
# rct_bench exits 3 when it printed a result whose correctness gate failed.
GATE_FAILED = 3
BUILD_TIMEOUT_S = 700


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(nproc(), 4))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))


def run_binary(args):
    """Runs rct_bench; returns its human-readable lines and its JSON result."""
    done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, GATE_FAILED) or not lines:
        sys.exit("rct_bench failed with exit code %d" % done.returncode)
    return lines[:-1], json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def selftest():
    ok = True
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", "0", "--ops", str(SELFTEST_OPS[workload])]
        runs = {
            "pool=default#1": run_binary(base)[1],
            "pool=default#2": run_binary(base)[1],
            "pool=1": run_binary(base + ["--threads", "1"])[1],
            "pool=%d" % nproc(): run_binary(
                base + ["--threads", str(nproc())])[1],
        }
        keys = ("facts", "correct", "failed", "violations", "gate_selftest")
        ref = {k: runs["pool=default#1"][k] for k in keys}
        for name, result in runs.items():
            got = {k: result[k] for k in keys}
            same = got == ref
            caught = result["gate_selftest"] and result["correct"]
            ok = ok and same and caught
            print("%-20s %-16s facts=%s gate=%s corrupted-LFT caught=%s %s" % (
                workload, name, json.dumps(result["facts"], sort_keys=True),
                "pass" if result["correct"] else "FAIL",
                "yes" if result["gate_selftest"] else "NO",
                "ok" if same and caught else "MISMATCH"))
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    if args.selftest:
        return selftest()

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    lines, result = run_binary(cmd)
    for line in lines:
        print(line)

    want = expected_metrics(args.trace)
    got = result["metrics"]
    if sorted(want) != sorted(got):
        sys.exit("metric set differs from BENCHMARK.json: missing %s, extra %s"
                 % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: got[name] for name in want},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
