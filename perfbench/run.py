#!/usr/bin/env python3
"""hcep repo benchmark: build hcep from this checkout, run one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload sweep|traffic|fleet --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

The first form builds perfbench/ (which compiles the hcep library modules
from ../src) into $CARGO_TARGET_DIR, default .bench_build, then runs the
benchmark binary. The last line of standard output is its JSON
result. --trace 1 also writes the run's spans to
<build>/spans-<workload>-<seed>.jsonl.

--smoke makes a few calls of every workload in both modes, runs every
check, and verifies that each result names exactly the metrics listed in
BENCHMARK.json. It exits 0 only when everything passes.

Build output goes to standard error. Exit codes: 0 ok, 1 failed checks
(smoke), 2 bad usage or missing sources, 3 build or run failure.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "traffic", "fleet")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    path = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    if ROOT not in path.parents:
        sys.exit("perfbench: build directory must lie inside the checkout")
    return path


def build(out):
    """Configures and builds the benchmark binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"perfbench: no hcep sources in {ROOT}", file=sys.stderr)
        sys.exit(2)
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(out / ".perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(out), "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", str(out), "-j", jobs,
                      "--target", "hcep_perfbench"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                print("perfbench: build failed: " + " ".join(cmd),
                      file=sys.stderr)
                sys.exit(3)
    return out / "hcep_perfbench"


def run_binary(binary, args, echo=True):
    """Runs the binary to completion; returns (exit code, stdout lines)."""
    done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    return done.returncode, done.stdout.splitlines()


def expected_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def smoke(binary, out):
    """A few calls of every workload in both modes, every check."""
    end_to_end, per_layer = expected_metrics()
    problems = []
    attempted = failed = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            if trace:
                args += ["--spans", str(out / f"spans-{workload}-smoke.jsonl")]
            code, lines = run_binary(binary, args, echo=False)
            label = f"{workload} trace={trace}"
            if code != 0 or not lines:
                problems.append(f"{label}: hcep_perfbench exited {code}")
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            want = per_layer if trace else end_to_end
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed of "
                                f"{result['attempted']}")
            if list(result["metrics"]) != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            print(f"smoke {label}: {result['attempted']} attempted, "
                  f"{result['failed']} failed, "
                  f"{len(result['metrics'])} metrics")
    for p in problems:
        print("SMOKE FAILED: " + p)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed + len(problems), "metrics": {}}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    out = build_dir()
    binary = build(out)
    if args.smoke:
        return smoke(binary, out)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        bench_args += ["--spans",
                       str(out / f"spans-{args.workload}-{args.seed}.jsonl")]
    code, lines = run_binary(binary, bench_args)
    if code != 0:
        print(f"perfbench: hcep_perfbench exited {code}", file=sys.stderr)
        return 3
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("perfbench: hcep_perfbench printed no result line",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
