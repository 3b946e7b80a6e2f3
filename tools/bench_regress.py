#!/usr/bin/env python3
"""Benchmark regression gate.

Runs one suite of google-benchmark binaries with
``--benchmark_format=json``, writes the merged results to an output JSON
file, and fails (exit 1) when any gated benchmark regresses by more than
the threshold against the suite's checked-in baseline at the repository
root. Suites: ``sweep`` (perf_enumeration + perf_pareto vs
``BENCH_sweep.json``, the default), ``traffic`` (perf_traffic vs
``BENCH_traffic.json``), ``des`` (perf_des vs ``BENCH_des.json``),
``control`` (perf_control vs ``BENCH_control.json``), ``stream``
(perf_stream vs ``BENCH_stream.json``) and ``lint`` (the hcep_lint
analyzer's own wall-clock vs ``BENCH_lint.json`` — not a
google-benchmark binary; see below).

The ``lint`` suite times full-tree scans of the repository with the
static analyzer: a cold scan (empty result cache — every file is
tokenized, scope-tracked and analyzed) and a warm scan (all files hit
the mtime+hash cache). Both report files/second as
``items_per_second`` so the same gate machinery applies, and a
``min_ratio`` gate demands the warm scan stay well above the cold one —
if the cache stops hitting, the ratio collapses to 1 and the gate
fails even on a machine where absolute speed drifted.

The gate compares ``items_per_second`` for serial benchmarks only:
google-benchmark's CPU timer measures the main benchmark thread, so
thread-pool variants under-report work and are recorded but never gated.

Suites may additionally declare ``ratio_gates``: within-run throughput
ratios between a fast and a slow implementation measured minutes apart at
most (e.g. the calendar-queue DES kernel vs the seed binary-heap +
std::function replica). Unlike the absolute gates these need no baseline
and survive machine-speed changes — a builder twice as slow fails both
sides equally — so they are enforced in smoke runs too. A gate with
``min_ratio`` demands fast/slow stay ABOVE it (the fast side must keep
its speedup); a gate with ``max_ratio`` demands it stay BELOW (the slow
side is an instrumented variant whose overhead is bounded, e.g. the
control suite's <= 5% tick-overhead gate for the frozen controller).

Every google-benchmark binary runs with ``--benchmark_repetitions=9
--benchmark_enable_random_interleaving=true``: each benchmark is
measured nine times, in an order shuffled across the suite, so a burst
of load on a shared machine lands on both sides of a pair instead of one.
Absolute gates read each benchmark's median repetition. Ratio gates
compare the per-side minimum time per item (the fastest repetition of
each side): the noise on a shared machine only ever adds time, so the
minimum is the estimate least disturbed by it. Each ratio line prints
the per-side spread of time per item (min/median/max) next to the ratio.

Usage:
  tools/bench_regress.py [--suite sweep|traffic] [--build-dir build]
                         [--baseline BENCH_<suite>.json]
                         [--output build/BENCH_<suite>.json]
                         [--threshold 0.20] [--smoke] [--update-baseline]

A gated benchmark, or either side of a ratio pair, that the run's
``--benchmark_filter`` selects (every name, in a full run) but the output
lacks fails the suite, so a renamed or deleted benchmark cannot switch
its gate off. Every failure line names the bound it broke, e.g.
``A vs B: 1.25x > max 1.15x``. ``tools/bench_regress_selftest.py``
checks the gate evaluation (``evaluate_gates``) without running a
benchmark.

``--smoke`` runs a short, filtered pass for ctest (seconds, not minutes)
and relaxes the threshold to 0.60 unless one is given explicitly: on a
shared machine a quick sample is too noisy for a 20% gate, but still
catches order-of-magnitude regressions like an accidental fallback to
the naive path. ``--update-baseline`` rewrites the baseline block in
place (run after intentional performance changes, on a quiet machine).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

# Interleaved repetitions per google-benchmark run (see the docstring).
REPETITIONS = 9

# Per-suite configuration. ``gated`` lists serial benchmarks with stable
# CPU-time throughput; everything else is recorded for reference but not
# gated. ``smoke_filter`` keeps the ctest pass to seconds.
SUITES = {
    "sweep": {
        "binaries": ["perf_enumeration", "perf_pareto"],
        "baseline": "BENCH_sweep.json",
        "gated": [
            "BM_ConfigDecode",
            "BM_DecodeAt",
            "BM_FullSweep",
            "BM_EvaluateSpace/10/1",
            "BM_ParetoFront",
        ],
        # Within-run fast-path-vs-oracle ratios: the fused sweep against
        # evaluate_space_naive and the prefiltered set front against the
        # materialized sort, both on one thread. Thresholds sit between
        # the ratios measured with the pre-fusion evaluator and linear
        # Pareto buckets and with the current code (docs/PERF.md).
        "ratio_gates": [
            {"fast": "BM_EvaluateSpace/10/1",
             "slow": "BM_EvaluateSpaceNaive/10/1", "min_ratio": 50.0},
            {"fast": "BM_ParetoFront",
             "slow": "BM_ParetoFrontMaterialized", "min_ratio": 60.0},
        ],
        "smoke_filter": (
            "BM_ConfigDecode|BM_DecodeAt|BM_FullSweep$|"
            "BM_EvaluateSpace/10/1|BM_EvaluateSpaceNaive/10/1|"
            "BM_ParetoFront$|BM_ParetoFrontMaterialized$"
        ),
    },
    "traffic": {
        "binaries": ["perf_traffic"],
        "baseline": "BENCH_traffic.json",
        "gated": [
            "BM_PoissonArrivals",
            "BM_TokenBucketAcquire",
            "BM_SimulateTraffic/16384",
            "BM_AdmissionSloPath/131072",
            "BM_AdmissionSloPath/1048576",
        ],
        # The smoke pass swaps the >1M-request gate for the 128k size:
        # the path is identical, the wall time is ctest-friendly.
        "smoke_filter": (
            "BM_PoissonArrivals$|BM_TokenBucketAcquire$|"
            "BM_SimulateTraffic/16384$|BM_AdmissionSloPath/131072$"
        ),
    },
    "des": {
        "binaries": ["perf_des"],
        "baseline": "BENCH_des.json",
        "gated": [
            "BM_ChurnCalendar/65536",
            "BM_EventQueueChurn/100000",
            "BM_CallbackInline",
        ],
        # Within-run kernel-vs-seed-replica ratios. Thresholds sit below
        # the ratios measured on a quiet single-core builder (2.4x / 2.0x
        # / 2.0x best-of-3; see docs/PERF.md) by enough margin to absorb
        # the +-30% thermal noise observed on shared machines, while
        # still catching any change that drags the calendar kernel back
        # toward heap+std::function parity.
        "ratio_gates": [
            {"fast": "BM_ChurnCalendar/65536",
             "slow": "BM_ChurnLegacy/65536", "min_ratio": 1.5},
            {"fast": "BM_ChurnCalendar/1048576",
             "slow": "BM_ChurnLegacy/1048576", "min_ratio": 1.4},
            {"fast": "BM_ChurnBimodalCalendar/65536",
             "slow": "BM_ChurnBimodalLegacy/65536", "min_ratio": 1.3},
        ],
        # Churn iterations execute 2M events each, so even the smoke pass
        # measures the gated ratios at full depth; the 1M-pending pair and
        # the end-to-end cluster simulation are full-suite only.
        "smoke_filter": (
            "BM_ChurnCalendar/65536$|BM_ChurnLegacy/65536$|"
            "BM_ChurnBimodalCalendar/65536$|BM_ChurnBimodalLegacy/65536$|"
            "BM_EventQueueChurn/100000$|BM_CallbackInline$"
        ),
    },
    "control": {
        "binaries": ["perf_control"],
        "baseline": "BENCH_control.json",
        "gated": [
            "BM_OpenLoopTraffic/1048576",
            "BM_FrozenControlTraffic/1048576",
            "BM_PowerGateTick/64",
        ],
        # The ISSUE's tick-overhead bound: the frozen (no-op) controller
        # reproduces the open-loop run byte-identically, so open/frozen
        # throughput is pure control-plane overhead. <= 5% at 1M requests
        # (full runs); the 128k smoke pair gets slack for timer noise on
        # a short sample.
        "ratio_gates": [
            {"fast": "BM_OpenLoopTraffic/1048576",
             "slow": "BM_FrozenControlTraffic/1048576", "max_ratio": 1.05},
            {"fast": "BM_OpenLoopTraffic/131072",
             "slow": "BM_FrozenControlTraffic/131072", "max_ratio": 1.15},
        ],
        "smoke_filter": (
            "BM_OpenLoopTraffic/131072$|BM_FrozenControlTraffic/131072$|"
            "BM_PowerGateTick/64$"
        ),
    },
    "stream": {
        "binaries": ["perf_stream"],
        "baseline": "BENCH_stream.json",
        "gated": [
            "BM_StreamOffTraffic/1048576",
            "BM_StreamOnTraffic/1048576",
            "BM_SketchInsert/1000",
        ],
        # The ISSUE's streaming-overhead bound: the collector is purely
        # observational (off/on runs are byte-identical modulo the
        # timeline itself), so off/on throughput is pure telemetry cost.
        # <= 5% at 1M requests (full runs) is the authoritative gate;
        # the 128k pair is a ~100 ms sample whose run-to-run cv is close
        # to 10% on shared builders, so it only gets a sanity bound.
        "ratio_gates": [
            {"fast": "BM_StreamOffTraffic/1048576",
             "slow": "BM_StreamOnTraffic/1048576", "max_ratio": 1.05},
            {"fast": "BM_StreamOffTraffic/131072",
             "slow": "BM_StreamOnTraffic/131072", "max_ratio": 1.30},
        ],
        "smoke_filter": (
            "BM_StreamOffTraffic/131072$|BM_StreamOnTraffic/131072$|"
            "BM_SketchInsert/1000$"
        ),
    },
    "fed": {
        "binaries": ["perf_fed"],
        "baseline": "BENCH_fed.json",
        "gated": [
            "BM_OpenLoopTraffic/1048576",
            "BM_FedSingleSite/1048576",
            "BM_RouterDecision",
        ],
        # The ISSUE's federation-overhead bound: a single-site fleet run
        # is the same demand through the same cluster plus the whole
        # routing pipeline (generation, placement, replay, ledger merge),
        # so open/fed throughput is pure federation cost. <= 5% at 1M
        # requests (full runs); the 128k smoke pair gets slack for timer
        # noise on a short sample.
        "ratio_gates": [
            {"fast": "BM_OpenLoopTraffic/1048576",
             "slow": "BM_FedSingleSite/1048576", "max_ratio": 1.05},
            {"fast": "BM_OpenLoopTraffic/131072",
             "slow": "BM_FedSingleSite/131072", "max_ratio": 1.15},
        ],
        "smoke_filter": (
            "BM_OpenLoopTraffic/131072$|BM_FedSingleSite/131072$|"
            "BM_RouterDecision$"
        ),
    },
    "lint": {
        # Custom wall-clock runner (run_lint_suite), not google-benchmark:
        # the analyzer must stay fast enough to remain a default `lint`
        # ctest, so its scan time is gated like any other hot path.
        "binaries": [],
        "runner": "lint",
        "baseline": "BENCH_lint.json",
        "gated": ["LintScanCold", "LintScanWarm"],
        # The cache contract, machine-independently: a warm scan only
        # stats+reads files, so it must beat the cold scan handily. The
        # measured ratio is >5x on a quiet builder; 2x absorbs noise
        # while still failing if cache hits stop happening.
        "ratio_gates": [
            {"fast": "LintScanWarm", "slow": "LintScanCold",
             "min_ratio": 2.0},
        ],
        "smoke_filter": None,
    },
}


def run_lint_suite(build_dir, repo_root, smoke):
    """Times hcep_lint full-tree scans: cold (no cache) and warm.

    Returns a ``measured`` dict in the same shape as run_benchmark's
    output: files/second as items_per_second, seconds as real_time.
    """
    binary = os.path.join(build_dir, "tools", "lint", "hcep_lint")
    if not os.path.exists(binary):
        print(f"bench_regress: missing analyzer binary {binary}",
              file=sys.stderr)
        return None
    cache = os.path.join(build_dir, "hcep_lint_bench_cache.txt")
    reps = 1 if smoke else 3

    def scan():
        start = time.perf_counter()
        out = subprocess.run(
            [binary, "--root", repo_root, "--cache", cache],
            capture_output=True, text=True).stdout
        elapsed = time.perf_counter() - start
        m = re.search(r"scanned (\d+) file", out)
        return elapsed, int(m.group(1)) if m else 0

    results = {}
    # Cold: delete the cache before every rep; best-of-N wall clock.
    cold = []
    for _ in range(reps):
        if os.path.exists(cache):
            os.remove(cache)
        cold.append(scan())
    best, files = min(cold, key=lambda r: r[0])
    results["LintScanCold"] = {
        "items_per_second": files / best if best > 0 else None,
        "real_time": best, "cpu_time": best, "time_unit": "s"}
    # Warm: the cache file left by the last cold rep now covers the tree.
    scan()  # prime (refreshes mtimes recorded in the cache)
    best, files = min((scan() for _ in range(max(reps, 2))),
                      key=lambda r: r[0])
    results["LintScanWarm"] = {
        "items_per_second": files / best if best > 0 else None,
        "real_time": best, "cpu_time": best, "time_unit": "s"}
    return results


def run_benchmark(path, min_time, bench_filter=None):
    cmd = [path, "--benchmark_format=json", f"--benchmark_min_time={min_time}",
           f"--benchmark_repetitions={REPETITIONS}",
           "--benchmark_enable_random_interleaving=true"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    # perf_enumeration prints its footnote-4 startup check before the JSON.
    return json.loads(out[out.index("{"):])


def collect_repetitions(doc):
    """Folds a repeated run's per-repetition entries into one record per
    benchmark: the median repetition's figures, plus every repetition's
    ``items_per_second`` under ``repetitions`` (google-benchmark's own
    mean/median/stddev aggregates are skipped)."""
    reps = {}
    for b in doc["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        reps.setdefault(b.get("run_name", b["name"]), []).append(b)
    measured = {}
    for name, runs in reps.items():
        ips = [r.get("items_per_second") for r in runs]
        if None in ips:
            median = runs[len(runs) // 2]
        else:
            mid = statistics.median_low(ips)
            median = next(r for r in runs if r["items_per_second"] == mid)
        measured[name] = {
            "items_per_second": median.get("items_per_second"),
            "real_time": median["real_time"],
            "cpu_time": median["cpu_time"],
            "time_unit": median["time_unit"],
            "repetitions": ips,
        }
    return measured


def ratio_side(entry):
    """Best throughput of one ratio side (its minimum time per item) and
    the min/median/max time-per-item spread string, from its repetitions
    when it has them, else from its single ``items_per_second``."""
    reps = entry.get("repetitions")
    if not reps or None in reps:
        return entry["items_per_second"], "1 run"
    ns = sorted(1e9 / v for v in reps)
    spread = (f"{ns[0]:.4g}/{statistics.median(ns):.4g}/{ns[-1]:.4g} "
              f"ns/item over {len(ns)}")
    return max(reps), spread


def expected_in_run(name, bench_filter):
    """Whether a run with ``--benchmark_filter=bench_filter`` must report
    ``name`` (google-benchmark selects by regex search; no filter selects
    everything)."""
    return bench_filter is None or re.search(bench_filter, name) is not None


def evaluate_gates(suite, measured, baseline, threshold, bench_filter):
    """Evaluates a suite's gates on one run; no I/O.

    ``measured`` and ``baseline`` map benchmark names to dicts carrying
    ``items_per_second`` (the median repetition, for a repeated run) and,
    for a repeated run, ``repetitions``: each repetition's
    ``items_per_second``. Absolute gates read ``items_per_second``; ratio
    gates read the per-side best repetition (see ratio_side). Returns
    ``(report, failures)``: one report line
    per evaluated gate, and one failure line per violated gate that names
    the bound it broke. A gated name, or either side of a ratio pair, that
    the run's filter selects but the output lacks is a failure: renaming
    or deleting a benchmark must not switch its gate off silently.
    """
    def ips(name):
        return measured.get(name, {}).get("items_per_second")

    report, failures = [], []
    floor = 1.0 - threshold
    for name in suite["gated"]:
        cur = ips(name)
        if cur is None:
            if expected_in_run(name, bench_filter):
                failures.append(f"{name}: missing from the run")
            continue
        base = baseline.get(name, {}).get("items_per_second")
        if base is None:
            report.append(f"  {name:30s} no baseline entry; not gated")
            continue
        ratio = cur / base
        ok = ratio >= floor
        report.append(f"  {name:30s} baseline={base:12.4g}/s  "
                      f"current={cur:12.4g}/s  ratio={ratio:6.3f}  "
                      f"{'OK' if ok else 'REGRESSED'}")
        if not ok:
            failures.append(f"{name}: {ratio:.2f}x of baseline < min "
                            f"{floor:.2f}x ({threshold:.0%} regression "
                            "allowed)")

    for gate in suite.get("ratio_gates", []):
        pair = f"{gate['fast']} vs {gate['slow']}"
        sides = (gate["fast"], gate["slow"])
        missing = [n for n in sides if ips(n) is None]
        if missing:
            if any(expected_in_run(n, bench_filter) for n in sides):
                failures.append(f"{pair}: {', '.join(missing)} missing "
                                "from the run")
            continue  # pair filtered out of this run
        fast, fast_spread = ratio_side(measured[gate["fast"]])
        slow, slow_spread = ratio_side(measured[gate["slow"]])
        ratio = fast / slow
        bounds, broken = [], []
        if "min_ratio" in gate:
            bounds.append(f"min {gate['min_ratio']:.2f}x")
            if not ratio >= gate["min_ratio"]:
                broken.append(f"< min {gate['min_ratio']:.2f}x")
        if "max_ratio" in gate:
            bounds.append(f"max {gate['max_ratio']:.2f}x")
            if not ratio <= gate["max_ratio"]:
                broken.append(f"> max {gate['max_ratio']:.2f}x")
        report.append(f"  {pair}: {ratio:.2f}x ({', '.join(bounds)})  "
                      f"{'OUT OF BOUNDS' if broken else 'OK'}\n"
                      f"      min/median/max: fast {fast_spread}; "
                      f"slow {slow_spread}")
        if broken:
            failures.append(f"{pair}: {ratio:.2f}x {' and '.join(broken)}")
    return report, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", default="sweep", choices=sorted(SUITES),
                    help="which benchmark suite to run (default: sweep)")
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline", default=None,
                    help="baseline JSON (default: the suite's "
                         "BENCH_<suite>.json at the repository root)")
    ap.add_argument("--output", default=None,
                    help="where to write measured results "
                         "(default: <build-dir>/BENCH_<suite>.json)")
    ap.add_argument("--threshold", type=float, default=None,
                    help="max allowed fractional regression (default 0.20, "
                         "or 0.60 with --smoke)")
    ap.add_argument("--smoke", action="store_true",
                    help="short filtered run for ctest")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline block from this run")
    args = ap.parse_args()

    suite = SUITES[args.suite]
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_path = args.baseline or os.path.join(repo_root,
                                                  suite["baseline"])
    output_path = args.output or os.path.join(args.build_dir,
                                              suite["baseline"])
    threshold = args.threshold if args.threshold is not None else (
        0.60 if args.smoke else 0.20)
    min_time = 0.025 if args.smoke else 0.25
    bench_filter = suite["smoke_filter"] if args.smoke else None

    if suite.get("runner") == "lint":
        measured = run_lint_suite(args.build_dir, repo_root, args.smoke)
        if measured is None:
            return 2
    else:
        measured = {}
        for binary in suite["binaries"]:
            path = os.path.join(args.build_dir, "bench", binary)
            if not os.path.exists(path):
                print(f"bench_regress: missing benchmark binary {path}",
                      file=sys.stderr)
                return 2
            measured.update(collect_repetitions(
                run_benchmark(path, min_time, bench_filter)))

    os.makedirs(os.path.dirname(os.path.abspath(output_path)), exist_ok=True)
    with open(output_path, "w") as f:
        json.dump({"benchmarks": measured}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_regress: wrote {len(measured)} results to {output_path}")

    try:
        with open(baseline_path) as f:
            baseline_doc = json.load(f)
    except FileNotFoundError:
        baseline_doc = {}
    baseline = baseline_doc.get("baseline", {})

    if args.update_baseline:
        baseline_doc["baseline"] = {
            name: {"items_per_second": measured[name]["items_per_second"]}
            for name in suite["gated"]
            if measured.get(name, {}).get("items_per_second")
        }
        with open(baseline_path, "w") as f:
            json.dump(baseline_doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bench_regress: baseline updated in {baseline_path}")
        return 0

    if not baseline:
        print(f"bench_regress: no baseline block in {baseline_path}; "
              "run with --update-baseline to create one", file=sys.stderr)
        return 2

    report, failures = evaluate_gates(suite, measured, baseline, threshold,
                                      bench_filter)
    for line in report:
        print(line)
    if failures:
        print(f"bench_regress: FAIL vs {baseline_path}", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"bench_regress: all gated benchmarks within {threshold:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
