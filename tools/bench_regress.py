#!/usr/bin/env python3
"""Benchmark-regression gate for the SIMD kernel library and the wire.

Two schemas share the gate:

clear-bench-kernels-v1 (bench_kernels --json). Compares *speedups relative
to the scalar oracle* — a same-host, same-run ratio — rather than absolute
throughput, so the committed baseline stays meaningful on machines of
different absolute speed and under CI noise. A vector kernel whose
advantage over scalar shrinks by more than --tolerance (default 15%) fails
the gate; that is exactly the "someone quietly broke the AVX2 GEMM" signal
the perf trajectory exists to catch. ISAs present in the baseline but not
runnable on this host are skipped with a note, never failed. The sweep's
built-in cross-ISA bit-identity check (`bit_identical`) is enforced
unconditionally. A comparison runs one sweep. --update records a kernel
baseline as the per-cell median of BASELINE_SWEEPS sweeps, so a refresh
cannot freeze one noisy sweep; it refuses a kernel --current.

clear-bench-loadgen-v1 (bench_loadgen --json / clear-cli loadgen --json).
Compares the `ratios` object. `answered_fraction` and `ok_fraction` are
deterministic functions of the hashed schedule — any drop below baseline
fails regardless of tolerance. `achieved_ratio` (achieved/offered req/s)
carries the machine's absolute speed, so it alone uses --tolerance; pass a
generous value (the ctest wiring uses 0.6) to keep the gate meaningful
across hosts while still catching a wedged event loop.

clear-bench-artifacts-v1 (bench_artifacts --json). Compares the `gains`
object (density gain of delta checkpoints over full checkpoints per serving
tier — a deterministic function of the workload, gated at --tolerance) and
`cold_load.p99_headroom` (full p99 / delta p99 — a timing ratio, gated at
max(--tolerance, 0.6) since it carries machine noise). The benchmark binary
additionally self-gates the absolute targets (int8 gain >= 5x, delta
cold-load p99 <= 1.2x).

Usage:
  bench_regress.py --bench PATH/bench_kernels --baseline BENCH_kernels.json
  bench_regress.py --current run.json --baseline BENCH_loadgen.json
  bench_regress.py --bench PATH/bench_kernels --baseline BENCH_kernels.json \
      --update
Options:
  --tolerance FRAC   allowed fractional loss (default 0.15)
  --bench-args STR   extra whitespace-split args for --bench (e.g. "--quick")
  --update           rewrite the baseline from the current run and exit 0

Exit codes: 0 pass, 1 regression or malformed input, 2 usage error.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile

SCHEMAS = ("clear-bench-kernels-v1", "clear-bench-loadgen-v1",
           "clear-bench-artifacts-v1")
BASELINE_SWEEPS = 20


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if data.get("schema") not in SCHEMAS:
        sys.exit(f"error: {path}: schema is not one of {', '.join(SCHEMAS)}")
    return data


def run_bench(bench, extra_args):
    with tempfile.NamedTemporaryFile(mode="r", suffix=".json") as tmp:
        proc = subprocess.run([bench, *extra_args, f"--json={tmp.name}"],
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            sys.exit(f"error: {bench} --json exited {proc.returncode}")
        return load(tmp.name)


def median_of_sweeps(runs):
    """Merges kernel sweeps: per-cell median speedup and per-row median
    time; bit-identical only if every sweep was."""
    rows = {}
    for run in runs:
        for row in run["results"]:
            rows.setdefault((row["bench"], row["isa"]), []).append(row)
    merged = dict(runs[0])
    merged["sweeps"] = len(runs)
    merged["bit_identical"] = all(r.get("bit_identical", False) for r in runs)
    merged["results"] = [
        dict(group[0],
             ms=round(statistics.median(x["ms"] for x in group), 6),
             gflops=round(statistics.median(x["gflops"] for x in group), 4))
        for group in rows.values()]
    merged["speedups"] = {
        bench: {isa: round(statistics.median(
                    r["speedups"][bench][isa] for r in runs), 4)
                for isa in by_isa}
        for bench, by_isa in runs[0]["speedups"].items()}
    return merged


def compare_kernels(current, baseline, tolerance):
    """Returns (failures, checked, skipped)."""
    host_isas = set(current.get("isas", []))
    cur_speedups = current.get("speedups", {})

    failures, checked, skipped = [], 0, []
    for bench_name, by_isa in sorted(baseline.get("speedups", {}).items()):
        for isa, base in sorted(by_isa.items()):
            if isa not in host_isas:
                skipped.append(f"{bench_name}/{isa}")
                continue
            cur = cur_speedups.get(bench_name, {}).get(isa)
            if cur is None:
                failures.append(
                    f"{bench_name}/{isa}: missing from current run "
                    f"(baseline {base:.2f}x)")
                continue
            checked += 1
            floor = base * (1.0 - tolerance)
            verdict = "ok" if cur >= floor else "REGRESSION"
            print(f"{bench_name:24s} {isa:6s} baseline {base:6.2f}x  "
                  f"current {cur:6.2f}x  floor {floor:6.2f}x  {verdict}")
            if cur < floor:
                failures.append(
                    f"{bench_name}/{isa}: {cur:.2f}x < floor {floor:.2f}x "
                    f"(baseline {base:.2f}x, tolerance {tolerance:.0%})")
    return failures, checked, skipped


def compare_loadgen(current, baseline, tolerance):
    """Returns (failures, checked, skipped)."""
    failures, checked = [], 0

    # Ratios are only comparable between identical offered workloads.
    cur_cfg, base_cfg = current.get("config", {}), baseline.get("config", {})
    if cur_cfg != base_cfg:
        failures.append(
            f"loadgen config mismatch: current {cur_cfg} vs baseline "
            f"{base_cfg} — ratios are not comparable")
        return failures, checked, []

    cur_ratios = current.get("ratios", {})
    base_ratios = baseline.get("ratios", {})
    # Delivery fractions are deterministic given the hashed schedule: no
    # tolerance. The achieved/offered rate carries machine speed: tolerance.
    gates = [("answered_fraction", 1e-9), ("ok_fraction", 1e-9),
             ("achieved_ratio", tolerance)]
    for name, tol in gates:
        base = base_ratios.get(name)
        if base is None:
            continue
        cur = cur_ratios.get(name)
        if cur is None:
            failures.append(f"ratios.{name}: missing from current run")
            continue
        checked += 1
        floor = base * (1.0 - tol)
        verdict = "ok" if cur >= floor else "REGRESSION"
        print(f"ratios.{name:20s} baseline {base:6.3f}  current {cur:6.3f}  "
              f"floor {floor:6.3f}  {verdict}")
        if cur < floor:
            failures.append(
                f"ratios.{name}: {cur:.3f} < floor {floor:.3f} "
                f"(baseline {base:.3f})")
    return failures, checked, []


def compare_artifacts(current, baseline, tolerance):
    """Returns (failures, checked, skipped)."""
    failures, checked = [], 0

    # Density gains are only comparable between identical workloads.
    cur_cfg, base_cfg = current.get("config", {}), baseline.get("config", {})
    if cur_cfg != base_cfg:
        failures.append(
            f"artifacts config mismatch: current {cur_cfg} vs baseline "
            f"{base_cfg} — density gains are not comparable")
        return failures, checked, []

    # Gain per tier is deterministic (the codec has no randomness): gate at
    # --tolerance. The cold-load headroom is a timing ratio: gate loosely.
    gates = [(f"gains.{tier}", tolerance)
             for tier in sorted(baseline.get("gains", {}))]
    gates.append(("cold_load.p99_headroom", max(tolerance, 0.6)))
    for name, tol in gates:
        obj, key = name.split(".", 1)
        base = baseline.get(obj, {}).get(key)
        if base is None:
            continue
        cur = current.get(obj, {}).get(key)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        checked += 1
        floor = base * (1.0 - tol)
        verdict = "ok" if cur >= floor else "REGRESSION"
        print(f"{name:24s} baseline {base:7.3f}  current {cur:7.3f}  "
              f"floor {floor:7.3f}  {verdict}")
        if cur < floor:
            failures.append(
                f"{name}: {cur:.3f} < floor {floor:.3f} "
                f"(baseline {base:.3f})")
    return failures, checked, []


def main():
    ap = argparse.ArgumentParser(allow_abbrev=False)
    ap.add_argument("--bench", help="benchmark binary to run with --json")
    ap.add_argument("--current", help="pre-recorded current-run JSON")
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--tolerance", type=float, default=0.15)
    ap.add_argument("--bench-args", default="",
                    help="extra args passed to the --bench binary")
    ap.add_argument("--update", action="store_true")
    args = ap.parse_args()
    if bool(args.bench) == bool(args.current):
        ap.error("exactly one of --bench / --current is required")

    current = (run_bench(args.bench, args.bench_args.split())
               if args.bench else load(args.current))
    schema = current["schema"]
    if args.update and schema == "clear-bench-kernels-v1":
        if not args.bench:
            sys.exit(f"error: a kernel baseline is the median of "
                     f"{BASELINE_SWEEPS} sweeps; record it with --bench")
        current = median_of_sweeps(
            [current] + [run_bench(args.bench, args.bench_args.split())
                         for _ in range(BASELINE_SWEEPS - 1)])

    if schema == "clear-bench-kernels-v1" and \
            not current.get("bit_identical", False):
        print("FAIL: kernel outputs are not bit-identical across ISAs")
        return 1

    if args.update:
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(current, f, indent=2)
            f.write("\n")
        print(f"baseline {args.baseline} updated")
        return 0

    baseline = load(args.baseline)
    if baseline["schema"] != schema:
        sys.exit(f"error: schema mismatch: current is {schema}, baseline "
                 f"is {baseline['schema']}")

    if schema == "clear-bench-kernels-v1":
        failures, checked, skipped = compare_kernels(
            current, baseline, args.tolerance)
    elif schema == "clear-bench-artifacts-v1":
        failures, checked, skipped = compare_artifacts(
            current, baseline, args.tolerance)
    else:
        failures, checked, skipped = compare_loadgen(
            current, baseline, args.tolerance)

    if skipped:
        print(f"skipped (ISA not runnable here): {', '.join(skipped)}")
    if checked == 0 and not failures:
        # A gate that silently checks nothing is worse than no gate.
        print("FAIL: no baseline entry was checkable on this host")
        return 1
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nPASS: {checked} ratio(s) within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
