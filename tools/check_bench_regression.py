#!/usr/bin/env python3
"""Perf-regression gate over bench_perf_micro output.

Converts a google-benchmark JSON report into the repo's machine-readable
perf baseline (``BENCH_perf.json``, schema ``smtbal.bench.perf/1``:
per-bench items/sec) and/or diffs a fresh report against a committed
baseline, failing on >tolerance throughput regression.

Typical flows (see EXPERIMENTS.md "Perf gate"):

  # gate (CI and local):
  build/bench/bench_perf_micro --benchmark_format=json \
      --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
      > /tmp/bench_raw.json
  tools/check_bench_regression.py /tmp/bench_raw.json \
      --baseline BENCH_perf.json --tolerance 0.10 \
      --calibrate BM_CacheAccess,BM_StreamGen,BM_SamplerMemoisedLookup \
      --emit BENCH_perf.fresh.json

  # refresh the committed baseline after an intentional perf change:
  tools/check_bench_regression.py /tmp/bench_raw.json --emit BENCH_perf.json

Only benchmarks that report ``items_per_second`` participate (the gate's
unit is work per second, not wall time). With ``--calibrate A,B,C``
every fresh row is divided by the median of the listed rows'
fresh/baseline throughput ratios before it is compared, which cancels
machine speed to first order: raw items/sec on a shared CI runner can
legitimately drift far more than any useful tolerance, while the ratio
between benches in the same process is far more stable. With one name
this is the classic ratio-to-a-calibration-bench. The median of several
keeps one calibration row that moved with code layout alone (a hot loop
landing on a different alignment) from shifting every other row; CI
lists three benches that code outside the cycle model rarely touches.
A calibration row is gated like any other: it fails when it moves
beyond the tolerance against the median of the list. The baseline
stores raw items/sec either way, so the committed file doubles as the
absolute perf trajectory.
"""

import argparse
import json
import statistics
import sys

SCHEMA = "smtbal.bench.perf/1"
# Median over repetitions: robust to a single noisy run, deterministic
# given the report (mean is dragged by one descheduled repetition).
PREFERRED_AGGREGATE = "median"


def load_throughputs(path):
    """name -> items/sec from a google-benchmark JSON report.

    Prefers the median aggregate when repetitions were run; falls back to
    plain iteration entries. Benches without items_per_second are skipped.
    """
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    benches = report.get("benchmarks")
    if benches is None:
        raise SystemExit(f"{path}: not a google-benchmark JSON report")
    iterations = {}
    aggregates = {}
    for entry in benches:
        ips = entry.get("items_per_second")
        if ips is None:
            continue
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == PREFERRED_AGGREGATE:
                base = entry["name"]
                suffix = "_" + PREFERRED_AGGREGATE
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
                aggregates[base] = ips
        else:
            iterations[entry["name"]] = ips
    return aggregates or iterations


def load_baseline(path):
    with open(path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: expected schema {SCHEMA!r}, "
                         f"got {baseline.get('schema')!r}")
    return baseline["items_per_second"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="google-benchmark JSON report")
    parser.add_argument("--baseline",
                        help=f"committed {SCHEMA} baseline to gate against")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    parser.add_argument("--calibrate", metavar="NAME[,NAME...]",
                        help="scale fresh rows by the median fresh/baseline "
                             "ratio of these benches (cancels machine speed "
                             "across runners)")
    parser.add_argument("--emit", metavar="PATH",
                        help=f"write the report as a {SCHEMA} file")
    args = parser.parse_args()

    fresh = load_throughputs(args.report)
    if not fresh:
        raise SystemExit(f"{args.report}: no benchmarks report items_per_second")

    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA,
                       "tolerance": args.tolerance,
                       "calibrate": args.calibrate,
                       "items_per_second":
                           {k: fresh[k] for k in sorted(fresh)}},
                      fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.emit} ({len(fresh)} benches)")

    if not args.baseline:
        return

    baseline = load_baseline(args.baseline)

    calibrate = args.calibrate.split(",") if args.calibrate else []
    missing = [n for n in calibrate if n not in fresh or n not in baseline]
    if missing:
        raise SystemExit(f"calibration bench(es) {', '.join(missing)} "
                         "missing from one of the reports")
    scale = (statistics.median(fresh[n] / baseline[n] for n in calibrate)
             if calibrate else 1.0)

    regressions = []
    width = max((len(n) for n in baseline), default=0)
    unit = (f"items/sec scaled by {scale:.4g}, the median fresh/baseline "
            f"ratio of {args.calibrate}" if calibrate else "items/sec")
    print(f"perf gate: tolerance {args.tolerance:.0%}, comparing {unit}")
    for name in sorted(baseline):
        if name not in fresh:
            regressions.append(f"{name}: missing from fresh report")
            continue
        was, now = baseline[name], fresh[name] / scale
        delta = now / was - 1.0
        flag = ""
        if delta < -args.tolerance:
            flag = "  REGRESSION"
            regressions.append(f"{name}: {delta:+.1%} ({was:.4g} -> {now:.4g})")
        print(f"  {name:<{width}}  {was:>12.4g} -> {now:>12.4g}  "
              f"{delta:+7.1%}{flag}")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  {name:<{width}}  (new bench, not in baseline)")

    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s) beyond "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        sys.exit(1)
    print("PASS: no regression beyond tolerance")


if __name__ == "__main__":
    main()
