#!/usr/bin/env python3
"""Asserts a candidate bench run is within a tolerance of a baseline run.

Usage:
  python3 tools/check_bench_delta.py \
      --baseline BASE1.json [BASE2.json ...] \
      --candidate CAND1.json [CAND2.json ...] \
      [--metric cycles_per_row] [--max-regress-pct 2.0] [--higher-is-better]
      [--labels bipie bipie_sql]

All files are BENCH_<name>.json documents written by bench_util.h. When a
side has several files (repeated runs of the same bench), each label's
best value across runs is used — best-of-N on both sides cancels the
scheduler/frequency noise that a single pair of runs cannot. Labels are
matched by name; for each label present on both sides the relative
regression of `--metric` is computed (lower is better by default, e.g.
cycles_per_row; pass --higher-is-better for throughput metrics like qps)
and the check fails if any label regresses by more than the threshold.

The perf-smoke CI job uses this to pin down the observability layer's
zero-cost claim: a default release build (trace sites compiled out) must
stay within 2% of the tracing build with tracing idle, on the scan-heavy
benches. Exits 0 on pass, 1 on regression, 2 on usage/parse errors.
"""
import argparse
import json
import sys


def load_results(paths: list, metric: str, higher_is_better: bool) -> dict:
    """Per-label best value of `metric` across the given run files."""
    best = max if higher_is_better else min
    out = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for entry in doc.get("results", []):
            label = entry.get("label")
            if label is None or metric not in entry:
                continue
            value = float(entry[metric])
            out[label] = value if label not in out else best(out[label], value)
    if not out:
        sys.exit(f"error: {paths} have no results with metric '{metric}'")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", nargs="+", required=True)
    parser.add_argument("--candidate", nargs="+", required=True)
    parser.add_argument("--metric", default="cycles_per_row")
    parser.add_argument("--max-regress-pct", type=float, default=2.0)
    parser.add_argument("--labels", nargs="+",
                        help="compare only these labels (e.g. the engine "
                             "labels of a query bench, not its baselines)")
    parser.add_argument("--higher-is-better", action="store_true",
                        help="metric is a throughput (e.g. qps): a drop "
                             "is the regression direction")
    args = parser.parse_args()

    base = load_results(args.baseline, args.metric, args.higher_is_better)
    cand = load_results(args.candidate, args.metric, args.higher_is_better)
    shared = sorted(set(base) & set(cand))
    if args.labels:
        shared = [label for label in shared if label in args.labels]
    if not shared:
        sys.exit("error: no shared labels between baseline and candidate")

    worst = None
    failed = False
    for label in shared:
        b, c = base[label], cand[label]
        # Normalized so a positive delta is always a regression: cost
        # metrics regress upward, throughput metrics regress downward.
        delta_pct = (c - b) / b * 100.0 if b > 0 else 0.0
        if args.higher_is_better:
            delta_pct = -delta_pct
        mark = ""
        if delta_pct > args.max_regress_pct:
            failed = True
            mark = "  << REGRESSION"
        if worst is None or delta_pct > worst[1]:
            worst = (label, delta_pct)
        print(f"{label:50s} {b:10.3f} -> {c:10.3f}  {delta_pct:+6.2f}%{mark}")

    print(f"\ncompared {len(shared)} label(s); worst: {worst[0]} "
          f"({worst[1]:+.2f}%), threshold {args.max_regress_pct:.2f}%")
    if failed:
        print("FAIL: candidate regresses past the threshold")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
