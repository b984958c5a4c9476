#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric.

    python3 perfbench/measure.py --runs 10 [--traced-runs 3] \
        [--workloads tpch_q1,tpch_q6,dashboard_mix] [--seconds 20] \
        [--out perfbench/trajectory/X.json]

For every workload it runs `run.py` once per seed (seeds 1 .. runs,
untraced) and reports each end-to-end metric's median,
first and third quartile (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, flagging spreads above a third of the metric's bound in
BENCHMARK.json. --traced-runs adds traced runs whose per-layer medians are
recorded too. Each untraced run's host CPU steal share is printed and
recorded, so a host busy period can be told apart from a change in the
program. With --out the summary is written as one trajectory point.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    header = next((l for l in lines if l.startswith("perfbench ")), "")
    steal = next((l.rsplit(" ", 1)[1].rstrip("%") for l in lines
                  if l.startswith("host cpu steal")), "nan")
    if p.returncode != 0 or not result or not result.get("correct"):
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {p.returncode})")
    return result, header, float(steal)


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0], None, values[0])
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values),
            "values": values}


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=0)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    point = {"label": git_sha(),
             "date": datetime.datetime.now(datetime.timezone.utc)
             .strftime("%Y-%m-%dT%H:%M:%SZ"),
             "machine": platform.machine(), "nproc": os.cpu_count(),
             "run_seconds": args.seconds, "workloads": {}}
    steady = True
    for w in args.workloads.split(","):
        seeds = list(range(1, args.runs + 1))
        e2e, layers, header, steal = {}, {}, "", []
        for seed in seeds:
            result, header, steal_pct = run_once(w, seed, args.seconds, 0)
            steal.append(steal_pct)
            for k, v in result["metrics"].items():
                e2e.setdefault(k, []).append(v["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f", host steal {steal_pct:.2f}%", flush=True)
        for seed in seeds[:args.traced_runs]:
            result, _, _ = run_once(w, seed, args.seconds, 1)
            for k, v in result["metrics"].items():
                layers.setdefault(k, []).append(v["value"])
        isa = next((t.split("=", 1)[1] for t in header.split()
                    if t.startswith("isa=")), "unknown")
        entry = {"isa": isa, "seeds": seeds, "host_steal_pct": steal,
                 "end_to_end": {}, "per_layer": {}}
        for k, vals in e2e.items():
            s = summarize(vals)
            s["unit"] = units.get(k, "")
            entry["end_to_end"][k] = s
            limit = bounds.get(k, 0) / 3
            flag = "" if s["spread"] <= limit else \
                "  <-- above a third of the bound"
            if flag:
                steady = False
            print(f"  {k:26s} median={s['median']:.5g} q1={s['q1']:.5g} "
                  f"q3={s['q3']:.5g} spread={s['spread']:.4f} "
                  f"(bound/3={limit:.4f}){flag}", flush=True)
        for k, vals in layers.items():
            s = summarize(vals)
            s["unit"] = units.get(k, "")
            entry["per_layer"][k] = s
        point["workloads"][w] = entry
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(point, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
