#!/usr/bin/env python3
"""Spread and medians of end-to-end metrics over benchmark records.

    python3 perfbench/summarize.py perfbench/out/*-trace0.json
    python3 perfbench/summarize.py --out perfbench/BENCH_baseline.json perfbench/out/*.json

For every workload and metric it prints the number of runs, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median, next to
the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(records, bounds):
    table, units = {}, {}
    for rec in records:
        for name, m in rec["metrics"].items():
            table.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for workload, metrics in sorted(table.items()):
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            out.setdefault(workload, {})[name] = {
                "unit": units[name], "runs": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0, "bound": bounds.get(name),
            }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="+", help="run records written by run.py")
    parser.add_argument("--out", help="also write the summary, with the machine fingerprint, as JSON")
    args = parser.parse_args(argv)
    records = []
    for path in args.records:
        with open(path) as fh:
            records.append(json.load(fh))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = summarize(records, bounds)
    for workload, metrics in summary.items():
        print(workload)
        for name, s in metrics.items():
            bound = "" if s["bound"] is None else f"  bound {s['bound']}" + ("" if s["spread"] < s["bound"] / 3 else "  WIDE")
            print(f"  {name:<24} runs {s['runs']:>2}  median {s['median']:<12.6g} q1 {s['q1']:<12.6g}"
                  f" q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{bound}")
    failed = sum(r["failed"] for r in records)
    print(f"checks failed: {failed} of {sum(r['attempted'] for r in records)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"fingerprint": records[0]["fingerprint"], "seeds": sorted({r["seed"] for r in records}),
                       "seconds": records[0]["seconds"], "summary": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
