#!/usr/bin/env python3
"""Compares two sets of nsbench result files, metric by metric.

    python3 nsbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Result files are the ones `nsbench/run.py` writes under
`.bench_work/results/`. Both sets must come from one workload and one trace
mode, and every file must carry the same host fields: results from
different hosts, CPU sets or compilers are refused (exit 2), because a
comparison across them is not evidence. For each metric the table shows
both medians, the base set's quartile spread, and the change; an
end-to-end metric worse than its BENCHMARK.json bound is flagged, and a
metric whose base spread exceeds its bound is reported as unresolved.
Exact counts (units `count` and `bytes`) must be identical.
"""

import argparse
import json
import os
import statistics
import sys

HOST_FIELDS = ("nproc", "measured_cpus", "cpu_model", "rustc")
COUNT_UNITS = ("count", "bytes")


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def refuse(msg):
    print(f"compare: refused: {msg}", file=sys.stderr)
    sys.exit(2)


def spread(values):
    """Quartile distance over the median, as the acceptance rule takes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)
    everything = base + new

    for field in HOST_FIELDS:
        values = {json.dumps(r["host"].get(field)) for r in everything}
        if len(values) > 1:
            refuse(f"host field {field!r} differs: {sorted(values)}")
    for field in ("workload", "trace"):
        values = {r[field] for r in everything}
        if len(values) > 1:
            refuse(f"{field} differs: {sorted(values)}")
    if not all(r["correct"] for r in everything):
        refuse("a result is not correct; fix it before comparing timings")

    bounds = {}
    if os.path.exists(args.benchmark):
        with open(args.benchmark) as f:
            spec = json.load(f)
        bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    regressions = 0
    print(f"{'metric':52} {'base':>12} {'new':>12} {'change':>8} {'spread':>7}  verdict")
    for name in sorted(base[0]["metrics"]):
        unit = base[0]["metrics"][name]["unit"]
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not n:
            print(f"{name:52} missing from the new results")
            regressions += 1
            continue
        bm, nm = statistics.median(b), statistics.median(n)
        change = (nm - bm) / abs(bm) if bm else 0.0
        meta = bounds.get(name, {})
        worse = change if meta.get("better", "lower") == "lower" else -change
        verdict = ""
        if unit in COUNT_UNITS:
            verdict = "exact" if set(b) == set(n) and len(set(b)) == 1 else "COUNT CHANGED"
        elif "bound" in meta:
            if spread(b) > meta["bound"]:
                verdict = "unresolved"
            elif worse > meta["bound"]:
                verdict = "REGRESSED"
                regressions += 1
            else:
                verdict = "within bound"
        print(f"{name:52} {bm:>12.6g} {nm:>12.6g} {change:>+8.1%} {spread(b):>7.1%}  {verdict}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
