"""Summarize run records into one results file.

Usage (from the repository root):

    python3 perfbench/summarize.py OUT.json .perfbench_out/*.json

Each input is a record that run.py wrote.  Untraced runs give, per
workload and end-to-end metric, the value of every run, the median, the
quartiles and their spread as a share of the median (the statistic the
benchmark's bounds apply to).  The wall_s samples of every round are
also pooled for the tail percentile.  Traced runs give the per-layer
medians over runs.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import tail_percentile


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"values": values, "median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0}


def summarize(records: list[dict]) -> dict:
    out = {"env": records[0]["env"], "untraced": {}, "traced": {}}
    for rec in records:
        key = "traced" if rec["trace"] else "untraced"
        out[key].setdefault(rec["workload"], []).append(rec)
    for workload, recs in out["untraced"].items():
        walls = [w for r in recs for w in r["wall_s"]["samples"]]
        out["untraced"][workload] = {
            "runs": len(recs),
            "seeds": [r["seed"] for r in recs],
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "metrics": {name: spread([r["metrics"][name]["value"] for r in recs])
                        for name in recs[0]["metrics"]},
            "wall_s_rounds": {"samples": len(walls), "median": statistics.median(walls),
                              "tail": tail_percentile(walls)},
        }
    for workload, recs in out["traced"].items():
        out["traced"][workload] = {
            "runs": len(recs),
            "metrics": {name: statistics.median(r["metrics"][name]["value"] for r in recs)
                        for name in recs[0]["metrics"]},
        }
    return out


def main(argv: list[str]) -> None:
    records = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(summarize(records), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
