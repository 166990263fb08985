"""Compare two result sets written by run.py.

    python3 perfbench/compare.py perfbench/runs/parent perfbench/runs/change

For every workload and metric: run count, median and quartiles of each set
and the change of the medians.  For every workload and seed run in both
sets: the largest relative difference between the tables the program
wrote (CSV cells, or the κ lines of `cond`), against the 1e-8 rule for a
change that must not move the numerics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import statistics
import sys
from pathlib import Path

TABLE_RTOL = 1e-8
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def load_set(path: Path) -> dict:
    """{(workload, trace): {seed: result.json contents}}"""
    runs = {}
    for f in sorted(path.glob("*/result.json")):
        rec = json.loads(f.read_text())
        rec["dir"] = f.parent
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _cells(run_dir: Path) -> dict:
    """Every value of the run's tables, keyed by file, row and column."""
    out = {}
    tables = run_dir / "tables"
    for f in sorted(tables.glob("*.csv")):
        for i, row in enumerate(csv.DictReader(f.read_text().splitlines())):
            for col, val in row.items():
                out[(f.name, i, col)] = val
    cond = tables / "cond.txt"
    if cond.exists():
        for i, line in enumerate(cond.read_text().splitlines()):
            for j, val in enumerate(_NUMBER.findall(line.split("=", 1)[-1])):
                out[("cond.txt", i, j)] = val
    return out


def table_difference(dir_a: Path, dir_b: Path):
    """Largest relative difference between two runs' tables, and where."""
    a, b = _cells(dir_a), _cells(dir_b)
    if a.keys() != b.keys():
        return math.inf, "different table shapes"
    worst, where = 0.0, None
    for key, va in a.items():
        vb = b[key]
        try:
            d = _rel(float(va), float(vb))
        except ValueError:
            d = 0.0 if va == vb else math.inf
        if d > worst:
            worst, where = d, key
    return worst, where


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("set_a", type=Path)
    ap.add_argument("set_b", type=Path)
    args = ap.parse_args(argv)
    a, b = load_set(args.set_a), load_set(args.set_b)
    if not a or not b:
        print("no runs found in one of the sets", file=sys.stderr)
        return 1
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        ra, rb = a.get(key, {}), b.get(key, {})
        print(f"\n## {workload} (trace {trace}): {len(ra)} vs {len(rb)} runs")
        failed = [sum(r["result"]["failed"] for r in runs.values())
                  for runs in (ra, rb)]
        print(f"failed_ops: {failed[0]} vs {failed[1]}")
        names = {}
        for runs in (ra, rb):
            for r in runs.values():
                for m, v in r["result"]["metrics"].items():
                    names.setdefault(m, v["unit"])
        print(f"{'metric':36s} {'unit':5s} {'A q1/median/q3':>32s} "
              f"{'B q1/median/q3':>32s} {'B/A-1':>8s}")
        for m, unit in names.items():
            cols = []
            meds = []
            for runs in (ra, rb):
                vals = [r["result"]["metrics"][m]["value"]
                        for r in runs.values() if m in r["result"]["metrics"]]
                if vals:
                    q1, q2, q3 = _quartiles(vals)
                    cols.append(f"{q1:10.4g} {q2:10.4g} {q3:10.4g}")
                    meds.append(q2)
                else:
                    cols.append(f"{'unmeasured' if runs else '-':>32s}")
            change = f"{meds[1] / meds[0] - 1:+8.3f}" \
                if len(meds) == 2 and meds[0] else f"{'':>8s}"
            print(f"{m:36s} {unit:5s} {cols[0]:>32s} {cols[1]:>32s} {change}")
        for seed in sorted(set(ra) & set(rb)):
            diff, where = table_difference(ra[seed]["dir"], rb[seed]["dir"])
            verdict = "ok" if diff <= TABLE_RTOL else "DIFFERS"
            print(f"tables seed {seed}: max relative difference {diff:.3g} "
                  f"({verdict}, rule {TABLE_RTOL:g})"
                  + (f" at {where}" if where else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
