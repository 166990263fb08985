"""Run the listed workloads over several seeds and summarize.

    python3 perfbench/suite.py --seeds 0 --seconds 20
    python3 perfbench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10 --set parent

Runs run.py once per workload (those in BENCHMARK.json, or --workloads)
and seed, one after the other, and prints wall_s, setup_s, peak_rss_mb,
pcg_iterations and failed_ops for each run.  Then, per workload and
metric over the seeds: median, quartiles and the spread (q3 - q1) /
median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", default="latest")
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in SPEC["workloads"]])
    args = ap.parse_args(argv)
    values = {}
    status = 0
    print(f"{'workload':14s} {'seed':>4s} {'wall_s':>9s} {'setup_s':>8s} "
          f"{'peak_rss_mb':>11s} {'pcg_iterations':>14s} {'failed_ops':>10s}")
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace), "--set",
                   args.set]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload:14s} {seed:4d} run failed "
                      f"(exit code {proc.returncode})")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault((workload, name), []).append(m["value"])
            if args.trace:
                continue
            rec = json.loads((HERE / "runs" / args.set /
                              f"{workload}-seed{seed}-trace0" /
                              "result.json").read_text())
            its = max(p["pcg_iterations"] for p in rec["worker"]["passes"])
            m = result["metrics"]
            print(f"{workload:14s} {seed:4d} {m['wall_s']['value']:9.4f} "
                  f"{m['setup_s']['value']:8.4f} "
                  f"{m['peak_rss_mb']['value']:11.1f} "
                  f"{its if its else 'n/a':>14} "
                  f"{result['failed']:>4d}/{result['attempted']:<5d}")
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    print(f"\n{'workload':14s} {'metric':36s} {'q1':>10s} {'median':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for (workload, name), vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{workload:14s} {name:36s} {q1:10.4g} {med:10.4g} {q3:10.4g} "
              f"{spread:7.3f} {bound if bound is not None else '':>6}")
    return status


if __name__ == "__main__":
    sys.exit(main())
