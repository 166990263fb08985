"""Benchmark entry point for cutprec.

    python3 perfbench/run.py --workload interface-l2 --seed 0 --seconds 60 \
        --trace 0

Runs one workload (see workloads.py) through `cutprec.cli.main` in a worker
process, for --seconds of passes, and checks every pass's output.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones (wall_s,
setup_s, peak_rss_mb); with --trace 1 they are per-layer self times and
counts from spans around each layer's entry points (spans.py).

Set-up is timed in fresh interpreters: from process start until the worker
has imported the program and finished a level-0 warm-up run.  The reported
setup_s is the median of several.

Every run writes its tables, the worker's record and (traced) its spans
under perfbench/runs/<set>/<workload>-seed<seed>-trace<t>/; compare.py
reports on two such sets.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 3  # fresh interpreters timed per untraced run
BLAS_THREADS = 1  # fixed for all workers; at most nproc
LOADED_SHARE = 0.75  # 1-minute load above this share of nproc flags a run
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def layer_unit(metric: str) -> str:
    if metric.startswith("solver.ms_per_iteration."):
        return "ms"
    if metric == "solver.cond_converged":
        return "ratio"
    return "s" if metric.split(".")[1].endswith("_s") else "count"


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine() -> dict:
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {"nproc": nproc, "load_before": load,
            "loaded": load[0] > LOADED_SHARE * nproc,
            "blas_threads": BLAS_THREADS, "commit": _commit()}


class Workers:
    """Worker processes of one run; each is stopped and reaped on exit."""

    def __init__(self, base_cmd, env, limit):
        self.base_cmd = base_cmd
        self.env = env
        self.limit = limit
        self.deadline = time.monotonic() + limit
        self.procs = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {self.limit} s")
        return left

    def start(self, setup_only: bool) -> tuple:
        """Start a worker and wait until it is ready; returns (process,
        set-up seconds)."""
        cmd = self.base_cmd + (["--setup-only"] if setup_only else [])
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, env=self.env, text=True)
        self.procs.append(p)
        with selectors.DefaultSelector() as sel:
            sel.register(p.stdout, selectors.EVENT_READ)
            if not sel.select(self._remaining()):
                raise BenchError("worker set-up timed out")
        line = p.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            p.wait(timeout=self._remaining())
            raise BenchError(f"worker failed during set-up "
                             f"(exit code {p.returncode})")
        return p, setup

    def finish(self, p):
        try:
            rc = p.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {self.limit} s") from None
        if rc != 0:
            raise BenchError(f"worker exited with code {rc}")


def _high_percentile(values):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[p - 1]
            return p, cut
    return None


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    run_dir = HERE / "runs" / args.set / \
        f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    machine = _machine()
    if machine["loaded"]:
        print(f"warning: machine loaded at start (1-minute load "
              f"{machine['load_before'][0]:.2f} on {machine['nproc']} cores)",
              file=sys.stderr)
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           workload.name, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--run-dir",
           str(run_dir)]
    n_setup = SETUP_RUNS if args.trace == 0 else 1
    setups = []
    with Workers(cmd, env, args.time_limit) as workers:
        for i in range(n_setup):
            p, setup = workers.start(setup_only=i < n_setup - 1)
            setups.append(setup)
            workers.finish(p)
    machine["load_after"] = os.getloadavg()
    record = json.loads((run_dir / "worker.json").read_text())
    passes = record["passes"]
    timed = [p["wall_s"] for p in passes if p["traced"] == bool(args.trace)]
    if args.trace:
        metrics = dict(record["layers"])
        base = [p["wall_s"] for p in passes if not p["traced"]]
        metrics["trace.overhead_s"] = statistics.median(timed) \
            - statistics.median(base)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {"wall_s": statistics.median(timed),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": record["peak_rss_mb"]}
        units = END_TO_END_UNITS
    result = {"correct": all(p["failed"] == 0 for p in passes),
              "attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    full = {"workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "program_argv": workload.argv(args.seed, "<tables>"),
            "machine": machine, "versions": record["versions"],
            "setup_s_samples": setups, "worker": record, "result": result}
    (run_dir / "result.json").write_text(json.dumps(full, indent=1) + "\n")
    _report(full, timed, run_dir)
    return result


def _report(full, timed, run_dir):
    res, worker = full["result"], full["worker"]
    m, v = full["machine"], full["versions"]
    print(f"# {full['workload']} seed {full['seed']}: cutprec "
          + " ".join(full["program_argv"]))
    print(f"# machine: nproc {m['nproc']}, load {m['load_before'][0]:.2f} -> "
          f"{m['load_after'][0]:.2f}{' (LOADED)' if m['loaded'] else ''}, "
          f"BLAS threads {m['blas_threads']} ({v['blas']}), python "
          f"{v['python']}, numpy {v['numpy']}, scipy {v['scipy']}, commit "
          f"{m['commit'] or 'unknown'}")
    for p in worker["passes"]:
        for problem in p["problems"]:
            print(f"# check failed: {problem}")
    cond = run_dir / "tables" / "cond.txt"
    if cond.exists():  # the κ lines, criterion 6's κ(D1^-1 A1) among them
        for line in cond.read_text().splitlines():
            print(f"# {line}")
    if full["trace"]:
        for layer, names in worker["unmeasured"].items():
            print(f"# unmeasured entry points of {layer}: {', '.join(names)}")
        for key, val in res["metrics"].items():
            print(f"{key:34s} {val['value']:12.6g} {val['unit']}")
        for row, names in worker["rows_last_pass"].items():
            print(f"# row {row} self times (s): " + ", ".join(
                f"{k}={t:.3f}" for k, t in sorted(names.items())))
        return
    tail = _high_percentile(timed)
    print(f"wall_s         {statistics.median(timed):10.4f} s      median of "
          f"{len(timed)} passes"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else
             " (no percentile has ten passes beyond it)"))
    print(f"setup_s        {res['metrics']['setup_s']['value']:10.4f} s      "
          f"median of {len(full['setup_s_samples'])} fresh interpreters")
    print(f"peak_rss_mb    {res['metrics']['peak_rss_mb']['value']:10.1f} MB")
    its = {p["pcg_iterations"] for p in worker["passes"]}
    print("pcg_iterations " + (f"{max(its):10d} count  it_* columns summed "
                               "over the table" if max(its) else
                               "       n/a        no PCG in this command"))
    print(f"failed_ops     {res['failed']:10d} count  of {res['attempted']} "
          "attempted (rows or kappa lines)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; at least one pass always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--time-limit", type=float, default=170,
                    help="seconds the whole run may take, set-ups included")
    ap.add_argument("--set", default="latest",
                    help="result set the run is filed under (runs/<set>/)")
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
