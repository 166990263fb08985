"""One benchmark process: import the program, warm up, run timed passes.

Started by run.py.  It prints "ready" once set-up is done; with
--setup-only it exits there.  Otherwise it runs the workload through
`cutprec.cli.main` in this process, pass after pass, for --seconds, checks
every pass's output and writes worker.json (and trace.json when traced)
into --run-dir.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, PassCheck, check_cond, check_study

# the program is measured from the checkout's sources
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _call(main, argv):
    """Run the program's entry point with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def _check(workload, rc, stdout, tables) -> PassCheck:
    if rc != 0:
        n = workload.expected_ops()
        return PassCheck(n, n, 0, "", [f"exit code {rc}"])
    if workload.table is None:
        (tables / "cond.txt").write_text(stdout)
        return check_cond(workload, stdout)
    return check_study(workload, tables)


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    import cutprec
    if Path(cutprec.__file__).resolve().parent != ROOT / "src" / "cutprec":
        print(f"cutprec imported from {cutprec.__file__}, not from the "
              "checkout being measured", file=sys.stderr)
        return 1
    from cutprec.cli import main as cutprec_main
    # a traced run reports no set-up time, so it warms up with a full pass:
    # its tracing overhead then compares warm passes only
    warmup = args.run_dir / "warmup"
    rc, _ = _call(cutprec_main, workload.argv(args.seed, warmup)
                  if args.trace else workload.warmup_argv(warmup))
    if rc != 0:
        print(f"warm-up run exited with {rc}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tables = args.run_dir / "tables"
    tables.mkdir(parents=True, exist_ok=True)
    argv = workload.argv(args.seed, tables)
    tracer = spans.Tracer(workload.name) if args.trace else None
    unmeasured = spans.install(tracer) if tracer else {}
    passes, layer_metrics = [], []
    first_snapshot = None
    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced passes; the untraced
        # ones are the baseline for the tracing overhead
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            rc, stdout = tracer.run_pass(len(passes), _call, cutprec_main,
                                         argv)
        else:
            rc, stdout = _call(cutprec_main, argv)
        wall = time.perf_counter() - t0
        check = _check(workload, rc, stdout, tables)
        if first_snapshot is None:
            first_snapshot = check.snapshot
        elif check.snapshot != first_snapshot and not check.failed:
            check.failed = check.attempted
            check.problems.append("output differs from the first pass")
        passes.append({"wall_s": wall, "traced": traced, "rc": rc,
                       "attempted": check.attempted, "failed": check.failed,
                       "pcg_iterations": check.pcg_iterations,
                       "problems": check.problems})
        if traced:
            mine = tracer.pass_spans(len(passes) - 1)
            layer_metrics.append(spans.pass_metrics(mine, unmeasured))
        elapsed = time.perf_counter() - start
        if tracer is not None and not layer_metrics:
            continue  # a traced run needs one traced pass
        if elapsed + wall > args.seconds:
            break

    record = {"passes": passes, "versions": _versions(),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF)
              .ru_maxrss / 1024.0}
    if tracer is not None:
        last = tracer.pass_spans(max(i for i, p in enumerate(passes)
                                     if p["traced"]))
        rows = {}
        for s, dt in zip(last, spans.self_times(last)):
            row = rows.setdefault(str(s["row"]), {})
            row[s["name"]] = row.get(s["name"], 0.0) + dt
        record.update({"layers": spans.median_metrics(layer_metrics),
                       "unmeasured": {k: v for k, v in unmeasured.items()
                                      if v},
                       "rows_last_pass": rows})
        (args.run_dir / "trace.json").write_text(
            json.dumps({"workload": workload.name, "seed": args.seed,
                        "spans": tracer.spans}) + "\n")
    (args.run_dir / "worker.json").write_text(json.dumps(record, indent=1)
                                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
