"""Bytewise regression of the study tables at levels 0-2 and of the
level-2 `cond` output.

The CSVs under golden/ were written by `cutprec` before the study runners
were merged into one driver; any change to the numerics, the row order or
the formatting shows here.  The level-2 rows of interface_study.csv and
fd_study.csv, the level the benchmark runs, were added later by the code
before the per-side volume quadrature, which left rows 0-1 byte-equal.  The tables hold kappa to 4 and errors to 7
significant digits, far above the run-to-run noise of the BLAS.

cond_l2.txt is the stdout of `cutprec cond --level 2` from SuperLU exact
solves, before the banded Cholesky; since then its header lost the
estimator's `method=` field, and its D_A line took the splitting constant
`gamma=` and the step count of the Lanczos run on the strip space, with
the same kappa and eigenvalue range.  Its D1 line took the step count of
the run on S A1 S, S = D1^-1/2, in place of the pencil (A1, D1): the
Lanczos start differs, the kappa and range print the same.  cond_fd_l2.txt
is the same output for the fictitious-domain problem, written before the
pencils brought their own B-solves and changed in its D_A line alike; its
D1 line kept even its step count.  They reach the Lanczos
runs and their step counts, which no study table at levels 0-1 does.  The BLAS thread count moves kappa in
the 13th digit, enough to move a step count, so `cond` runs in a child
process with one BLAS thread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cutprec
from cutprec.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (["interface-study", "--max-level", "2"], "interface_study"),
    (["fd-study", "--max-level", "2"], "fd_study"),
    (["delta-sweep", "--delta-level", "1", "--deltas", "0.0", "0.05"],
     "delta_sweep"),
])
def test_golden_tables(argv, name, tmp_path):
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / f"{name}.csv").read_bytes() == \
        (GOLDEN / f"{name}.csv").read_bytes()


def cond_stdout(*args):
    """Stdout of `cutprec cond --level 2 *args` with one BLAS thread."""
    src = str(Path(cutprec.__file__).parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "cutprec.cli", "cond",
                           "--level", "2", *args],
                          env=env, capture_output=True, check=True).stdout


def test_golden_cond_output():
    assert cond_stdout() == (GOLDEN / "cond_l2.txt").read_bytes()


def test_golden_cond_fd_output(tmp_path):
    config = tmp_path / "fd.json"
    config.write_text(json.dumps({"problem": "fictitious"}))
    assert cond_stdout("--config", str(config)) == \
        (GOLDEN / "cond_fd_l2.txt").read_bytes()
