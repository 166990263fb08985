"""Bytewise regression of the study tables at levels 0-1.

The CSVs under golden/ were written by `cutprec` before the study runners
were merged into one driver; any change to the numerics, the row order or
the formatting shows here.  The tables hold kappa to 4 and errors to 7
significant digits, far above the run-to-run noise of the BLAS.
"""

from pathlib import Path

import pytest

from cutprec.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (["interface-study", "--max-level", "1"], "interface_study"),
    (["fd-study", "--max-level", "1"], "fd_study"),
    (["delta-sweep", "--delta-level", "1", "--deltas", "0.0", "0.05"],
     "delta_sweep"),
])
def test_golden_tables(argv, name, tmp_path):
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / f"{name}.csv").read_bytes() == \
        (GOLDEN / f"{name}.csv").read_bytes()
