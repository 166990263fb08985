"""Robustness of the split-basis conditioning to degenerate cuts.

The sphere is moved so that one interior vertex lies eps * h inside or
outside it, for eps down to 1e-9; the smallest cut fractions then fall far
below anything the smooth interface shifts of the studies produce.  The
block-diagonal preconditioned condition number must stay within the factor
1.5 that acceptance criterion 6 allows over the paper-centre value, and
kappa(Ahat) within a fixed factor of its paper-centre value; the latter is
what detects a missing ghost penalty, which kappa(DA^-1 Ahat) alone does
not.  Level 1 takes the full eps range and level 2 the most degenerate
placement on each side; every estimate is a converged Lanczos run.
"""

from dataclasses import replace

import numpy as np
import pytest

from cutprec.experiments import (ExperimentConfig, build_system,
                                 spectral_pencils)
from cutprec.mesh import MeshHierarchy
from cutprec.solver import estimate_condition

DA_FACTOR = 1.5  # acceptance criterion 6's spread of kappa(DA^-1 Ahat)
AHAT_FACTOR = 2.0
EPSILONS = {1: (1e-1, 1e-3, 1e-5, 1e-7, 1e-9), 2: (1e-9,)}


def kappas(config, level):
    """kappa(Ahat) and kappa(DA^-1 Ahat) of the system cut by the sphere
    around config.x0, as the estimates of the studies at this level."""
    pencils = dict(spectral_pencils(build_system(config, level)))
    return (estimate_condition(*pencils["kappa2(Ahat)"]),
            estimate_condition(*pencils["kappa(DA^-1 Ahat)"]))


def placements(level, x0):
    """Sphere centres putting the interior vertex closest to the unit
    sphere around x0 at signed distance s * eps * h from it."""
    mesh = MeshHierarchy.build(level).finest
    inner = np.flatnonzero(~mesh.boundary_vertex_flags)
    dist = np.linalg.norm(mesh.vertices[inner] - x0, axis=1)
    v = inner[np.argmin(np.abs(dist - 1.0))]
    x = mesh.vertices[v]
    u = (x - x0) / np.linalg.norm(x - x0)
    for eps in EPSILONS[level]:
        for sign, where in ((-1, "inside"), (1, "outside")):
            centre = x - (1.0 + sign * eps * mesh.h) * u
            yield f"vertex {v} {eps:g} h {where}", tuple(centre)


@pytest.mark.parametrize("level", sorted(EPSILONS))
def test_degenerate_cuts_keep_conditioning(level):
    config = ExperimentConfig()
    ref_ahat, ref_da = kappas(config, level)
    assert ref_ahat.converged and ref_da.converged, \
        f"level {level}: Lanczos not converged at the paper centre"
    failures = []
    for name, centre in placements(level, np.asarray(config.x0)):
        try:
            ahat, da = kappas(replace(config, x0=centre), level)
        except (RuntimeError, ValueError) as exc:
            failures.append(f"{name}: {exc}")
            continue
        if not (ahat.converged and da.converged):
            failures.append(f"{name}: Lanczos not converged")
        if da.kappa > DA_FACTOR * ref_da.kappa:
            failures.append(f"{name}: kappa(DA^-1 Ahat) {da.kappa:.4g} > "
                            f"{DA_FACTOR} x {ref_da.kappa:.4g}")
        if ahat.kappa > AHAT_FACTOR * ref_ahat.kappa:
            failures.append(f"{name}: kappa(Ahat) {ahat.kappa:.4g} > "
                            f"{AHAT_FACTOR} x {ref_ahat.kappa:.4g}")
    assert not failures, f"level {level}: " + "; ".join(failures)
