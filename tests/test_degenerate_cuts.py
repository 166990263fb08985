"""Robustness of the split-basis conditioning to the interface position:
degenerate cuts, and sphere centres sampled at random.

The sphere is moved so that one interior vertex lies eps * h inside or
outside it, for eps down to 1e-9; the smallest cut fractions then fall far
below anything the smooth interface shifts of the studies produce.  The
block-diagonal preconditioned condition number must stay within the factor
1.5 that acceptance criterion 6 allows over the paper-centre value, and
kappa(Ahat) within a fixed factor of its paper-centre value; the latter is
what detects a missing ghost penalty, which kappa(DA^-1 Ahat) alone does
not.  Level 1 takes the full eps range and level 2 the most degenerate
placement on each side; every estimate is a converged Lanczos run.

The paper's splitting is stable uniformly in the interface position, so
the worst kappa(DA^-1 Ahat) over centres drawn from [0, h]^3 may not grow
under refinement by more than criterion 6's factor 1.5.  The centres are
fixed by the seed, drawn for level 1 and then for level 2 from one
generator, and were not chosen to pass.
"""

from dataclasses import replace

import numpy as np
import pytest

from cutprec import experiments
from cutprec.experiments import (ExperimentConfig, build_system,
                                 spectral_pencils)
from cutprec.mesh import MeshHierarchy
from cutprec.solver import KIND_BLOCK_MG_SGS, make_preconditioner, pcg
from cutprec.space import FICTITIOUS, INTERFACE

DA_FACTOR = 1.5  # acceptance criterion 6's spread of kappa(DA^-1 Ahat)
AHAT_FACTOR = 2.0
EPSILONS = {1: (1e-1, 1e-3, 1e-5, 1e-7, 1e-9), 2: (1e-9,)}
POSITION_SEED = 12345
SAMPLED_CENTRES = {1: 20, 2: 6}  # per level, drawn in this order


def kappas(config, level):
    """kappa(Ahat) and kappa(DA^-1 Ahat) of the system cut by the sphere
    around config.x0, as the estimates of the studies at this level."""
    pencils = spectral_pencils(build_system(config, level))
    return pencils["kappa2(Ahat)"](), pencils["kappa(DA^-1 Ahat)"]()


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


def sampled_position(hierarchy, problem, x0):
    """kappa(DA^-1 Ahat) from the splitting constant, and the BlockMGSGS
    iteration count of the study solve, with the sphere centred at x0 on
    the finest mesh of the hierarchy."""
    config = ExperimentConfig(problem=problem, x0=tuple(x0))
    tsys = experiments._assemble(hierarchy.finest, config.x0, config)[2]
    est = spectral_pencils(tsys)["kappa(DA^-1 Ahat)"]()
    P = make_preconditioner(KIND_BLOCK_MG_SGS, tsys, hierarchy=hierarchy)
    _, rep = pcg(tsys.Ahat, tsys.bhat, P, tol=config.tol,
                 max_iter=config.max_iter)
    return est, rep.iterations


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_sampled_positions_keep_splitting_stable(problem):
    rng = np.random.default_rng(POSITION_SEED)
    hierarchy = MeshHierarchy.build(max(SAMPLED_CENTRES))
    worst, spread, failures = {}, {}, []
    for level, count in SAMPLED_CENTRES.items():
        sub = hierarchy.truncated(level)
        kappas, iterations = [], []
        for x0 in rng.uniform(0.0, sub.finest.h, size=(count, 3)):
            est, its = sampled_position(sub, problem, x0)
            if not est.converged:
                failures.append(f"level {level}, centre {tuple(x0)}: "
                                "Lanczos not converged")
            kappas.append(est.kappa)
            iterations.append(its)
        worst[level] = max(kappas)
        spread[level] = (min(iterations), max(iterations))
    growth = worst[2] / worst[1]
    print(f"{problem}: worst kappa(DA^-1 Ahat) "
          + ", ".join(f"level {lvl} {k:.2f}" for lvl, k in worst.items())
          + f", growth {growth:.2f} (limit {DA_FACTOR}); BlockMGSGS "
          "iterations " + ", ".join(f"level {lvl} {lo}..{hi}"
                                    for lvl, (lo, hi) in spread.items()))
    if growth > DA_FACTOR:
        failures.append(f"worst kappa(DA^-1 Ahat) grew {growth:.2f}x from "
                        f"level 1 to 2, above {DA_FACTOR}")
    assert not failures, f"{problem}: " + "; ".join(failures)
