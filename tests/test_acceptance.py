"""End-to-end acceptance gate.

Each test covers one acceptance target at its stated tolerance and prints a
single pass/fail line with the measured quantities.  The three study
fixtures below are the complete level-0..3 runs.  Study rows keep no
matrices, so criteria 6 and 7 assemble the systems they need with
build_system, one at a time (no PCG; criterion 7 also assembles the
side-block matrix itself), and the whole module runs in a few minutes.
"""

from dataclasses import replace

import numpy as np
import pytest

from cutprec.experiments import (ExperimentConfig, build_system,
                                 interface_solution, run_study,
                                 spectral_pencils)
from cutprec.geometry import SphereLevelSet, build_cut_info
from cutprec.mesh import MeshHierarchy
from cutprec.space import FICTITIOUS, build_dof_layout
from cutprec.assembly import ProblemCoefficients, assemble_interface

PAPER_DIMS = [(27, 27), (343, 208), (3375, 844), (29791, 3373)]
PAPER_KAPPA = [8.77e1, 9.79e2, 1.28e3, 2.33e3]
PAPER_ITERATIONS = {"BlockExact": [14, 22, 23, 25],
                    "BlockDiagSGS": [17, 24, 26, 26],
                    "BlockMGSGS": [17, 24, 26, 26]}
BLOCK_KINDS = tuple(PAPER_ITERATIONS)


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def interface_study():
    return run_study(ExperimentConfig(max_level=3))


@pytest.fixture(scope="module")
def delta_sweep():
    return run_study(ExperimentConfig(), deltas=True)


@pytest.fixture(scope="module")
def fd_study():
    return run_study(ExperimentConfig(problem=FICTITIOUS, max_level=3))


def test_criterion_1_interface_dimensions(interface_study):
    dims = [(r.N0, r.N1) for r in interface_study.rows]
    ok = all(n0 == p0 and abs(n1 - p1) <= 0.02 * p1
             for (n0, n1), (p0, p1) in zip(dims, PAPER_DIMS))
    report(1, ok, f"N0/N1 per level {dims}, reference {PAPER_DIMS}, "
           "N0 exact, N1 within 2%")


def orders(rows, name):
    err = [getattr(r.errors, name) for r in rows]
    return [float(np.log2(a / b)) for a, b in zip(err, err[1:])]


def test_criterion_2_convergence_orders(interface_study, fd_study):
    l2 = orders(interface_study.rows, "l2")[-1]
    h1s = orders(interface_study.rows, "h1_semi")[-1]
    h1f = orders(interface_study.rows, "h1_full")[-1]
    fd_l2 = orders(fd_study.rows, "l2")[-1]
    ok = (1.7 <= l2 <= 2.1 and
          (0.8 <= h1s <= 1.1 or 0.8 <= h1f <= 1.1) and
          1.9 <= fd_l2 <= 2.3)
    report(2, ok, f"interface level-3 orders: L2 {l2:.2f} in [1.7,2.1], "
           f"H1 {h1s:.2f} (semi) / {h1f:.2f} (full) in [0.8,1.1] either; "
           f"fd L2 {fd_l2:.2f} in [1.9,2.3]")


def test_criterion_3_conditioning(interface_study):
    kappa = [r.kappa2 for r in interface_study.rows]
    factors = [max(k / p, p / k) for k, p in zip(kappa, PAPER_KAPPA)]
    growth = kappa[3] / kappa[2]
    # an unconverged Lanczos estimate is only a lower bound on kappa2
    unconverged = [r.level for r in interface_study.rows
                   if not r.kappa2_converged]
    ok = max(factors) <= 2.0 and 1.0 <= growth <= 4.0 and not unconverged
    report(3, ok, "kappa2 " + str([f"{k:.3e}" for k in kappa]) +
           f", reference factors {[f'{f:.2f}' for f in factors]} <= 2, "
           f"growth l2->l3 {growth:.2f} in [1,4], unconverged levels "
           f"{unconverged or 'none'}")


def test_criterion_4_preconditioner_optimality(interface_study):
    its = {k: [r.iterations[k] for r in interface_study.rows]
           for k in interface_study.config.preconditioners}
    ok, parts = True, []
    for kind, ref in PAPER_ITERATIONS.items():
        col = its[kind]
        within = all(0.7 * p <= n <= 1.3 * p for n, p in zip(col, ref))
        ratio = max(col[1:]) / min(col[1:])
        ok &= within and ratio <= 1.3
        parts.append(f"{kind} {col} vs {ref} ratio {ratio:.2f}")
    sgs = its["SGS"]
    ok &= sgs[3] > sgs[2]
    parts.append(f"SGS {sgs} increasing l2->l3")
    report(4, ok, "; ".join(parts))


def test_criterion_5_delta_robustness(delta_sweep):
    ok, parts = True, []
    for kind in BLOCK_KINDS:
        col = [r.iterations[kind] for r in delta_sweep.rows]
        spread = max(col) - min(col)
        ok &= spread <= 2
        parts.append(f"{kind} {col} spread {spread}")
    report(5, ok, "; ".join(parts) + " (limit 2)")


def row_name(level, delta):
    return f"l{level} " + ("x0" if delta is None else f"d{delta:.2f}")


def growth_ratios(kappa):
    """The refinement steps criterion 6 bounds, as (name, ratio) pairs.

    kappa maps (level, delta) to a condition number, with delta None for the
    paper position x0.  Each ratio compares the same interface positions at
    two consecutive levels: x0 from level 1 to 2 and from 2 to 3, and the
    largest value over the delta sweep from level 1 to 2.  A uniform bound
    keeps every ratio near 1; a quantity growing like h^-2 gives about 4.
    """
    deltas = [d for lvl, d in kappa if lvl == 1 and d is not None]
    worst = {lvl: max(kappa[lvl, d] for d in deltas) for lvl in (1, 2)}
    return [("x0 l1->l2", kappa[2, None] / kappa[1, None]),
            ("x0 l2->l3", kappa[3, None] / kappa[2, None]),
            ("max over deltas l1->l2", worst[2] / worst[1])]


def test_criterion_6_spectral_equivalence(interface_study, delta_sweep):
    # The splitting is stable uniformly in h and in the interface position,
    # so kappa(DA^-1 Ahat) may vary little over all ten study rows.  For the
    # strip block the paper bounds kappa(D1^-1 A1) by a constant that depends
    # on neither, but does not say the constant is small: the interface
    # position alone moves it by a factor of 2-3 at every level.  So the D1
    # check bounds its growth under refinement, at fixed positions, which is
    # what a uniform bound rules out.  Level 0 takes no part in the growth
    # checks: there the Dirichlet box cuts the strip short (24 of the 51
    # cut-element vertices are eliminated, none at levels 1 and 2), just as
    # criterion 4 takes its ratio over col[1:].
    studied = [(r.level, r.delta)
               for r in interface_study.rows + delta_sweep.rows]
    config = delta_sweep.config
    # the studied rows, then the sweep's positions one level coarser
    coarse = [(1, d) for d in config.deltas]
    kda, kd1 = {}, {}
    for lvl, d in studied + coarse:
        x0 = config.x0 if d is None else (d, 2 * d, 3 * d)
        pencils = spectral_pencils(build_system(replace(config, x0=x0), lvl))
        if (lvl, d) in studied:
            kda[lvl, d] = pencils["kappa(DA^-1 Ahat)"]()
        kd1[lvl, d] = pencils["kappa(D1^-1 A1)"]()
    lower_bounds = [f"{name} {row_name(*key)}"
                    for name, ests in (("DA", kda), ("D1", kd1))
                    for key, e in ests.items() if not e.converged]
    da = [e.kappa for e in kda.values()]
    f_da = max(da) / min(da)
    growth = growth_ratios({key: e.kappa for key, e in kd1.items()})
    ok = (not lower_bounds and f_da <= 1.5
          and all(g <= 2.0 for _, g in growth))
    rows = [f"{row_name(*key)}: DA {kda[key].kappa:.2f} D1 "
            f"{kd1[key].kappa:.2f}" for key in kda]
    rows += [f"{row_name(*key)}: D1 {kd1[key].kappa:.2f}"
             for key in kd1 if key not in kda]
    report(6, ok,
           f"kappa(DA^-1 Ahat) {min(da):.2f}..{max(da):.2f} factor "
           f"{f_da:.2f} (limit 1.5); kappa(D1^-1 A1) growth "
           + ", ".join(f"{name} {g:.2f}" for name, g in growth)
           + " (limit 2); unconverged Lanczos "
           + (", ".join(lower_bounds) or "none")
           + "; rows " + "; ".join(rows))


def classical_stiffness(mesh, keep):
    """Element-loop P1 stiffness oracle, gradients from local solves."""
    n = mesh.n_vertices
    A = np.zeros((n, n))
    for tet, vol in zip(mesh.tets, mesh.volumes):
        V = np.hstack([np.ones((4, 1)), mesh.vertices[tet]])
        G = np.linalg.solve(V.T, np.vstack([np.zeros((1, 3)), np.eye(3)]))
        A[np.ix_(tet, tet)] += vol * (G @ G.T)
    return A[np.ix_(keep, keep)]


def test_criterion_7_oracle_equivalences(interface_study):
    parts = []

    # split-basis congruence, matrix free on 20 random vectors, against the
    # side-block matrix assembled here
    config = interface_study.config
    x0 = np.asarray(config.x0)
    tsys = build_system(config, 1)
    mesh = MeshHierarchy.build(1).finest
    info = build_cut_info(mesh, SphereLevelSet(center=x0))
    layout = build_dof_layout(mesh, info)
    sol = interface_solution(x0, config.alpha1, config.alpha2)
    A, _ = assemble_interface(mesh, info, layout, config.coefficients(),
                              sol.f, sol.u)
    rng = np.random.default_rng(7)
    rel = 0.0
    for _ in range(20):
        v = rng.standard_normal(tsys.Ahat.shape[0])
        direct = tsys.Ahat @ v
        free = tsys.L.T @ (A @ (tsys.L @ v))
        rel = max(rel, np.linalg.norm(direct - free)
                  / np.linalg.norm(direct))
    ok_congruence = rel <= 1e-10
    parts.append(f"LtAL rel err {rel:.2e} <= 1e-10")

    # cut quadrature converges to the ball volume and sphere area
    levelset = SphereLevelSet(center=x0)
    vol_err, area_err = [], []
    for mesh in MeshHierarchy.build(3).levels:
        info = build_cut_info(mesh, levelset)
        vol = float(np.sum(info.vw1)) + float(
            np.sum(mesh.volumes[info.tet_class == -1]))
        vol_err.append(abs(vol - 4.0 * np.pi / 3.0))
        area_err.append(abs(float(np.sum(info.sw)) - 4.0 * np.pi))
    vol_ratios = [a / b for a, b in zip(vol_err, vol_err[1:])]
    area_ratios = [a / b for a, b in zip(area_err, area_err[1:])]
    ok_quad = all(3.0 <= r <= 5.0 for r in vol_ratios + area_ratios)
    parts.append("volume error ratios "
                 + str([f"{r:.2f}" for r in vol_ratios])
                 + ", area " + str([f"{r:.2f}" for r in area_ratios])
                 + " in [3,5]")

    # an uncut domain reduces to the classical Laplacian
    mesh = MeshHierarchy.build(1).levels[1]
    far = SphereLevelSet(center=x0, radius=10.0)
    info = build_cut_info(mesh, far)
    layout = build_dof_layout(mesh, info)
    coeffs = ProblemCoefficients(alpha1=1.0, alpha2=1.0)
    zero = lambda pts: np.zeros(pts.shape[0])
    A, _ = assemble_interface(mesh, info, layout, coeffs, zero,
                              lambda pts, side: zero(pts))
    ref = classical_stiffness(mesh, layout.v1_vertices)
    diff = np.max(np.abs(A.toarray() - ref)) / np.max(np.abs(ref))
    ok_uncut = layout.N1 == 0 and diff <= 1e-12
    parts.append(f"uncut vs classical rel err {diff:.2e} <= 1e-12")

    report(7, ok_congruence and ok_quad and ok_uncut, "; ".join(parts))


def test_criterion_8_fictitious_domain(fd_study):
    ok, parts = True, []
    # Optimality forbids counts that grow with refinement, so the ratio is
    # taken over levels 1-3, as criterion 4 takes it over col[1:].  Level 0
    # (51 dofs, 7 of them interior) may finish early; it stays in the window.
    for kind in BLOCK_KINDS:
        col = [r.iterations[kind] for r in fd_study.rows]
        ratio = max(col[1:]) / min(col[1:])
        ok &= all(8 <= n <= 20 for n in col) and ratio <= 1.6
        parts.append(f"{kind} {col} ratio {ratio:.2f}")
    l2 = orders(fd_study.rows, "l2")[-1]
    h1s = orders(fd_study.rows, "h1_semi")[-1]
    h1f = orders(fd_study.rows, "h1_full")[-1]
    ok &= 1.9 <= l2 <= 2.3 and (0.8 <= h1s <= 1.1 or 0.8 <= h1f <= 1.1)
    parts.append(f"orders L2 {l2:.2f} in [1.9,2.3], H1 {h1s:.2f}/{h1f:.2f}")
    report(8, ok, "; ".join(parts)
           + "; iterations in [8,20], levels 1-3 ratio <= 1.6")
