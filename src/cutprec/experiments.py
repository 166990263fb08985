"""Manufactured-solution studies: convergence, conditioning and iteration
tables for the interface and fictitious-domain discretizations.

All runs are deterministic; table emission carries no timestamps, so
rerunning a configuration reproduces the output files byte for byte.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .assembly import (ProblemCoefficients, TransformedSystem, assemble_fd,
                       assemble_interface, dirichlet_values, transform,
                       volume_point_blocks)
from .geometry import SphereLevelSet, build_cut_info
from .mesh import MeshHierarchy
from .solver import (PRECONDITIONER_KINDS, DirectSolve, estimate_condition,
                     make_preconditioner, pcg, splitting_estimate)
from .space import FICTITIOUS, INTERFACE, build_L, build_dof_layout


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form solution bundle for one study problem.

    u(points, side) evaluates the exact solution; u_and_grad(points, side)
    returns it together with its gradient from one evaluation of the shared
    factors; f(points) is the volume load.  u is also the boundary datum:
    per-side box values for the interface problem, the trace on the
    sphere (side defaults to 1) for the fictitious domain.
    """

    u: callable
    u_and_grad: callable
    f: callable


def _solution(x0, shift: float, scales: dict) -> ManufacturedSolution:
    """u_s = p (exp(1-|xh|^2) - shift) / scales[s] on side s, with p =
    3 xh_1^2 xh_2 - xh_2^3 and xh = x - x0.  p is harmonic, so
    -scales[s] Laplace(u_s) is the load f = p exp(1-|xh|^2) (18 -
    4|xh|^2) on every side, whatever the shift."""
    x0 = np.asarray(x0, dtype=float)

    def parts(pts):
        pts = np.asarray(pts, dtype=float)
        x, y, z = (pts[:, i] - x0[i] for i in range(3))
        xx, yy = x * x, y * y
        p = 3.0 * xx * y - yy * y  # y ** 3 would call pow, 40x slower
        r2 = xx + yy + z * z
        return x, y, z, p, r2, np.exp(1.0 - r2)

    def u(pts, side=1):
        _, _, _, p, _, E = parts(pts)
        return p * (E - shift) / scales[side]

    def u_and_grad(pts, side=1):
        x, y, z, p, _, E = parts(pts)
        Es, pE2 = E - shift, 2.0 * (p * E)
        grad = np.stack([6.0 * x * y * Es - pE2 * x,
                         (3.0 * x ** 2 - 3.0 * y ** 2) * Es - pE2 * y,
                         -(pE2 * z)], axis=1)
        return p * Es / scales[side], grad / scales[side]

    def f(pts):
        _, _, _, p, r2, E = parts(pts)
        return p * E * (18.0 - 4.0 * r2)

    return ManufacturedSolution(u=u, u_and_grad=u_and_grad, f=f)


def interface_solution(x0, alpha1: float, alpha2: float) -> ManufacturedSolution:
    """Piecewise solution u_i = p (exp(1-|xh|^2) - 1) / alpha_i, vanishing
    on the unit sphere around x0; both interface conditions hold because
    p is harmonic and u_i is alpha_i-scaled."""
    return _solution(x0, 1.0, {1: alpha1, 2: alpha2})


def fictitious_solution(x0) -> ManufacturedSolution:
    """One-sided solution u = p exp(1-|xh|^2)."""
    return _solution(x0, 0.0, {1: 1.0, 2: 1.0})


def _fits(value, like) -> bool:
    """Whether a JSON value can stand for a config field whose default is
    like: a list for a tuple, a number for a float, else the same type."""
    if isinstance(like, tuple):
        return isinstance(value, list) and all(_fits(v, like[0])
                                               for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if isinstance(like, float)
                      else type(like))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a study run depends on; JSON round-trippable."""

    problem: str = INTERFACE
    max_level: int = 3
    x0: tuple = (0.001, 0.002, 0.003)
    deltas: tuple = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
    delta_level: int = 2
    alpha1: float = 1.0
    alpha2: float = 10.0
    gamma: float = 10.0
    beta: float = 0.1
    tol: float = 1e-6
    max_iter: int = 1000
    preconditioners: tuple = PRECONDITIONER_KINDS
    output_dir: str = "results"

    def __post_init__(self):
        if self.problem not in (INTERFACE, FICTITIOUS):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.max_level < 0 or self.delta_level < 0:
            raise ValueError("levels must be nonnegative")
        if len(self.x0) != 3:
            raise ValueError("x0 must have three components")
        if not self.deltas:
            raise ValueError("deltas must not be empty")
        for name in ("x0", "deltas", "tol"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("invalid solver controls")
        if not self.preconditioners:
            raise ValueError("at least one preconditioner required")
        for name in ("deltas", "preconditioners"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat, got {list(values)}")
        unknown = set(self.preconditioners) - set(PRECONDITIONER_KINDS)
        if unknown:
            raise ValueError(f"unknown preconditioners {sorted(unknown)}")
        # delegate coefficient validation
        self.coefficients()

    def coefficients(self) -> ProblemCoefficients:
        return ProblemCoefficients(
            alpha1=self.alpha1, alpha2=self.alpha2, gamma=self.gamma,
            beta=self.beta)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError("a config file must hold one JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for key, value in data.items():
            if not _fits(value, cls.__dataclass_fields__[key].default):
                raise ValueError(f"config key {key!r} has the wrong type: "
                                 f"{value!r}")
            if isinstance(value, list):
                data[key] = tuple(value)
        return cls(**data)


@dataclass
class ErrorNorms:
    l2: float
    h1_semi: float
    h1_full: float


@dataclass
class LevelResult:
    """One study row.

    kappa2_converged is False when kappa2 is a Lanczos lower bound, and
    kappa2_steps counts the Lanczos steps; the tables leave both out.
    """

    level: int
    h: float
    N0: int
    N1: int
    errors: ErrorNorms
    kappa2: float
    kappa2_converged: bool
    kappa2_steps: int
    iterations: dict
    delta: float | None = None


@dataclass
class StudyResult:
    config: ExperimentConfig
    rows: list

    def row_dicts(self) -> list:
        """Flat per-row dictionaries with convergence orders filled in."""
        out = []
        prev = None
        for r in self.rows:
            d = {"level": r.level, "h": r.h, "N0": r.N0, "N1": r.N1,
                 "l2": r.errors.l2, "h1_semi": r.errors.h1_semi,
                 "h1_full": r.errors.h1_full, "kappa2": r.kappa2}
            if r.delta is not None:
                d["delta"] = r.delta
            if prev is not None and r.delta is None:
                for name in ("l2", "h1_semi", "h1_full"):
                    d[name + "_order"] = float(
                        np.log2(getattr(prev.errors, name)
                                / getattr(r.errors, name)))
            for kind in self.config.preconditioners:
                d["it_" + kind] = r.iterations[kind]
            out.append(d)
            prev = r
        return out


def _accumulate(mesh, cutinfo, vals, sol, side, acc):
    """Add one side's squared L2 and H1-seminorm errors to acc.

    The discrete solution is taken per element, its gradient constant on
    each.  The squared errors of all the side's points meet their weights
    in one dot product, so the blocking of the quadrature changes no
    number.
    """
    ws, err_u, err_g = [], [], []
    for elems, pts, w, lam in volume_point_blocks(mesh, cutinfo, side):
        m, q = w.shape
        nodal = vals[mesh.tets[elems]]
        ue, ge = sol.u_and_grad(pts.reshape(-1, 3), side)
        uh = lam @ nodal[:, :, None]
        gh = nodal[:, None, :] @ mesh.element_gradients(elems)
        diff = ge.reshape(m, q, 3) - gh
        ws.append(w.ravel())
        err_u.append((ue - uh.ravel()) ** 2)
        err_g.append(np.einsum("mqx,mqx->mq", diff, diff).ravel())
    w = np.concatenate(ws)
    acc[0] += float(w @ np.concatenate(err_u))
    acc[1] += float(w @ np.concatenate(err_g))


def error_norms(mesh, cutinfo, layout, y, sol) -> ErrorNorms:
    """L2 and H1 errors of the solved side-block coefficient vector y.

    Integration runs over both physical subdomains for the interface
    problem and over the inside region only for the fictitious domain,
    using the same volume quadrature as the loads.
    """
    acc = [0.0, 0.0]
    lift = dirichlet_values(mesh, sol.u)
    for side in (1, 2) if layout.problem == INTERFACE else (1,):
        # the side's vertex values; the others keep the side's lift, which
        # the fictitious domain never reads: every vertex of a side-1
        # element carries a dof
        dof = layout.v1_dof if side == 1 else layout.v2_dof
        verts = layout.v1_vertices if side == 1 else layout.v2_vertices
        vals = lift[:, side - 1].copy()
        vals[verts] = y[dof[verts]]
        _accumulate(mesh, cutinfo, vals, sol, side, acc)
    l2, semi, full = np.sqrt([acc[0], acc[1], acc[0] + acc[1]])
    return ErrorNorms(l2=float(l2), h1_semi=float(semi), h1_full=float(full))


def spectral_pencils(tsys: TransformedSystem) -> dict:
    """The condition estimates `cutprec cond` reports, by label, each a
    function that computes its ConditionEstimate when called: kappa(Ahat);
    kappa(D_A^-1 Ahat), D_A = diag(A0, A1), from the splitting constant
    gamma with exact solves of A0 and A1, built only for that call; and
    kappa(D1^-1 A1), D1 the diagonal of A1, as kappa(S A1 S) with S =
    D1^-1/2, to which D1^-1 A1 is similar."""
    n0 = tsys.A0.shape[0]
    S = sp.diags(1.0 / np.sqrt(tsys.A1.diagonal()))
    return {"kappa2(Ahat)": lambda: estimate_condition(tsys.Ahat),
            "kappa(DA^-1 Ahat)": lambda: splitting_estimate(
                tsys.Ahat[:n0, n0:], tsys.A1, DirectSolve(tsys.A0),
                DirectSolve(tsys.A1)),
            "kappa(D1^-1 A1)": lambda: estimate_condition(S @ tsys.A1 @ S)}


def _assemble(mesh, x0, config: ExperimentConfig, load: bool = True):
    """Cut the mesh by the unit sphere around x0 and assemble the configured
    problem in the split basis; without load, the operator alone (bhat is
    None and no volume-load point is evaluated).

    Returns the cut info, the manufactured solution and the transformed
    system.  Raises if the sphere cuts no element: the split basis then
    has no strip block, which the studies and estimates need.
    """
    cutinfo = build_cut_info(mesh, SphereLevelSet(center=x0))
    if cutinfo.n_cut == 0:
        raise ValueError(f"the unit sphere around x0 = "
                         f"{tuple(map(float, x0))} cuts no element of the "
                         f"level-{mesh.level} mesh")
    layout = build_dof_layout(mesh, cutinfo, config.problem)
    coeffs = config.coefficients()
    if config.problem == INTERFACE:
        sol = interface_solution(x0, config.alpha1, config.alpha2)
        assemble = assemble_interface
    else:
        sol = fictitious_solution(x0)
        assemble = assemble_fd
    A, b = assemble(mesh, cutinfo, layout, coeffs, sol.f if load else None,
                    sol.u)
    return cutinfo, sol, transform(A, b if load else None, build_L(layout),
                                   layout)


@contextmanager
def _located(what, level, delta):
    """Re-raise a failure of one study row naming its level and delta."""
    try:
        yield
    except (RuntimeError, ValueError) as exc:
        where = f"level {level}" + \
            (f", delta {delta}" if delta is not None else "")
        raise RuntimeError(f"{what} failed at {where}: {exc}") from exc


def _solve_point(hierarchy, x0, config: ExperimentConfig,
                 delta=None) -> LevelResult:
    """One study row on the finest mesh of the hierarchy: assemble, solve
    with every configured preconditioner, estimate kappa, measure errors."""
    mesh = hierarchy.finest
    level = mesh.level
    with _located("assembly", level, delta):
        cutinfo, sol, tsys = _assemble(mesh, x0, config)
    layout = tsys.layout

    iterations = {}
    first_solution = None
    blocks = {}  # block solvers shared by this system's preconditioners
    for kind in config.preconditioners:
        with _located(f"{kind} set-up", level, delta):
            P = make_preconditioner(kind, tsys, hierarchy=hierarchy,
                                    blocks=blocks)
        with _located(f"{kind} solve", level, delta):
            xhat, rep = pcg(tsys.Ahat, tsys.bhat, P, tol=config.tol,
                            max_iter=config.max_iter)
        iterations[kind] = rep.iterations
        if first_solution is None:
            first_solution = xhat
    del P, blocks  # free every factor before kappa and the error norms

    with _located("condition estimate", level, delta):
        est = estimate_condition(tsys.Ahat)
    errors = error_norms(mesh, cutinfo, layout, tsys.L @ first_solution, sol)
    return LevelResult(level=level, h=mesh.h, N0=layout.N0, N1=layout.N1,
                       errors=errors, kappa2=est.kappa,
                       kappa2_converged=est.converged,
                       kappa2_steps=est.iterations,
                       iterations=iterations, delta=delta)


def build_system(config: ExperimentConfig, level: int = None
                 ) -> TransformedSystem:
    """The operator of the configured problem at one level, transformed to
    the split basis, with no right-hand side (bhat is None)."""
    if level is None:
        level = config.max_level
    return _assemble(MeshHierarchy.build(level).finest, config.x0, config,
                     load=False)[2]


def run_study(config: ExperimentConfig = None,
              deltas: bool = False) -> StudyResult:
    """Dimensions, errors, conditioning and PCG iteration counts for every
    configured preconditioner, one row per point of the configured problem.

    The points are levels 0..max_level with the sphere centred at x0, or
    with deltas the sphere centres (delta, 2 delta, 3 delta) at delta_level.
    """
    if config is None:
        config = ExperimentConfig()
    top = config.delta_level if deltas else config.max_level
    hierarchy = MeshHierarchy.build(top)
    if deltas:
        points = [(top, (d, 2.0 * d, 3.0 * d), float(d))
                  for d in config.deltas]
    else:
        points = [(lvl, config.x0, None) for lvl in range(top + 1)]
    rows = [_solve_point(hierarchy.truncated(lvl), x0, config, delta)
            for lvl, x0, delta in points]
    return StudyResult(config=config, rows=rows)


_FORMATS = {"h": "{:.6g}", "l2": "{:.6e}", "h1_semi": "{:.6e}",
            "h1_full": "{:.6e}", "kappa2": "{:.4e}", "delta": "{:.2f}",
            "l2_order": "{:.3f}", "h1_semi_order": "{:.3f}",
            "h1_full_order": "{:.3f}"}


def _fmt(key, value):
    if key in _FORMATS:
        return _FORMATS[key].format(value)
    return str(value)


def _columns(rows):
    base = ["delta", "level", "h", "N0", "N1", "l2", "l2_order", "h1_semi",
            "h1_semi_order", "h1_full", "h1_full_order", "kappa2"]
    cols = [c for c in base if any(c in r for r in rows)]
    for r in rows:
        cols += [c for c in r if c.startswith("it_") and c not in cols]
    return cols


def write_tables(result: StudyResult, directory, name) -> list:
    """Emit one CSV and one Markdown rendering of the study rows.

    Returns the written paths.  Output is deterministic so repeated runs of
    the same configuration reproduce identical files.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = result.row_dicts()
    cols = _columns(rows)

    csv_path = directory / f"{name}.csv"
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_fmt(c, r[c]) if c in r else "" for c in cols))
    csv_path.write_text("\n".join(lines) + "\n")

    md_path = directory / f"{name}.md"
    key = "delta" if any("delta" in r for r in rows) else "level"
    sections = [
        ("Dimensions", [key, "h", "N0", "N1"]),
        ("Discretization errors",
         [key, "l2", "l2_order", "h1_semi", "h1_semi_order", "h1_full",
          "h1_full_order"]),
        ("Condition number and iterations",
         [key, "kappa2"] + [c for c in cols if c.startswith("it_")]),
    ]
    out = [f"# {name.replace('_', ' ')}", ""]
    for title, wanted in sections:
        use = [c for c in wanted if c in cols]
        out += [f"## {title}", "", "| " + " | ".join(use) + " |",
                "|" + "|".join("---" for _ in use) + "|"]
        for r in rows:
            out.append("| " + " | ".join(
                _fmt(c, r[c]) if c in r else "" for c in use) + " |")
        out.append("")
    md_path.write_text("\n".join(out))
    return [csv_path, md_path]
