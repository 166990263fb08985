"""Krylov, smoother, multigrid and eigenvalue-estimate tests.

Dense linear algebra on small matrices serves as the oracle throughout,
Lanczos with full reorthogonalization as that of the partially
reorthogonalized estimator, the full D_A pencil as that of the splitting
constant, the pencil (A1, D1) as that of the diagonally scaled strip
block, and SuperLU's LU as that of the banded Cholesky; the mesh-based
cases run on levels 0-2 where direct solves are cheap.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from types import SimpleNamespace

from cutprec.assembly import ProblemCoefficients, assemble_interface, \
    transform
from cutprec import experiments
from cutprec.experiments import (ExperimentConfig, build_system,
                                 multigrid_active_sets, spectral_pencils)
from cutprec.geometry import SphereLevelSet, build_cut_info
from cutprec.mesh import MeshHierarchy
from cutprec.space import FICTITIOUS, INTERFACE, build_L, build_dof_layout
from cutprec.solver import (PRECONDITIONER_KINDS, DirectSolve,
                            GeometricMultigrid, SymmetricGaussSeidel,
                            _lanczos_extremes, build_prolongations,
                            estimate_condition, make_preconditioner, pcg,
                            splitting_estimate)

X0 = np.array([0.001, 0.002, 0.003])


class Identity:
    kind = "Identity"

    def apply(self, r):
        return r.copy()


def random_spd(n, seed=0, density=0.3):
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=density, random_state=rng, format="csr")
    A = R @ R.T + n * sp.eye(n)
    return A.tocsr()


def manufactured_interface(coeffs):
    def parts(pts):
        xh = pts - X0
        p = 3.0 * xh[:, 0] ** 2 * xh[:, 1] - xh[:, 1] ** 3
        r2 = np.sum(xh * xh, axis=1)
        return p, r2, np.exp(1.0 - r2)

    def f(pts):
        p, r2, E = parts(pts)
        return p * E * (18.0 - 4.0 * r2)

    def g(pts, side):
        p, r2, E = parts(pts)
        alpha = coeffs.alpha1 if side == 1 else coeffs.alpha2
        return p * (E - 1.0) / alpha

    return f, g


@pytest.fixture(scope="module")
def hierarchy2():
    return MeshHierarchy.build(2)


@pytest.fixture(scope="module")
def interface_systems(hierarchy2):
    """Transformed interface systems with manufactured data, levels 0-1."""
    coeffs = ProblemCoefficients()
    f, g = manufactured_interface(coeffs)
    out = []
    for lvl in (0, 1):
        mesh = hierarchy2.levels[lvl]
        ci = build_cut_info(mesh, SphereLevelSet(center=X0))
        layout = build_dof_layout(mesh, ci, INTERFACE)
        A, b = assemble_interface(mesh, ci, layout, coeffs, f, g)
        out.append(transform(A, b, build_L(layout), layout))
    return out


@pytest.fixture(scope="module")
def uncut_laplacians(hierarchy2):
    """Interior Laplacians on levels 0-2 (the sphere swallows the box, so
    the assembly degenerates to a standard conforming discretization)."""
    coeffs = ProblemCoefficients(alpha1=1.0, alpha2=1.0)
    zero = lambda pts: np.zeros(pts.shape[0])
    mats = []
    for mesh in hierarchy2.levels:
        ci = build_cut_info(mesh, SphereLevelSet(center=X0, radius=10.0))
        assert ci.n_cut == 0
        layout = build_dof_layout(mesh, ci, INTERFACE)
        A, _ = assemble_interface(mesh, ci, layout, coeffs, zero,
                                  lambda pts, side: zero(pts))
        mats.append(A.tocsr())
    active = [np.flatnonzero(~m.boundary_vertex_flags)
              for m in hierarchy2.levels]
    return mats, active


def test_pcg_identity_matrix_converges_immediately():
    b = np.arange(1.0, 9.0)
    x, rep = pcg(sp.eye(8, format="csr"), b, Identity(), tol=1e-12)
    assert rep.iterations == 1
    assert rep.converged
    assert np.allclose(x, b)


def test_pcg_zero_rhs():
    x, rep = pcg(sp.eye(5, format="csr"), np.zeros(5), Identity())
    assert rep.iterations == 0 and rep.converged
    assert np.all(x == 0.0)


def test_pcg_matches_direct_solve():
    A = random_spd(50, seed=3)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(50)
    ref = np.linalg.solve(A.toarray(), b)
    x, rep = pcg(A, b, Identity(), tol=1e-12, max_iter=500)
    assert rep.converged
    assert np.linalg.norm(x - ref) <= 1e-5 * np.linalg.norm(ref)


def test_pcg_preconditioning_cuts_iterations():
    A = random_spd(80, seed=5)
    b = np.ones(80)
    _, plain = pcg(A, b, Identity(), tol=1e-10, max_iter=500)
    _, direct = pcg(A, b, DirectSolve(A), tol=1e-10)
    assert direct.iterations <= 2
    assert direct.iterations < plain.iterations


def test_pcg_budget_exhaustion_raises():
    A = random_spd(60, seed=6)
    with pytest.raises(RuntimeError, match="no convergence"):
        pcg(A, np.ones(60), Identity(), tol=1e-14, max_iter=2)


def test_pcg_rejects_indefinite_preconditioner():
    class Flip:
        kind = "flip"

        def apply(self, r):
            return -r

    with pytest.raises(ValueError, match="preconditioner"):
        pcg(sp.eye(4, format="csr"), np.ones(4), Flip())


def test_pcg_rejects_indefinite_matrix():
    A = -sp.eye(4, format="csr")
    with pytest.raises(ValueError, match="system matrix"):
        pcg(A, np.ones(4), Identity())


def test_pcg_residual_history_layout(interface_systems):
    tsys = interface_systems[1]
    P = make_preconditioner("BlockExact", tsys)
    _, rep = pcg(tsys.Ahat, tsys.bhat, P, tol=1e-6)
    hist = rep.residuals
    assert hist[0] == 1.0
    assert hist.shape == (rep.iterations + 1,)
    assert np.all(hist > 0.0)
    assert hist[-1] <= 1e-6


def test_sgs_diagonal_matrix_is_exact():
    d = np.array([2.0, 5.0, 0.5, 4.0])
    M = sp.diags(d).tocsr()
    r = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(SymmetricGaussSeidel(M).apply(r), r / d,
                       rtol=0, atol=1e-15)


def test_sgs_matches_dense_splitting_oracle():
    A = random_spd(40, seed=7).toarray()
    D = np.diag(np.diag(A))
    L = np.tril(A, -1)
    U = np.triu(A, 1)
    M = (D + L) @ np.linalg.solve(D, D + U)
    r = np.random.default_rng(8).standard_normal(40)
    ref = np.linalg.solve(M, r)
    z = SymmetricGaussSeidel(sp.csr_matrix(A)).apply(r)
    assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)


def test_sgs_application_is_symmetric():
    A = random_spd(30, seed=9)
    smoother = SymmetricGaussSeidel(A)
    rng = np.random.default_rng(10)
    u, v = rng.standard_normal((2, 30))
    left = smoother.apply(u) @ v
    right = u @ smoother.apply(v)
    assert abs(left - right) <= 1e-10 * max(abs(left), 1.0)


def test_sgs_stationary_iteration_contracts():
    # 1D Laplacian: the error propagator I - P^{-1}A must have radius < 1
    n = 30
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1]).tocsr()
    smoother = SymmetricGaussSeidel(A)
    Z = np.column_stack([smoother.apply(col) for col in np.eye(n)])
    E = np.eye(n) - Z @ A.toarray()
    assert np.max(np.abs(np.linalg.eigvals(E))) < 1.0


def test_sgs_multisweep_composition():
    A = random_spd(25, seed=11)
    r = np.random.default_rng(12).standard_normal(25)
    one = SymmetricGaussSeidel(A, sweeps=1)
    two = SymmetricGaussSeidel(A, sweeps=2)
    x1 = one.apply(r)
    expected = x1 + one.apply(r - A @ x1)
    assert np.allclose(two.apply(r), expected, rtol=0, atol=1e-13)


def oracle_sweep(self, r):
    """One SymmetricGaussSeidel sweep as two scipy triangular solves, each
    of which prepares its factor again on every call."""
    lower = sp.tril(self._M).tocsr()
    upper = sp.triu(self._M).tocsr()
    y = spla.spsolve_triangular(lower, r, lower=True)
    return spla.spsolve_triangular(upper, self._d * y, lower=False)


def oracle_apply(smoother, r):
    x = oracle_sweep(smoother, r)
    for _ in range(smoother.sweeps - 1):
        x += oracle_sweep(smoother, r - smoother._M @ x)
    return x


def noncanonical_spd(n, seed):
    """SPD CSR matrix whose rows hold every entry twice, split in two
    parts, in shuffled column order."""
    A = random_spd(n, seed=seed)
    rng = np.random.default_rng(seed)
    indptr, indices, data = [0], [], []
    for i in range(n):
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        vals = A.data[A.indptr[i]:A.indptr[i + 1]]
        part = rng.uniform(0.2, 0.8, size=vals.size)
        order = rng.permutation(2 * cols.size)
        indices.append(np.concatenate([cols, cols])[order])
        data.append(np.concatenate([part * vals, (1 - part) * vals])[order])
        indptr.append(indptr[-1] + 2 * cols.size)
    M = sp.csr_matrix((np.concatenate(data), np.concatenate(indices),
                       np.array(indptr)), shape=(n, n))
    assert not M.has_sorted_indices and not M.has_canonical_format
    return M


@pytest.mark.parametrize("case", ["Ahat", "A0", "A1", "noncanonical"])
def test_sgs_matches_triangular_solve_oracle_bitwise(case, interface_systems):
    if case == "noncanonical":
        M = noncanonical_spd(60, seed=20)
    else:
        M = getattr(interface_systems[1], case)
    r = np.random.default_rng(21).standard_normal(M.shape[0])
    for sweeps in (1, 2, 3):
        smoother = SymmetricGaussSeidel(M, sweeps=sweeps)
        assert np.array_equal(smoother.apply(r), oracle_apply(smoother, r)), \
            (case, sweeps)


def test_pcg_matches_triangular_solve_oracle_bitwise(hierarchy2,
                                                     interface_systems,
                                                     monkeypatch):
    tsys = interface_systems[1]
    sub = hierarchy2.truncated(1)
    active = [np.flatnonzero(~m.boundary_vertex_flags) for m in sub.levels]

    def solve_all():
        out = {}
        for kind in PRECONDITIONER_KINDS:
            P = make_preconditioner(kind, tsys, hierarchy=sub,
                                    active_sets=active)
            out[kind] = pcg(tsys.Ahat, tsys.bhat, P, tol=1e-6)
        return out

    fast = solve_all()
    monkeypatch.setattr(SymmetricGaussSeidel, "_sweep", oracle_sweep)
    ref = solve_all()
    for kind in PRECONDITIONER_KINDS:
        (x, rep), (x_ref, rep_ref) = fast[kind], ref[kind]
        assert np.array_equal(x, x_ref), kind
        assert np.array_equal(rep.residuals, rep_ref.residuals), kind


def test_sgs_rejects_bad_input():
    with pytest.raises(ValueError, match="diagonal"):
        SymmetricGaussSeidel(sp.csr_matrix(np.array([[0.0, 1.0],
                                                     [1.0, 2.0]])))
    with pytest.raises(ValueError, match="sweep"):
        SymmetricGaussSeidel(sp.eye(3, format="csr"), sweeps=0)


def test_direct_solve_singular_matrix_raises():
    M = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="factorization"):
        DirectSolve(M)


def test_direct_solve_rejects_indefinite_matrix():
    M = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="factorization failed: 2-th "
                                         "leading minor"):
        DirectSolve(M)


def test_direct_solve_rejects_asymmetric_matrix():
    # the band factor would read only the upper triangle
    M = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match=r"not symmetric: max\|M - M\^T\| "
                                         r"= 1\.000e\+00"):
        DirectSolve(M)


def oracle_direct_solve(M):
    """The exact solve before banded Cholesky: SuperLU's LU with partial
    pivoting, which needs neither symmetry nor definiteness."""
    return spla.splu(sp.csc_matrix(M)).solve


def oracle_pencils(tsys):
    """The operators behind the estimates of spectral_pencils, by label,
    as (A, B, B_solve) for _lanczos_extremes.  kappa(D_A^-1 Ahat) is the
    full pencil (Ahat, diag(A0, A1)) solved by BlockExact, as the program
    estimated it before the splitting constant, and kappa(D1^-1 A1) the
    pencil (A1, D1) solved by the band of D1, as the program estimated it
    before scaling A1 by D1^-1/2: their oracles."""
    D1 = sp.diags(tsys.A1.diagonal()).tocsr()
    return {"kappa2(Ahat)": (tsys.Ahat, None, None),
            "kappa(DA^-1 Ahat)": (
                tsys.Ahat, sp.block_diag([tsys.A0, tsys.A1], format="csr"),
                make_preconditioner("BlockExact", tsys)),
            "kappa(D1^-1 A1)": (tsys.A1, D1, DirectSolve(D1))}


@pytest.fixture(scope="module")
def exact_solve_matrices(hierarchy2):
    """Every kind of matrix the program factors exactly, per problem and
    level: both blocks and the multigrid coarse operator; and the B
    matrices of the oracle pencils, which the program no longer builds:
    D_A, a two-component matrix one band must still solve, and the
    diagonal D1."""
    cache = {}

    def get(problem, level):
        if (problem, level) not in cache:
            t = build_system(ExperimentConfig(problem=problem), level=level)
            sub = hierarchy2.truncated(level)
            mg = GeometricMultigrid(t.A0, build_prolongations(
                sub, multigrid_active_sets(sub, X0, problem)))
            pencils = oracle_pencils(t)
            cache[problem, level] = {
                "A0": t.A0, "A1": t.A1,
                "DA": pencils["kappa(DA^-1 Ahat)"][1],
                "D1": pencils["kappa(D1^-1 A1)"][1],
                "MG coarse": mg.operators[0]}
        return cache[problem, level]

    return get


@pytest.mark.parametrize("name", ["A0", "A1", "DA", "D1", "MG coarse"])
@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_direct_solve_matches_superlu_oracle(exact_solve_matrices, problem,
                                             level, name):
    M = exact_solve_matrices(problem, level)[name]
    r = np.random.default_rng(level).standard_normal(M.shape[0])
    x, ref = DirectSolve(M).apply(r), oracle_direct_solve(M)(r)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_da_pencil_solve_is_block_exact(exact_solve_matrices, problem,
                                        monkeypatch):
    """kappa(D_A^-1 Ahat) is the splitting estimate of Ahat's coupling
    block, with solves of A0 and A1 bit for bit those of their factors
    alone."""
    m = exact_solve_matrices(problem, 2)
    t = build_system(ExperimentConfig(problem=problem), level=2)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return splitting_estimate(*args, **kwargs)

    monkeypatch.setattr(experiments, "splitting_estimate", recorded)
    spectral_pencils(t)["kappa(DA^-1 Ahat)"]()
    (A01, A1, solve0, solve1), = calls
    n0 = m["A0"].shape[0]
    assert abs(A01 - t.Ahat[:n0, n0:]).max() == 0.0
    assert abs(A1 - m["A1"]).max() == 0.0
    rng = np.random.default_rng(5)
    r0, r1 = rng.standard_normal(n0), rng.standard_normal(A1.shape[0])
    assert np.array_equal(solve0.apply(r0), DirectSolve(m["A0"]).apply(r0))
    assert np.array_equal(solve1.apply(r1), DirectSolve(m["A1"]).apply(r1))


SPREAD_CENTRES = [(0.001, 0.002, 0.003), (0.05, 0.1, 0.15),
                  (0.02, 0.04, 0.06)]


# kappa from the splitting constant against the full D_A pencil, both by
# Lanczos: the two agree to 1e-8 relative, and the splitting run on the
# strip space takes fewer steps than the pencil on all dofs.
@pytest.mark.parametrize("x0", SPREAD_CENTRES)
@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_splitting_estimate_matches_da_pencil(systems, problem, level, x0):
    t = systems(problem, x0, level)
    n0 = t.A0.shape[0]
    est = splitting_estimate(t.Ahat[:n0, n0:], t.A1, DirectSolve(t.A0),
                             DirectSolve(t.A1))
    lo, hi, converged, steps = _lanczos_extremes(
        *oracle_pencils(t)["kappa(DA^-1 Ahat)"], None, 0)
    assert est.converged and converged
    assert est.kappa == pytest.approx(hi / lo, rel=1e-8, abs=0)
    assert (est.lam_min, est.lam_max) == (1 - est.gamma, 1 + est.gamma)
    assert est.iterations < steps


# kappa(S A1 S), S = D1^-1/2, against the pencil (A1, D1) it replaced, both
# by Lanczos: similar operators, so the two agree to 1e-8 relative.
@pytest.mark.parametrize("x0", SPREAD_CENTRES)
@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_scaled_strip_estimate_matches_d1_pencil(systems, problem, level,
                                                 x0):
    t = systems(problem, x0, level)
    est = spectral_pencils(t)["kappa(D1^-1 A1)"]()
    lo, hi, converged, _ = _lanczos_extremes(
        *oracle_pencils(t)["kappa(D1^-1 A1)"], None, 0)
    assert est.converged and converged
    assert est.kappa == pytest.approx(hi / lo, rel=1e-8, abs=0)
    assert est.lam_min == pytest.approx(lo, rel=1e-8, abs=0)
    assert est.lam_max == pytest.approx(hi, rel=1e-8, abs=0)


def test_splitting_estimate_rejects_gamma_at_least_one():
    # with A1 scaled by 0.01, gamma^2 grows a hundredfold, past 1: the
    # Schur complement A1 - A01^T A0^-1 A01 is indefinite
    t = build_system(ExperimentConfig(), level=1)
    n0 = t.A0.shape[0]
    A1 = 0.01 * t.A1
    with pytest.raises(ValueError, match=r"splitting constant gamma = "
                                         r"\S+ >= 1"):
        splitting_estimate(t.Ahat[:n0, n0:], A1, DirectSolve(t.A0),
                           DirectSolve(A1))


def oracle_prolongations(hierarchy, active_sets):
    """Nested P1 interpolation assembled from vertex index maps, one entry
    group at a time: copied vertices with weight one, then each midpoint
    with one half per active parent."""
    prols = []
    for k, parents in enumerate(hierarchy.midpoint_parents):
        coarse, fine = hierarchy.levels[k], hierarchy.levels[k + 1]
        cidx = np.full(coarse.n_vertices, -1, dtype=np.int64)
        cidx[active_sets[k]] = np.arange(len(active_sets[k]))
        fidx = np.full(fine.n_vertices, -1, dtype=np.int64)
        fidx[active_sets[k + 1]] = np.arange(len(active_sets[k + 1]))

        rows, cols, vals = [], [], []
        copied = np.asarray(active_sets[k])
        ok = fidx[copied] >= 0
        rows.append(fidx[copied[ok]])
        cols.append(cidx[copied[ok]])
        vals.append(np.ones(ok.sum()))

        mid_ids = coarse.n_vertices + np.arange(parents.shape[0])
        for side in (0, 1):
            ok = (fidx[mid_ids] >= 0) & (cidx[parents[:, side]] >= 0)
            rows.append(fidx[mid_ids[ok]])
            cols.append(cidx[parents[ok, side]])
            vals.append(np.full(ok.sum(), 0.5))

        P = sp.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(active_sets[k + 1]), len(active_sets[k]))).tocsr()
        prols.append(P)
    return prols


def assert_same_csr(got, want, what):
    assert got.shape == want.shape, what
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (what, name)


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_prolongations_match_index_map_oracle(problem):
    hierarchy = MeshHierarchy.build(3)
    active = multigrid_active_sets(hierarchy, X0, problem)
    got = build_prolongations(hierarchy, active)
    want = oracle_prolongations(hierarchy, active)
    assert len(got) == len(want) == 3
    for k, (P, Q) in enumerate(zip(got, want)):
        assert_same_csr(P, Q, (problem, k))
    # the Galerkin operators of the level-2 standard block agree as well
    sub = hierarchy.truncated(2)
    A0 = build_system(ExperimentConfig(problem=problem), level=2).A0
    assert A0.shape[0] == active[2].size
    got = GeometricMultigrid(A0, build_prolongations(sub, active[:3]))
    want = GeometricMultigrid(A0, oracle_prolongations(sub, active[:3]))
    assert len(got.operators) == 3
    for k, (G, W) in enumerate(zip(got.operators, want.operators)):
        assert_same_csr(G, W, (problem, "operator", k))


def test_prolongation_reproduces_linear_functions(hierarchy2):
    """Nested P1 interpolation is exact on affine functions when every
    vertex is active."""
    sub = hierarchy2.truncated(1)
    active = [np.arange(m.n_vertices) for m in sub.levels]
    P, = build_prolongations(sub, active)
    lin = lambda pts: 1.0 + 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + pts[:, 2]
    coarse_vals = lin(sub.levels[0].vertices)
    fine_vals = lin(sub.levels[1].vertices)
    assert np.allclose(P @ coarse_vals, fine_vals, rtol=0, atol=1e-13)


def test_prolongation_requires_matching_sets(hierarchy2):
    sub = hierarchy2.truncated(1)
    with pytest.raises(ValueError, match="active set"):
        build_prolongations(sub, [np.arange(sub.levels[0].n_vertices)])


def test_galerkin_coarse_operator_matches_reassembly(hierarchy2,
                                                     uncut_laplacians):
    """For nested P1 spaces the triple product P^T A P of the fine interior
    Laplacian equals the coarse-assembled one exactly."""
    mats, active = uncut_laplacians
    sub = hierarchy2.truncated(1)
    mg = GeometricMultigrid(mats[1], build_prolongations(sub, active[:2]))
    coarse = mg.operators[0].toarray()
    ref = mats[0].toarray()
    assert np.max(np.abs(coarse - ref)) <= 1e-10


def test_mg_vcycle_reduces_error(hierarchy2, uncut_laplacians):
    mats, active = uncut_laplacians
    A = mats[2]
    mg = GeometricMultigrid(A, build_prolongations(hierarchy2, active))
    rng = np.random.default_rng(13)
    exact = rng.standard_normal(A.shape[0])
    x = mg._vcycle(len(mg.operators) - 1, A @ exact)  # one V-cycle
    err = exact - x
    energy = lambda v: np.sqrt(v @ (A @ v))
    assert energy(err) <= 0.2 * energy(exact)


def test_mg_without_coarse_levels_is_direct():
    A = random_spd(20, seed=14)
    mg = GeometricMultigrid(A, [])
    assert len(mg.operators) == 1
    r = np.random.default_rng(15).standard_normal(20)
    assert np.allclose(mg.apply(r), DirectSolve(A).apply(r),
                       rtol=0, atol=1e-10)


def test_mg_application_is_spd(hierarchy2, uncut_laplacians):
    mats, active = uncut_laplacians
    sub = hierarchy2.truncated(1)
    mg = GeometricMultigrid(mats[1], build_prolongations(sub, active[:2]))
    n = mats[1].shape[0]
    Z = np.column_stack([mg.apply(col) for col in np.eye(n)])
    assert np.max(np.abs(Z - Z.T)) <= 1e-10 * np.max(np.abs(Z))
    assert np.linalg.eigvalsh(0.5 * (Z + Z.T))[0] > 0.0


def test_block_diag_sgs_equals_exact_for_diagonal_strip():
    """With a diagonal strip block one smoothing sweep is an exact solve
    and the second corrects a residual that is zero up to rounding, so the
    two block preconditioners must coincide."""
    A0 = random_spd(12, seed=16)
    d1 = np.linspace(1.0, 3.0, 8)
    A1 = sp.diags(d1).tocsr()
    tsys = SimpleNamespace(A0=A0, A1=A1,
                           Ahat=sp.block_diag((A0, A1), format="csr"),
                           layout=SimpleNamespace(problem=INTERFACE))
    exact = make_preconditioner("BlockExact", tsys)
    mixed = make_preconditioner("BlockDiagSGS", tsys)
    r = np.random.default_rng(17).standard_normal(20)
    assert np.allclose(mixed.apply(r), exact.apply(r), rtol=0, atol=1e-12)


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_shared_block_solvers_match_preconditioners_built_alone(hierarchy2,
                                                                problem):
    """Preconditioners drawn from one shared set of block solvers, in
    either build order, run PCG bit for bit as each one built alone."""
    config = ExperimentConfig(problem=problem)
    tsys = experiments._assemble(hierarchy2.levels[1], config.x0, config)[2]
    sub = hierarchy2.truncated(1)
    active = multigrid_active_sets(sub, X0, problem)

    def solve(kind, blocks=None):
        P = make_preconditioner(kind, tsys, hierarchy=sub,
                                active_sets=active, blocks=blocks)
        return pcg(tsys.Ahat, tsys.bhat, P, tol=1e-6)

    alone = {kind: solve(kind) for kind in PRECONDITIONER_KINDS}
    for order in (PRECONDITIONER_KINDS, PRECONDITIONER_KINDS[::-1]):
        blocks = {}
        for kind in order:
            (x, rep), (x_ref, rep_ref) = solve(kind, blocks), alone[kind]
            assert np.array_equal(x, x_ref), (problem, kind)
            assert np.array_equal(rep.residuals, rep_ref.residuals), \
                (problem, kind)
        # exact A0 and A1, strip SGS and multigrid, each built once
        assert sorted(blocks) == ["A0 MG", "A0 exact", "A1 SGS", "A1 exact"]


def test_make_preconditioner_validation(interface_systems):
    tsys = interface_systems[0]
    with pytest.raises(ValueError, match="unknown preconditioner"):
        make_preconditioner("ILU", tsys)
    with pytest.raises(ValueError, match="hierarchy"):
        make_preconditioner("BlockMGSGS", tsys)


def test_all_preconditioners_are_symmetric(hierarchy2, interface_systems):
    tsys = interface_systems[0]
    sub = hierarchy2.truncated(0)
    active = [np.flatnonzero(~sub.levels[0].boundary_vertex_flags)]
    n = tsys.Ahat.shape[0]
    for kind in PRECONDITIONER_KINDS:
        P = make_preconditioner(kind, tsys, hierarchy=sub, active_sets=active)
        Z = np.column_stack([P.apply(col) for col in np.eye(n)])
        assert np.max(np.abs(Z - Z.T)) <= 1e-8 * np.max(np.abs(Z)), kind


def test_interface_iteration_counts_level1(hierarchy2, interface_systems):
    """Level-1 iteration counts must sit inside the reference windows
    (14..28 expected for the exact-block variant, cf. the study tables)."""
    tsys = interface_systems[1]
    sub = hierarchy2.truncated(1)
    active = [np.flatnonzero(~m.boundary_vertex_flags) for m in sub.levels]
    counts = {}
    for kind in PRECONDITIONER_KINDS:
        P = make_preconditioner(kind, tsys, hierarchy=sub, active_sets=active)
        _, rep = pcg(tsys.Ahat, tsys.bhat, P, tol=1e-6)
        assert rep.converged
        counts[kind] = rep.iterations
    assert abs(counts["BlockExact"] - 22) <= 0.3 * 22
    assert abs(counts["BlockDiagSGS"] - 24) <= 0.3 * 24
    assert abs(counts["BlockMGSGS"] - 24) <= 0.3 * 24
    assert abs(counts["SGS"] - 18) <= 0.3 * 18


def test_stopping_rule_is_relative(interface_systems):
    # scaling the right-hand side must not change the iteration count
    tsys = interface_systems[0]
    P = make_preconditioner("BlockExact", tsys)
    _, rep1 = pcg(tsys.Ahat, tsys.bhat, P, tol=1e-6)
    _, rep2 = pcg(tsys.Ahat, 1e6 * tsys.bhat, P, tol=1e-6)
    assert rep1.iterations == rep2.iterations


def dense_extremes(A, B=None):
    """Smallest and largest eigenvalue of A, or of the pencil (A, B), from
    the full dense eigenproblem."""
    if B is None:
        ev = np.linalg.eigvalsh(A.toarray())
    else:
        ev = sla.eigh(A.toarray(), B.toarray(), eigvals_only=True)
    return float(ev[0]), float(ev[-1])


# The level-1 interface cases run the operators the studies estimate, with
# a non-diagonal B for the pencil; their step counts are pinned to those of
# the earlier list-based recurrence with two modified Gram-Schmidt passes.
@pytest.mark.parametrize("case", ["random", "interface-l1"])
def test_lanczos_matches_dense_extremes(case, interface_systems):
    if case == "random":
        A, rel, steps = random_spd(200, seed=18), 1e-6, None
    else:
        A, rel, steps = interface_systems[1].Ahat, 1e-7, 209
    lo, hi = dense_extremes(A)
    est = estimate_condition(A, seed=1)
    assert est.converged
    assert est.lam_min == pytest.approx(lo, rel=rel)
    assert est.lam_max == pytest.approx(hi, rel=rel)
    if steps is not None:
        assert est.iterations == steps


@pytest.mark.parametrize("case", ["random-diag", "interface-l1-blockdiag"])
def test_lanczos_generalized_pencil_matches_dense(case, interface_systems):
    if case == "random-diag":
        A = random_spd(150, seed=19)
        B = sp.diags(np.linspace(0.5, 4.0, 150)).tocsr()
        B_solve, rel, steps = DirectSolve(B), 1e-6, None
    else:
        A, B, B_solve = oracle_pencils(interface_systems[1])[
            "kappa(DA^-1 Ahat)"]
        rel, steps = 1e-7, 88
    lo, hi = dense_extremes(A, B)
    est_lo, est_hi, converged, est_steps = _lanczos_extremes(A, B, B_solve,
                                                             None, 2)
    assert converged
    assert est_hi / est_lo == pytest.approx(hi / lo, rel=rel)
    if steps is not None:
        assert est_steps == steps


def _oracle_tridiagonal_extremes(d, e):
    k = len(d)
    if k == 1:
        return float(d[0]), float(d[0])
    lo, hi = (sla.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                   select_range=(i, i), check_finite=False)[0]
              for i in (0, k - 1))
    return float(lo), float(hi)


def oracle_lanczos_extremes(A, B, B_solve, budget, seed, rtol=1e-9):
    """The estimator with full reorthogonalization: one classical
    Gram-Schmidt pass in the B inner product on every step, and both
    extreme Ritz values from eigh_tridiagonal on every step."""
    n = A.shape[0]
    if budget is None:
        budget = min(5 * n, 2000)
    budget = min(budget, n)
    V = np.empty((budget + 1, n))
    BV = np.empty_like(V) if B is not None else V
    alpha = np.empty(budget)
    beta = np.empty(budget)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    bv = B @ v if B is not None else v
    nrm = np.sqrt(v @ bv)
    V[0], BV[0] = v / nrm, bv / nrm
    prev = None
    converged = False
    for j in range(budget):
        k = j + 1
        av = A @ V[j]
        w = B_solve.apply(av) if B is not None else av.copy()
        alpha[j] = av @ V[j]
        w -= alpha[j] * V[j]
        if j > 0:
            w -= beta[j - 1] * V[j - 1]
        w -= V[:k].T @ (BV[:k] @ w)
        bw = B @ w if B is not None else w
        b = float(np.sqrt(max(w @ bw, 0.0)))
        lo, hi = _oracle_tridiagonal_extremes(alpha[:k], beta[:j])
        if b <= 1e-14:
            converged = True
            break
        if j >= 2:
            dlo = abs(lo - prev[0]) / max(abs(lo), 1e-300)
            dhi = abs(hi - prev[1]) / max(abs(hi), 1e-300)
            if max(dlo, dhi) < rtol:
                converged = True
                break
        prev = (lo, hi)
        beta[j] = b
        V[k] = w / b
        if B is not None:
            BV[k] = bw / b
    return lo, hi, converged or k == n, k


@pytest.fixture(scope="module")
def systems():
    """Systems of both problems, built once per sphere centre and level."""
    cache = {}

    def get(problem, x0, level=1):
        if (problem, x0, level) not in cache:
            cache[problem, x0, level] = build_system(
                ExperimentConfig(problem=problem, x0=x0), level=level)
        return cache[problem, x0, level]

    return get


# Partial reorthogonalization keeps the basis semi-orthogonal, so the Ritz
# values, the step count and the flag match full reorthogonalization; the
# extremes agree to rounding (at most 1.5e-13 relative on levels 1-2).
@pytest.mark.parametrize("label", ["kappa2(Ahat)", "kappa(DA^-1 Ahat)",
                                   "kappa(D1^-1 A1)"],
                         ids=["Ahat", "DA^-1 Ahat", "D1^-1 A1"])
@pytest.mark.parametrize("x0", [(0.001, 0.002, 0.003), (0.01, 0.02, 0.03),
                                (0.05, 0.1, 0.15)])
@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_lanczos_matches_full_reorthogonalization(systems, problem,
                                                  x0, label):
    A, B, B_solve = oracle_pencils(systems(problem, x0))[label]
    lo, hi, converged, steps = _lanczos_extremes(A, B, B_solve, None, 0)
    ref_lo, ref_hi, ref_converged, ref_steps = \
        oracle_lanczos_extremes(A, B, B_solve, None, 0)
    assert (steps, converged) == (ref_steps, ref_converged)
    assert lo == pytest.approx(ref_lo, rel=1e-12, abs=0)
    assert hi == pytest.approx(ref_hi, rel=1e-12, abs=0)
    assert hi / lo == pytest.approx(ref_hi / ref_lo, rel=1e-12, abs=0)


def patch_stebz(monkeypatch, index_only):
    """Record the stebz calls of _lanczos_extremes as (range, lower index,
    order of T, eigenvalues found).  With index_only every call by value
    (range 1) finds nothing, so each smallest Ritz value is bisected for
    by index, as before the brackets: the oracle."""
    real = sla.get_lapack_funcs("stebz", (np.zeros(1),))
    calls = []

    def stebz(d, e, select, vl, vu, il, iu, tol, order):
        out = real(d, e, select, vl, vu, il, iu, tol, order)
        if select == 1 and index_only:
            out = (0,) + out[1:]
        calls.append((select, il, d.size, out[0]))
        return out

    monkeypatch.setattr(sla, "get_lapack_funcs", lambda name, arrays: stebz)
    return calls


def bracketed_and_oracle(monkeypatch, run):
    """run() and its calls, then run() under the index-only oracle."""
    with monkeypatch.context() as m:
        calls = patch_stebz(m, index_only=False)
        got = run()
    with monkeypatch.context() as m:
        patch_stebz(m, index_only=True)
        want = run()
    return got, want, calls


# a bracket moves a checked Ritz value in its last bits at most, so the
# stops, and the returned extremes, bisected for by index, stay the same
@pytest.mark.parametrize("problem, level, label", [
    (problem, 1, label) for problem in (INTERFACE, FICTITIOUS)
    for label in ("kappa2(Ahat)", "kappa(DA^-1 Ahat)", "kappa(D1^-1 A1)",
                  "gamma")] + [(INTERFACE, 2, "kappa2(Ahat)")])
def test_ritz_brackets_match_index_only_oracle(systems, problem, level,
                                               label, monkeypatch):
    tsys = systems(problem, tuple(X0), level)
    if label == "gamma":
        def run():
            return spectral_pencils(tsys)["kappa(DA^-1 Ahat)"]()
    else:
        A, B, B_solve = oracle_pencils(tsys)[label]

        def run():
            return _lanczos_extremes(A, B, B_solve, None, 0)
    got, want, calls = bracketed_and_oracle(monkeypatch, run)
    assert got == want
    if label != "gamma":  # which bisects for the largest one alone
        assert any(select == 1 and m == 1 for select, _, _, m in calls)


def test_ritz_bracket_falls_back_to_index(monkeypatch):
    # an isolated smallest eigenvalue: once its Ritz value has converged,
    # T_k's smallest eigenvalue no longer lies strictly below the last one
    n = 60
    off = np.full(n - 1, 0.01)
    T = sp.diags([off, np.r_[1e-3, np.linspace(1.0, 2.0, n - 1)], off],
                 [-1, 0, 1]).tocsr()
    got, want, calls = bracketed_and_oracle(
        monkeypatch, lambda: _lanczos_extremes(T, None, None, None, 0))
    assert got == want and got[2]
    # smallest Ritz values bisected for by index after the third step,
    # besides the returned one
    assert sum(select == 2 and il == 1 and k > 3
               for select, il, k, _ in calls) > 1
    assert got[0] == pytest.approx(dense_extremes(T)[0], rel=1e-12)


def test_estimate_condition_identity_and_validation():
    est = estimate_condition(sp.eye(10, format="csr"))
    assert est.kappa == pytest.approx(1.0)
    assert est.iterations == 1
    with pytest.raises(ValueError, match="positive definite"):
        estimate_condition(sp.diags([-1.0, 1.0, 2.0]).tocsr())
    for budget in (0, -3):
        with pytest.raises(ValueError, match=f"budget .*{budget}"):
            estimate_condition(sp.eye(4, format="csr"), budget=budget)


def test_lanczos_exhausted_budget_is_flagged_lower_bound():
    # 1D Laplacian spectrum cannot settle in five steps; the truncated
    # recurrence must still yield a usable interior estimate
    n = 100
    T = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0),
                  np.full(n - 1, -1.0)], [-1, 0, 1]).tocsr()
    lo, hi = dense_extremes(T)
    est = estimate_condition(T, budget=5)
    assert not est.converged
    assert est.lam_min >= lo / 1.0001
    assert est.lam_max <= hi * 1.0001
    assert est.kappa <= hi / lo * 1.0001


def test_interface_condition_number_level1(interface_systems):
    est = estimate_condition(interface_systems[1].Ahat)
    assert est.converged
    ref = 9.79e2
    assert max(est.kappa / ref, ref / est.kappa) <= 2.0
