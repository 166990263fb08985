import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutprec import assembly
from cutprec.assembly import (
    ProblemCoefficients,
    assemble_fd,
    assemble_interface,
    build_L,
    dirichlet_values,
    transform,
    volume_point_blocks,
)
from cutprec.experiments import ExperimentConfig
from cutprec.geometry import SphereLevelSet, build_cut_info
from cutprec.mesh import MeshHierarchy, p1_gradients
from cutprec.space import (
    FICTITIOUS,
    INTERFACE,
    build_dof_layout,
    build_index_sets,
)
from test_geometry import reference_ghost_facets, split_cut_tet
from test_memory import OracleAccumulator, UpperBlockOracle, \
    assemble_recording, assert_close_systems
from test_mesh import reference_facets

X0 = (0.001, 0.002, 0.003)


def is_symmetric(A, tol=1e-10):
    """Entrywise symmetry check scaled by the largest magnitude entry."""
    diff = (A - A.T).tocoo()
    if diff.nnz == 0:
        return True
    scale = 1.0 + (np.abs(A.data).max() if A.nnz else 0.0)
    return float(np.abs(diff.data).max()) <= tol * scale


def zero(pts):
    return np.zeros(pts.shape[0])


def make_problem(level, problem=INTERFACE, center=X0, radius=1.0):
    mesh = MeshHierarchy.build(level).finest
    ci = build_cut_info(mesh, SphereLevelSet(center=center, radius=radius))
    layout = build_dof_layout(build_index_sets(mesh, ci, problem))
    return mesh, ci, layout


@pytest.fixture(scope="module")
def interface1():
    return make_problem(1)


@pytest.fixture(scope="module")
def fictitious1():
    return make_problem(1, problem=FICTITIOUS)


def classical_laplacian_dense(mesh, vertex_ids):
    """Reference P1 stiffness with rows/cols restricted to vertex_ids."""
    n = mesh.n_vertices
    A = np.zeros((n, n))
    for t in range(mesh.n_tets):
        vs = mesh.tets[t]
        G = p1_gradients(mesh.vertices[vs])
        A[np.ix_(vs, vs)] += mesh.volumes[t] * (G @ G.T)
    return A[np.ix_(vertex_ids, vertex_ids)]


def test_coefficient_validation():
    with pytest.raises(ValueError):
        ProblemCoefficients(alpha1=0.0)
    with pytest.raises(ValueError):
        ProblemCoefficients(gamma=0.0)
    with pytest.raises(ValueError):
        ProblemCoefficients(beta=-0.1)
    # the averaging is harmonic
    assert ProblemCoefficients(alpha1=1, alpha2=10).alpha_bar == \
        pytest.approx(20.0 / 11.0)


def test_no_cut_matches_classical_laplacian():
    # region 1 swallows the whole box: every penalty/coupling term vanishes
    mesh, ci, layout = make_problem(1, radius=10.0)
    assert ci.n_cut == 0
    coeffs = ProblemCoefficients(alpha1=1.0, alpha2=1.0)
    A, b = assemble_interface(mesh, ci, layout, coeffs, zero,
                              lambda pts, side: np.zeros(pts.shape[0]))
    ref = classical_laplacian_dense(mesh, layout.v1_vertices)
    assert np.max(np.abs(A.toarray() - ref)) < 1e-12
    assert np.max(np.abs(b)) == 0.0


def test_penalty_difference_matches_surface_oracle(interface1):
    """Assemblies at two penalty values differ exactly by the interface mass
    term, which a midpoint-rule oracle reproduces (exact for P1 products)."""
    mesh, ci, layout = interface1
    base = dict(alpha1=1.0, alpha2=1.0, beta=0.0)
    A1, _ = assemble_interface(mesh, ci, layout,
                               ProblemCoefficients(gamma=10.0, **base),
                               zero, lambda pts, side: zero(pts))
    A2, _ = assemble_interface(mesh, ci, layout,
                               ProblemCoefficients(gamma=20.0, **base),
                               zero, lambda pts, side: zero(pts))
    diff = (A2 - A1).toarray()

    oracle = np.zeros((layout.dim, layout.dim))
    sign = np.array([1.0] * 4 + [-1.0] * 4)
    for c, t in enumerate(ci.cut_tets):
        vs = mesh.tets[t]
        verts = mesh.vertices[vs]
        G = p1_gradients(verts)
        mass = np.zeros((4, 4))
        for tri in split_cut_tet(verts, ci.vertex_phi[vs])[2]:
            e1 = tri[1] - tri[0]
            e2 = tri[2] - tri[0]
            area = 0.5 * np.linalg.norm(np.cross(e1, e2))
            mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
            lam = G @ (mids - verts[0]).T
            lam[0] += 1.0  # barycentric of the first vertex
            mass += area / 3.0 * (lam @ lam.T)
        dofs = np.concatenate([layout.v1_dof[vs], layout.v2_dof[vs]])
        assert np.all(dofs >= 0)  # cut strip stays away from the box walls
        diam = max(np.linalg.norm(verts[a] - verts[b])
                   for a in range(4) for b in range(a + 1, 4))
        local = 10.0 / diam * np.outer(sign, sign) * np.tile(mass, (2, 2))
        oracle[np.ix_(dofs, dofs)] += local
    assert np.max(np.abs(diff - oracle)) < 1e-11


def test_fd_penalty_difference_matches_surface_oracle(fictitious1):
    """The one-sided boundary penalty scales with the background mesh size,
    not the element diameter (the two differ by sqrt(3) on this mesh)."""
    mesh, ci, layout = fictitious1
    A1, _ = assemble_fd(mesh, ci, layout, ProblemCoefficients(gamma=10.0),
                        zero, zero)
    A2, _ = assemble_fd(mesh, ci, layout, ProblemCoefficients(gamma=20.0),
                        zero, zero)
    diff = (A2 - A1).toarray()

    oracle = np.zeros((layout.dim, layout.dim))
    for c, t in enumerate(ci.cut_tets):
        vs = mesh.tets[t]
        verts = mesh.vertices[vs]
        G = p1_gradients(verts)
        mass = np.zeros((4, 4))
        for tri in split_cut_tet(verts, ci.vertex_phi[vs])[2]:
            e1 = tri[1] - tri[0]
            e2 = tri[2] - tri[0]
            area = 0.5 * np.linalg.norm(np.cross(e1, e2))
            mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
            lam = G @ (mids - verts[0]).T
            lam[0] += 1.0
            mass += area / 3.0 * (lam @ lam.T)
        dofs = layout.v1_dof[vs]
        oracle[np.ix_(dofs, dofs)] += 10.0 / mesh.h * mass
    assert np.max(np.abs(diff - oracle)) < 1e-11


def test_affine_patch_interface(interface1):
    mesh, ci, layout = interface1
    coeffs = ProblemCoefficients(alpha1=1.0, alpha2=1.0)

    def u(pts):
        return 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 2]

    A, b = assemble_interface(mesh, ci, layout, coeffs, zero,
                              lambda pts, side: u(pts))
    x = np.zeros(layout.dim)
    for vdof, vs in ((layout.v1_dof, layout.v1_vertices),
                     (layout.v2_dof, layout.v2_vertices)):
        x[vdof[vs]] = u(mesh.vertices[vs])
    res = A @ x - b
    assert np.max(np.abs(res)) < 1e-10 * max(1.0, np.abs(b).max())


def test_affine_patch_fd(fictitious1):
    mesh, ci, layout = fictitious1
    coeffs = ProblemCoefficients()

    def u(pts):
        return -1.0 + 0.25 * pts[:, 0] + pts[:, 1] - 2.0 * pts[:, 2]

    A, b = assemble_fd(mesh, ci, layout, coeffs, zero, u)
    exact = np.zeros(layout.dim)
    exact[layout.v1_dof[layout.v1_vertices]] = u(mesh.vertices[layout.v1_vertices])
    res = A @ exact - b
    assert np.max(np.abs(res)) < 1e-9 * max(1.0, np.abs(b).max())
    x = spla.splu(A.tocsc()).solve(b)
    assert np.max(np.abs(x - exact)) < 1e-9


def test_fd_zero_data_gives_zero_rhs(fictitious1):
    mesh, ci, layout = fictitious1
    _, b = assemble_fd(mesh, ci, layout, ProblemCoefficients(), zero, zero)
    assert np.all(b == 0.0)


def test_fd_level0_symmetric_positive_definite():
    mesh, ci, layout = make_problem(0, problem=FICTITIOUS)
    A, _ = assemble_fd(mesh, ci, layout, ProblemCoefficients(), zero, zero)
    assert is_symmetric(A)
    evals = np.linalg.eigvalsh(A.toarray())
    assert evals.min() > 0.0


def test_interface_symmetric_positive_definite(interface1):
    mesh, ci, layout = interface1
    coeffs = ProblemCoefficients()
    A, b = assemble_interface(mesh, ci, layout, coeffs, zero,
                              lambda pts, side: zero(pts))
    assert is_symmetric(A)
    tsys = transform(A, b, build_L(layout), layout)
    assert is_symmetric(tsys.Ahat)
    evals = np.linalg.eigvalsh(tsys.Ahat.toarray())
    assert evals.min() > 0.0


def test_is_symmetric_rejects_asymmetric():
    M = sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    assert not is_symmetric(M)


def test_build_L_structure(interface1):
    _, _, layout = interface1
    L = build_L(layout)
    assert L.shape == (layout.dim, layout.dim)
    assert np.all(L.data == 1.0)
    counts = np.diff(L.tocsc().indptr)
    in_strip = np.isin(layout.x0_vertices, layout.sets.IG)
    assert np.array_equal(counts[layout.x0_dof[layout.x0_vertices]],
                          np.where(in_strip, 2, 1))
    assert np.all(counts[layout.x1_dof[layout.x1_vertices]] == 1)
    # invertibility of the basis change
    spla.splu(L.tocsc())


def test_build_L_strip_column_hits_both_sides(interface1):
    _, _, layout = interface1
    L = build_L(layout).tocsc()
    v = layout.sets.IG2[0]
    col = L[:, layout.x0_dof[v]].toarray().ravel()
    assert col[layout.v1_dof[v]] == 1.0
    assert col[layout.v2_dof[v]] == 1.0
    assert col.sum() == 2.0
    col1 = L[:, layout.x1_dof[v]].toarray().ravel()
    assert col1[layout.v2_dof[v]] == 1.0
    assert col1.sum() == 1.0


def test_build_L_interior_column_single_entry(interface1):
    _, _, layout = interface1
    L = build_L(layout).tocsc()
    interior = np.setdiff1d(layout.x0_vertices, layout.sets.IG)
    cols = layout.x0_dof[interior]
    assert np.all(np.diff(L.indptr)[cols] == 1)


def test_L_pointwise_evaluation_oracle(interface1):
    """The image of split coefficients evaluates to u0 + (side cut part)."""
    mesh, ci, layout = interface1
    L = build_L(layout)
    rng = np.random.default_rng(7)
    xhat = rng.standard_normal(layout.dim)
    x = L @ xhat

    u0 = np.zeros(mesh.n_vertices)
    u0[layout.x0_vertices] = xhat[layout.x0_dof[layout.x0_vertices]]
    ug = np.zeros(mesh.n_vertices)
    ug[layout.x1_vertices] = xhat[layout.x1_dof[layout.x1_vertices]]

    for side, elems, vdof, strip in (
            (1, ci.ext1, layout.v1_dof, layout.sets.IG1),
            (2, ci.ext2, layout.v2_dof, layout.sets.IG2)):
        coeff = np.zeros(mesh.n_vertices)
        nodes = layout.v1_vertices if side == 1 else layout.v2_vertices
        coeff[nodes] = x[vdof[nodes]]
        cut_part = np.zeros(mesh.n_vertices)
        cut_part[strip] = ug[strip]
        for t in rng.choice(elems, size=50):
            vs = mesh.tets[t]
            lam = rng.dirichlet(np.ones(4))
            got = coeff[vs] @ lam
            want = (u0[vs] + cut_part[vs]) @ lam
            assert abs(got - want) < 1e-13


def test_transform_quadratic_form_and_blocks(interface1):
    mesh, ci, layout = interface1
    coeffs = ProblemCoefficients()
    A, b = assemble_interface(mesh, ci, layout, coeffs, zero,
                              lambda pts, side: zero(pts))
    L = build_L(layout)
    tsys = transform(A, b, L, layout)
    rng = np.random.default_rng(11)
    for _ in range(20):
        xh = rng.standard_normal(layout.dim)
        lhs = xh @ (tsys.Ahat @ xh)
        rhs = (L @ xh) @ (A @ (L @ xh))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
    assert np.allclose(tsys.bhat, L.T @ b, rtol=0, atol=1e-14)
    n0 = layout.N0
    dense = tsys.Ahat.toarray()
    assert np.array_equal(tsys.A0.toarray(), dense[:n0, :n0])
    assert np.array_equal(tsys.A1.toarray(), dense[n0:, n0:])
    assert tsys.A1.diagonal().min() > 0.0


def test_no_cut_transform_is_permutation():
    mesh, ci, layout = make_problem(0, radius=10.0)
    assert layout.N1 == 0
    coeffs = ProblemCoefficients(alpha1=1.0, alpha2=1.0)
    A, b = assemble_interface(mesh, ci, layout, coeffs, zero,
                              lambda pts, side: zero(pts))
    L = build_L(layout)
    counts_row = np.diff(L.tocsr().indptr)
    counts_col = np.diff(L.tocsc().indptr)
    assert np.all(counts_row == 1) and np.all(counts_col == 1)
    tsys = transform(A, b, L, layout)
    P = L.toarray()
    assert np.array_equal(tsys.Ahat.toarray(), P.T @ A.toarray() @ P)


def test_interface_condition_number_level0():
    mesh, ci, layout = make_problem(0)
    coeffs = ProblemCoefficients(alpha1=1.0, alpha2=10.0)
    A, b = assemble_interface(mesh, ci, layout, coeffs, zero,
                              lambda pts, side: zero(pts))
    tsys = transform(A, b, build_L(layout), layout)
    evals = np.linalg.eigvalsh(tsys.Ahat.toarray())
    kappa = evals.max() / evals.min()
    assert 8.77e1 / 2 < kappa < 8.77e1 * 2


def test_mismatched_layout_rejected(interface1, fictitious1):
    mesh, ci, layout_if = interface1
    _, _, layout_fd = fictitious1
    coeffs = ProblemCoefficients()
    with pytest.raises(ValueError):
        assemble_interface(mesh, ci, layout_fd, coeffs, zero,
                           lambda pts, side: zero(pts))
    with pytest.raises(ValueError):
        assemble_fd(mesh, ci, layout_if, coeffs, zero, zero)


def test_damaged_cut_rules_rejected(interface1):
    import dataclasses

    mesh, ci, layout = interface1
    broken = dataclasses.replace(ci, cut_tets=ci.cut_tets[:-1].copy())
    with pytest.raises(ValueError):
        assemble_interface(mesh, broken, layout, ProblemCoefficients(), zero,
                           lambda pts, side: zero(pts))


@pytest.mark.parametrize("fixture, side", [
    ("interface1", 1), ("interface1", 2),
    ("fictitious1", 1),  # the fictitious domain integrates side 1 only
])
def test_volume_point_blocks(fixture, side, request):
    mesh, ci, _ = request.getfixturevalue(fixture)
    # per point: weight, barycentric coordinates, the point and its image
    # under them in its element
    w, lam, pts, mapped, elems = [], [], [], [], []
    for e, p, wb, lb in volume_point_blocks(mesh, ci, side):
        m, q = wb.shape  # one rule size q per block
        assert 0 < m <= assembly.QUADRATURE_BLOCK and q in (14, 42)
        assert e.shape == (m,) and p.shape == (m, q, 3)
        assert lb.shape in ((q, 4), (m, q, 4))
        lb = np.broadcast_to(lb, (m, q, 4))
        w.append(wb.ravel())
        lam.append(lb.reshape(-1, 4))
        pts.append(p.reshape(-1, 3))
        mapped.append((lb @ mesh.vertices[mesh.tets[e]]).reshape(-1, 3))
        elems.append(e)
    w, lam, pts, mapped, elems = map(np.concatenate,
                                     (w, lam, pts, mapped, elems))

    meas = assembly._side_measures(mesh, ci)[side - 1]
    assert w.sum() == pytest.approx(meas.sum(), rel=1e-12)
    assert np.max(np.abs(lam.sum(axis=1) - 1.0)) <= 1e-13
    assert np.max(np.abs(mapped - pts)) <= 1e-13
    assert lam.min() >= -1e-13  # each point lies in its element
    ext = ci.ext1 if side == 1 else ci.ext2
    assert np.array_equal(np.sort(elems), ext)  # each element once


def table_add_ghost(acc, mesh, cutinfo, grads, side, coeffs, vdof,
                    liftvals):
    """The ghost penalty on the full facet table, with its oriented normals
    and its areas, as the full 8 x 8 blocks of both tets of each facet (the
    3 shared vertices twice), added to the full-block oracle accumulator."""
    if coeffs.beta == 0.0:
        return
    table = reference_facets(mesh.vertices, mesh.tets)
    fids = reference_ghost_facets(table, cutinfo.tet_class, side)
    t0, t1 = table.tets[fids, 0], table.tets[fids, 1]
    n = table.normals[fids]
    d = np.concatenate([np.einsum("mix,mx->mi", grads[t0], n),
                        -np.einsum("mix,mx->mi", grads[t1], n)], axis=1)
    scale = coeffs.beta * mesh.h * table.areas[fids]
    local = scale[:, None, None] * d[:, :, None] * d[:, None, :]
    verts = np.concatenate([mesh.tets[t0], mesh.tets[t1]], axis=1)
    lift = None if liftvals is None else liftvals[verts]
    OracleAccumulator.add_local(acc, local, vdof[verts], lift)


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_ghost_penalty_matches_oriented_table(problem, monkeypatch):
    # unoriented normals flip the sign of jumps, never of their products;
    # the five-vertex patches sum each shared vertex's two jumps before
    # they are multiplied.  Level 2: A and Ahat within 1.5e-15 (interface)
    # and 1.2e-15 (fictitious domain), b and bhat within 2.3e-16 and 0
    config = ExperimentConfig(problem=problem)
    mesh = MeshHierarchy.build(2).finest
    got = assemble_recording(mesh, config)
    monkeypatch.setattr(assembly, "_SystemAccumulator", UpperBlockOracle)
    monkeypatch.setattr(assembly, "_add_ghost", table_add_ghost)
    assert_close_systems(got, assemble_recording(mesh, config))


@pytest.fixture(scope="module")
def paper_systems():
    """(A, b, tsys) at the paper centre, levels 0-2 of both problems."""
    levels = MeshHierarchy.build(2).levels
    return {(problem, level): assemble_recording(
                mesh, ExperimentConfig(problem=problem))
            for problem in (INTERFACE, FICTITIOUS)
            for level, mesh in enumerate(levels)}


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_assembled_matrix_exactly_symmetric(paper_systems, problem, level):
    # full blocks summed A[i, j] and A[j, i] in different orders: 15,386
    # entries of the level-2 interface A differed from their mirror
    A = paper_systems[problem, level][0]
    assert (A != A.T).nnz == 0


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
@pytest.mark.parametrize("level", [1, 2])
def test_ahat_stores_no_rounding_residue(paper_systems, problem, level):
    # the 8 x 8 ghost blocks left 14,460 entries below 1e-12 max|Ahat| in
    # the level-2 interface Ahat, where the exact sum is zero
    data = np.abs(paper_systems[problem, level][2].Ahat.data)
    assert data.min() >= 1e-12 * data.max()


@pytest.mark.parametrize("side", [1, 2])
def test_ghost_patches_annihilate_linear_functions(side):
    mesh, ci, _ = make_problem(2, center=ExperimentConfig().x0)
    verts, d, areas = assembly._ghost_patches(mesh, ci, mesh.gradients, side)
    assert verts.shape[0] > 0 and np.all(areas > 0)
    # five distinct vertices: the facet's 3 and one apex of each tet
    assert np.all(np.diff(np.sort(verts, axis=1), axis=1) > 0)
    rng = np.random.default_rng(5)
    for slope, offset in ((np.zeros(3), 1.0),
                          (rng.standard_normal(3), rng.standard_normal())):
        du = d * (mesh.vertices @ slope + offset)[verts]
        assert np.all(np.abs(du.sum(axis=1))
                      <= 1e-12 * np.abs(du).sum(axis=1))


def test_dirichlet_values_layout():
    mesh = MeshHierarchy.build(0).finest

    def g(pts, side):
        return pts[:, 0] + side

    vals = dirichlet_values(mesh, g)
    bnd = mesh.boundary_vertex_flags
    assert np.all(vals[~bnd] == 0.0)
    assert np.allclose(vals[bnd, 0], mesh.vertices[bnd, 0] + 1)
    assert np.allclose(vals[bnd, 1], mesh.vertices[bnd, 0] + 2)
