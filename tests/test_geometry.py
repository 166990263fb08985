import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cutprec.mesh import Mesh, MeshHierarchy, build_initial_mesh, p1_gradients
from cutprec.geometry import (
    CUT,
    NEG,
    POS,
    SNAP_FACTOR,
    SphereLevelSet,
    TET_RULE_LAM,
    TET_RULE_W,
    TRI_RULE_LAM,
    TRI_RULE_W,
    build_cut_info,
    classify,
    cut_rules,
    facet_normals,
    ghost_facets,
    _mapped_rule,
)
from test_mesh import reference_facets

REF_TET = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
X0 = (0.001, 0.002, 0.003)


# Reference implementation: the cut of one tetrahedron at a time.  The
# batched kernel must reproduce it bit for bit.

def _prism_tets(a0, a1, a2, b0, b1, b2):
    """Split the prism with triangles (a0,a1,a2), (b0,b1,b2) and edges ai-bi."""
    return [np.array([a0, a1, a2, b0]),
            np.array([a1, a2, b0, b1]),
            np.array([a2, b0, b1, b2])]


def _cut_points(verts, phi, lone, others):
    return [verts[lone] + (phi[lone] / (phi[lone] - phi[o])) * (verts[o] - verts[lone])
            for o in others]


def split_cut_tet(verts, phi):
    """Sub-tessellate one cut tet; returns (neg sub-tets, pos sub-tets,
    interface triangles)."""
    neg_ids = [i for i in range(4) if phi[i] < 0.0]
    pos_ids = [i for i in range(4) if phi[i] >= 0.0]
    if not neg_ids or not pos_ids:
        raise ValueError("tet is not cut by the linear level set")
    if len(neg_ids) == 1 or len(pos_ids) == 1:
        lone, others = (neg_ids[0], pos_ids) if len(neg_ids) == 1 \
            else (pos_ids[0], neg_ids)
        p = _cut_points(verts, phi, lone, others)
        corner = [np.array([verts[lone], p[0], p[1], p[2]])]
        prism = _prism_tets(p[0], p[1], p[2],
                            verts[others[0]], verts[others[1]], verts[others[2]])
        tris = [np.array([p[0], p[1], p[2]])]
        if len(neg_ids) == 1:
            return corner, prism, tris
        return prism, corner, tris
    a, b = neg_ids
    c, d = pos_ids
    pac, pad = _cut_points(verts, phi, a, [c, d])
    pbc, pbd = _cut_points(verts, phi, b, [c, d])
    neg_sub = _prism_tets(verts[a], pac, pad, verts[b], pbc, pbd)
    pos_sub = _prism_tets(verts[c], pac, pbc, verts[d], pad, pbd)
    tris = [np.array([pac, pad, pbd]), np.array([pac, pbd, pbc])]
    return neg_sub, pos_sub, tris


def _map_tet_rule(subtets):
    sub = np.array(subtets)
    pts = (TET_RULE_LAM @ sub).reshape(-1, 3)
    e = sub[:, 1:] - sub[:, :1]
    vols = np.abs(np.einsum("ki,ki->k", e[:, 0],
                            np.cross(e[:, 1], e[:, 2]))) / 6.0
    return pts, (vols[:, None] * TET_RULE_W[None, :]).reshape(-1)


def _map_tri_rule(tris):
    tri = np.array(tris)
    pts = (TRI_RULE_LAM @ tri).reshape(-1, 3)
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    return pts, (areas[:, None] * TRI_RULE_W[None, :]).reshape(-1)


def oracle_cut_info(mesh, phi) -> dict:
    """The CutInfo arrays built one element at a time."""
    tet_class, vertex_phi = classify(mesh, phi)
    cut_tets = np.flatnonzero(tet_class == CUT)
    parts = {k: [] for k in ("vpts1", "vw1", "vpts2", "vw2", "spts", "sw")}
    vol1, vol2, normals, areas = [], [], [], []
    for t in cut_tets:
        verts = mesh.vertices[mesh.tets[t]]
        pv = vertex_phi[mesh.tets[t]]
        neg_sub, pos_sub, tris = split_cut_tet(verts, pv)
        for side, sub in (("1", neg_sub), ("2", pos_sub)):
            pts, w = _map_tet_rule(sub)
            parts["vpts" + side].append(pts)
            parts["vw" + side].append(w)
        pts, w = _map_tri_rule(tris)
        parts["spts"].append(pts)
        parts["sw"].append(w)
        vol1.append(parts["vw1"][-1].sum())
        vol2.append(parts["vw2"][-1].sum())
        grad = p1_gradients(verts).T @ pv
        normals.append(grad / np.linalg.norm(grad))
        areas.append(sum(0.5 * np.linalg.norm(np.cross(tri[1] - tri[0],
                                                       tri[2] - tri[0]))
                         for tri in tris))
    out = dict(tet_class=tet_class, vertex_phi=vertex_phi, cut_tets=cut_tets,
               vol1=np.array(vol1), vol2=np.array(vol2),
               normals=np.array(normals).reshape(-1, 3),
               area=np.array(areas))
    out["kappa1"] = out["vol1"] / mesh.volumes[cut_tets]
    for pts, w, off in (("vpts1", "vw1", "voff1"), ("vpts2", "vw2", "voff2"),
                        ("spts", "sw", "soff")):
        n = len(parts[w])
        out[pts] = np.concatenate(parts[pts]) if n else np.zeros((0, 3))
        out[w] = np.concatenate(parts[w]) if n else np.zeros(0)
        out[off] = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([a.size for a in parts[w]], out=out[off][1:])
    return out


def one_cut(verts, phi):
    """The batched kernel on a one-element input."""
    return cut_rules(np.asarray(verts)[None], np.asarray(phi)[None])


def monomial_integral_ref_tet(a, b, c):
    """Exact integral of x^a y^b z^c over the reference tetrahedron."""
    return (math.factorial(a) * math.factorial(b) * math.factorial(c)
            / math.factorial(a + b + c + 3))


def monomial_integral_ref_tri(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_tet_rule_is_degree_5():
    pts = TET_RULE_LAM[:, 1:]  # barycentric -> reference coordinates
    w = TET_RULE_W / 6.0  # reference tet volume is 1/6
    assert np.all(TET_RULE_W > 0)
    for a in range(6):
        for b in range(6 - a):
            for c in range(6 - a - b):
                approx = np.sum(w * pts[:, 0]**a * pts[:, 1]**b * pts[:, 2]**c)
                assert approx == pytest.approx(
                    monomial_integral_ref_tet(a, b, c), abs=1e-15)


def test_tri_rule_is_degree_4():
    pts = TRI_RULE_LAM[:, 1:]
    w = TRI_RULE_W / 2.0  # reference triangle area is 1/2
    assert np.all(TRI_RULE_W > 0)
    for a in range(5):
        for b in range(5 - a):
            approx = np.sum(w * pts[:, 0]**a * pts[:, 1]**b)
            assert approx == pytest.approx(
                monomial_integral_ref_tri(a, b), abs=1e-15)


def test_p1_gradients_affine():
    rng = np.random.default_rng(3)
    verts = REF_TET + 0.3 * rng.standard_normal((4, 3))
    g = p1_gradients(verts)
    assert np.allclose(g.sum(axis=0), 0, atol=1e-12)
    # gradient of the interpolant of an affine function recovers its slope
    slope = np.array([1.0, -2.0, 0.5])
    vals = verts @ slope + 3.0
    assert np.allclose(g.T @ vals, slope, atol=1e-12)


def test_classify_trivial_cases():
    mesh = build_initial_mesh(2, ((0, 0, 0), (1, 1, 1)))
    far = SphereLevelSet(center=(50.0, 0, 0), radius=1.0)
    tet_class, vals = classify(mesh, far)
    assert np.all(tet_class == POS)
    enclosing = SphereLevelSet(center=(0.5, 0.5, 0.5), radius=10.0)
    tet_class, _ = classify(mesh, enclosing)
    assert np.all(tet_class == NEG)


def test_classify_mixed_signs_is_cut():
    # a tet with vertex values (-1,-1,1,1) must be CUT
    mesh = build_initial_mesh(1, ((0, 0, 0), (1, 1, 1)))

    def phi(x):
        x = np.asarray(x)
        return np.where(x[..., 0] < 0.5, -1.0, 1.0)

    tet_class, _ = classify(mesh, phi)
    vert_neg = mesh.vertices[:, 0] < 0.5
    for t, tet in enumerate(mesh.tets):
        signs = vert_neg[tet]
        if signs.all():
            assert tet_class[t] == NEG
        elif not signs.any():
            assert tet_class[t] == POS
        else:
            assert tet_class[t] == CUT


def test_classify_snapping_assigns_zero_to_inside():
    # sphere passing exactly through lattice vertices
    mesh = build_initial_mesh(2, ((0, 0, 0), (1, 1, 1)))
    phi = SphereLevelSet(center=(0.5, 0.5, 0.5), radius=0.5)
    _, vals = classify(mesh, phi)
    assert np.all(vals != 0.0)
    face_centers = [(0.0, 0.5, 0.5), (1.0, 0.5, 0.5), (0.5, 0.0, 0.5),
                    (0.5, 1.0, 0.5), (0.5, 0.5, 0.0), (0.5, 0.5, 1.0)]
    for fc in face_centers:
        vid = np.flatnonzero(np.all(mesh.vertices == fc, axis=1))[0]
        assert vals[vid] == -SNAP_FACTOR * mesh.h


def test_cut_volume_reference_halfplane():
    phi = REF_TET[:, 0] - 0.5
    r = one_cut(REF_TET, phi)
    assert r.vw1.sum() == pytest.approx(7.0 / 48.0, abs=1e-14)
    assert r.vw2.sum() == pytest.approx(1.0 / 6.0 - 7.0 / 48.0, abs=1e-14)
    assert np.all(r.vw1 >= 0) and np.all(r.vw2 >= 0)
    assert np.all(r.vpts1[:, 0] <= 0.5 + 1e-14)
    assert np.all(r.vpts2[:, 0] >= 0.5 - 1e-14)


def test_cut_volume_monte_carlo_cross_check():
    rng = np.random.default_rng(7)
    n = 400000
    # uniform samples in the reference tet by folding the unit cube
    s = np.sort(rng.random((n, 3)), axis=1)
    pts = np.stack([s[:, 0], s[:, 1] - s[:, 0], s[:, 2] - s[:, 1]], axis=1)
    frac = np.mean(pts[:, 0] < 0.5)
    mc = frac / 6.0
    assert mc == pytest.approx(7.0 / 48.0, abs=4 * (1.0 / 6.0) / math.sqrt(n))
    phi = REF_TET[:, 0] - 0.5
    assert one_cut(REF_TET, phi).vw1.sum() == pytest.approx(mc, abs=5e-4)


def test_cut_volume_all_sign_patterns_partition():
    rng = np.random.default_rng(11)
    for trial in range(50):
        verts = rng.standard_normal((4, 3))
        phi = rng.standard_normal(4)
        if np.all(phi < 0) or np.all(phi > 0) or np.any(phi == 0):
            continue
        r = one_cut(verts, phi)
        e = verts[1:] - verts[0]
        vol = abs(np.dot(e[0], np.cross(e[1], e[2]))) / 6.0
        assert r.vw1.sum() + r.vw2.sum() == pytest.approx(
            vol, abs=1e-12 * max(1.0, vol))
        assert np.all(r.vw1 >= 0) and np.all(r.vw2 >= 0)


def test_uncut_rule_full_volume():
    # the reference rule is a convex combination over the whole tetrahedron:
    # mapped onto one, its weights sum to the volume
    assert TET_RULE_W.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(TET_RULE_W > 0) and np.all(TET_RULE_LAM >= 0)
    assert np.allclose(TET_RULE_LAM.sum(axis=1), 1.0, atol=1e-15)


def test_cut_rule_rejects_uncut():
    with pytest.raises(ValueError):
        one_cut(REF_TET, np.array([-1.0, -1, -1, -1]))


@pytest.mark.parametrize("lam", [TET_RULE_LAM, TRI_RULE_LAM],
                         ids=["tet", "triangle"])
def test_mapped_rule_matches_einsum_mapping(lam):
    # the rules are mapped by one matmul, which sums in another order than
    # the einsum it replaced: the points move in the last bits only
    cells = np.random.default_rng(3).uniform(-2.0, 2.0,
                                             (40, 3, lam.shape[1], 3))
    pts, w = _mapped_rule(cells)
    want = np.einsum("qi,kix->kqx", lam, cells.reshape(120, -1, 3))
    assert pts.shape == (40, 3 * lam.shape[0], 3) and w.shape == pts.shape[:2]
    assert np.max(np.abs(pts - want.reshape(pts.shape))) <= \
        1e-14 * np.max(np.abs(want))


def test_mapped_rule_matches_symbolic_integrals_per_subtet():
    import sympy as sp

    x, y, z, u, v, w = sp.symbols("x y z u v w")
    phi = np.array([-0.3, 0.8, -0.5, 0.6])  # 2-2 cut
    r = one_cut(REF_TET, phi)
    q = TET_RULE_W.size  # each sub-tetrahedron carries q consecutive points
    neg_sub, pos_sub, _ = split_cut_tet(REF_TET, phi)
    for points, weights, subtets in ((r.vpts1, r.vw1, neg_sub),
                                     (r.vpts2, r.vw2, pos_sub)):
        assert weights.size == q * len(subtets)
        for i, sub in enumerate(subtets):
            pts = points[i * q:(i + 1) * q]
            wts = weights[i * q:(i + 1) * q]
            for (a, b, c) in [(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 1, 1),
                              (4, 0, 0), (2, 0, 2)]:
                v0 = sub[0]
                J = (sub[1:] - sub[0]).T
                pt = sp.Matrix(v0) + sp.Matrix(J) * sp.Matrix([u, v, w])
                integrand = (pt[0]**a * pt[1]**b * pt[2]**c
                             * abs(sp.Matrix(J).det()))
                exact = sp.integrate(
                    sp.integrate(
                        sp.integrate(integrand, (w, 0, 1 - u - v)),
                        (v, 0, 1 - u)),
                    (u, 0, 1))
                approx = np.sum(wts * pts[:, 0]**a * pts[:, 1]**b
                                * pts[:, 2]**c)
                assert approx == pytest.approx(float(exact), abs=1e-14)


def test_interface_reference_halfplane():
    phi = REF_TET[:, 0] - 0.5
    r = one_cut(REF_TET, phi)
    assert r.sw.sum() == pytest.approx(0.125, abs=1e-14)
    assert np.allclose(r.normals[0], [1.0, 0, 0], atol=1e-14)
    assert np.allclose(r.spts[:, 0], 0.5, atol=1e-14)


def test_interface_quad_case_area():
    # phi = x + y - 0.5 separates vertices (0,3) from (1,2)
    phi = REF_TET[:, 0] + REF_TET[:, 1] - 0.5
    r = one_cut(REF_TET, phi)
    # cross-section polygon of the plane x+y=1/2: symbolic area
    import sympy as sp
    xs, zs = sp.symbols("xs zs")
    # plane points (x, 1/2 - x, z) inside tet: x in [0, 1/2], z in [0, 1/2]
    # metric factor sqrt(2) for the graph y = 1/2 - x
    exact = sp.sqrt(2) * sp.integrate(
        sp.integrate(sp.Integer(1), (zs, 0, sp.Rational(1, 2))),
        (xs, 0, sp.Rational(1, 2)))
    assert r.sw.sum() == pytest.approx(float(exact), abs=1e-14)
    assert np.allclose(r.normals[0], [1 / np.sqrt(2), 1 / np.sqrt(2), 0],
                       atol=1e-14)


def test_ball_volume_and_area_convergence():
    phi = SphereLevelSet(center=X0)
    hier = MeshHierarchy.build(2)
    v_err, a_err = [], []
    for mesh in hier.levels:
        ci = build_cut_info(mesh, phi)
        vol = mesh.volumes[ci.minus1].sum() + ci.vol1.sum()
        area = ci.sw.sum()
        v_err.append(abs(vol - 4 * np.pi / 3))
        a_err.append(abs(area - 4 * np.pi))
    for e in (v_err, a_err):
        for k in range(len(e) - 1):
            assert 3.0 <= e[k] / e[k + 1] <= 5.0


def test_cut_info_invariants_level1():
    phi = SphereLevelSet(center=X0)
    hier = MeshHierarchy.build(1)
    mesh = hier.finest
    ci = build_cut_info(mesh, phi)
    assert ci.n_cut > 0
    # measure partition per cut tet
    tot = mesh.volumes[ci.cut_tets]
    assert np.allclose(ci.vol1 + ci.vol2, tot, rtol=0, atol=1e-12)
    assert np.all((ci.kappa1 > 0) & (ci.kappa1 < 1))
    # element sets: minus_i and the strip partition ext_i
    for minus, ext in ((ci.minus1, ci.ext1), (ci.minus2, ci.ext2)):
        assert not set(minus) & set(ci.cut_tets)
        assert set(minus) | set(ci.cut_tets) == set(ext)


def test_normal_consistency():
    phi = SphereLevelSet(center=X0)
    mesh = MeshHierarchy.build(1).finest
    ci = build_cut_info(mesh, phi)
    for c in range(0, ci.n_cut, 7):
        t = ci.cut_tets[c]
        verts = mesh.vertices[mesh.tets[t]]
        pv = ci.vertex_phi[mesh.tets[t]]
        grad = p1_gradients(verts).T @ pv
        normal = ci.normals[c]
        assert np.dot(normal, grad) > 0
        # normals of a sphere point radially outward
        center = np.asarray(X0)
        for p in ci.spts[ci.soff[c]:ci.soff[c + 1]]:
            assert np.dot(normal, p - center) > 0


def test_kappa_monte_carlo_cross_check():
    phi = SphereLevelSet(center=X0)
    mesh = MeshHierarchy.build(0).finest
    ci = build_cut_info(mesh, phi)
    rng = np.random.default_rng(5)
    for c, t in enumerate(ci.cut_tets[:6]):
        verts = mesh.vertices[mesh.tets[t]]
        lam = rng.dirichlet(np.ones(4), size=20000)
        pts = lam @ verts
        # fraction by the linear interpolant, consistent with the cut geometry
        pv = ci.vertex_phi[mesh.tets[t]]
        frac = np.mean(lam @ pv < 0)
        k1 = ci.kappa1[c]
        assert k1 == pytest.approx(frac, abs=0.02)


def test_translation_robustness():
    hier = MeshHierarchy.build(1)
    mesh = hier.finest
    shift = mesh.h
    a = build_cut_info(mesh, SphereLevelSet(center=X0))
    b = build_cut_info(mesh, SphereLevelSet(center=(X0[0] + shift, X0[1], X0[2])))
    assert a.n_cut == b.n_cut
    assert np.allclose(np.sort(a.kappa1), np.sort(b.kappa1), atol=1e-9)


def reference_ghost_facets(table, tet_class, side):
    """Ids of the ghost facets in the full facet table: interior facets whose
    two tets lie in the side's extended domain, at least one of them cut."""
    in_ext = (tet_class <= CUT) if side == 1 else (tet_class >= CUT)
    t0, t1 = table.tets[:, 0], table.tets[:, 1]
    interior = t1 >= 0
    both_ext = interior & in_ext[t0] & in_ext[t1]
    one_cut = (tet_class[t0] == CUT) | (tet_class[t1] == CUT)
    return np.flatnonzero(both_ext & one_cut)


@pytest.fixture(scope="module")
def facet_tables():
    """The meshes of levels 0-3 and their full facet tables."""
    return [(mesh, reference_facets(mesh.vertices, mesh.tets))
            for mesh in MeshHierarchy.build(3).levels]


# the paper centre and two others at every level, and a sphere through the
# box boundary, whose cut tets have boundary faces
GHOST_CASES = [(level, centre) for level in range(4)
               for centre in (X0, (0.05, 0.1, 0.15), (0.02, 0.04, 0.06))] \
    + [(2, (0.8, 0.0, 0.0))]


@pytest.mark.parametrize("side", (1, 2), ids=("side1", "side2"))
@pytest.mark.parametrize("level, centre", GHOST_CASES,
                         ids=[f"l{level}-{centre}" for level, centre
                              in GHOST_CASES])
def test_ghost_facets_definition(facet_tables, level, centre, side):
    mesh, table = facet_tables[level]
    ci = build_cut_info(mesh, SphereLevelSet(center=centre))
    fids = reference_ghost_facets(table, ci.tet_class, side)
    assert fids.size > 0
    tets, triples = ghost_facets(mesh, ci, side)
    assert np.array_equal(tets, table.tets[fids])
    assert np.array_equal(triples, table.vertices[fids])
    normals, areas = facet_normals(mesh, triples)
    assert np.array_equal(areas, table.areas[fids])
    flip = np.einsum("fi,fi->f", normals, table.normals[fids]) < 0
    normals[flip] *= -1.0
    assert np.array_equal(normals, table.normals[fids])
    if centre[0] == 0.8:
        on_box = table.tets[:, 1] < 0
        assert np.any(ci.tet_class[table.tets[on_box, 0]] == CUT)


def hand_mesh(vertices, tets):
    """A Mesh of the given tets, which need not fill a box or conform."""
    vertices = np.asarray(vertices, dtype=float)
    tets = np.asarray(tets, dtype=np.int64)
    e = vertices[tets[:, 1:]] - vertices[tets[:, :1]]
    volumes = np.abs(np.einsum("ti,ti->t", e[:, 0],
                               np.cross(e[:, 1], e[:, 2]))) / 6.0
    nv = vertices.shape[0]
    return Mesh(vertices=vertices, tets=tets, level=0,
                boundary_vertex_flags=np.zeros(nv, dtype=bool),
                lattice=np.zeros((nv, 3), dtype=np.int64), lattice_n=1,
                box=np.array([[0.0, 0, 0], [2, 2, 2]]), volumes=volumes)


# tet 0 has vertex 0 inside the sphere and the others outside; the tets
# built on its face (1, 2, 3) lie outside
HAND_VERTICES = [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
                 [2, 2, 2]]
HAND_SPHERE = SphereLevelSet(center=(0.0, 0.0, 0.0), radius=0.5)


def test_ghost_facets_two_tets():
    mesh = hand_mesh(HAND_VERTICES, [[0, 1, 2, 3], [1, 2, 3, 4]])
    ci = build_cut_info(mesh, HAND_SPHERE)
    assert ci.tet_class.tolist() == [CUT, POS]
    tets, triples = ghost_facets(mesh, ci, 2)
    assert tets.tolist() == [[0, 1]] and triples.tolist() == [[1, 2, 3]]
    normals, areas = facet_normals(mesh, triples)
    assert np.allclose(np.abs(normals), 3 ** -0.5, rtol=0, atol=1e-15)
    assert areas[0] == pytest.approx(3 ** 0.5 / 2, rel=1e-15)
    tets, triples = ghost_facets(mesh, ci, 1)
    assert tets.shape == (0, 2) and triples.shape == (0, 3)
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        ghost_facets(mesh, ci, 3)


def test_ghost_facets_reject_nonconforming_mesh():
    # three tets on the face (1, 2, 3) of the cut tet
    mesh = hand_mesh(HAND_VERTICES, [[0, 1, 2, 3], [1, 2, 3, 4],
                                     [1, 2, 3, 5]])
    ci = build_cut_info(mesh, HAND_SPHERE)
    with pytest.raises(ValueError, match="nonconforming mesh"):
        ghost_facets(mesh, ci, 2)


def test_ghost_facets_empty_without_cuts():
    mesh = build_initial_mesh(2, ((0, 0, 0), (1, 1, 1)))
    ci = build_cut_info(mesh, SphereLevelSet(center=(50.0, 0, 0)))
    for side in (1, 2):
        tets, triples = ghost_facets(mesh, ci, side)
        assert tets.shape == (0, 2) and triples.shape == (0, 3)


def test_cut_fraction_bounds_derived_example():
    phi = SphereLevelSet(center=X0)
    mesh = MeshHierarchy.build(0).finest
    ci = build_cut_info(mesh, phi)
    assert ci.n_cut > 0
    assert np.all(np.abs(ci.kappa1 - 0.5) < 0.5)


def _assert_matches_oracle(ci, ref):
    for f in dataclasses.fields(ci):
        got, want = getattr(ci, f.name), ref[f.name]
        assert got.dtype == want.dtype and got.shape == want.shape, f.name
        assert np.array_equal(got, want), f.name


@functools.cache
def _hierarchy(level):
    return MeshHierarchy.build(level)


def test_cut_info_matches_oracle_paper_centre():
    mesh = _hierarchy(2).finest
    phi = SphereLevelSet(center=X0)
    _assert_matches_oracle(build_cut_info(mesh, phi), oracle_cut_info(mesh, phi))


@settings(max_examples=20, deadline=None)
@given(level=st.integers(0, 1),
       center=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
       radius=st.floats(0.3, 1.2),
       snap=st.none() | st.tuples(st.integers(0, 10**6), st.floats(-1.0, 1.0)))
def test_cut_info_matches_oracle(level, center, radius, snap):
    """Random spheres, some through a vertex within the snapping tolerance:
    every CutInfo array equals the one-element oracle's bit for bit."""
    mesh = _hierarchy(1).levels[level]
    if snap is not None:
        vid, frac = snap
        dist = np.linalg.norm(mesh.vertices[vid % mesh.n_vertices] - center)
        radius = float(dist) + frac * SNAP_FACTOR * mesh.h
    phi = SphereLevelSet(center=center, radius=radius)
    ci = build_cut_info(mesh, phi)
    ref = oracle_cut_info(mesh, phi)
    _assert_matches_oracle(ci, ref)
    tot = mesh.volumes[ci.cut_tets]
    assert np.all(np.abs(ci.vol1 + ci.vol2 - tot)
                  <= 1e-12 * np.maximum(1.0, tot))
    assert np.all(ci.vw1 >= 0) and np.all(ci.vw2 >= 0) and np.all(ci.sw >= 0)
    area = np.array([ci.sw[a:b].sum() for a, b in zip(ci.soff[:-1],
                                                       ci.soff[1:])])
    assert np.allclose(area, ref["area"], rtol=1e-12, atol=0)


def test_volume_partition_failure_names_tet():
    mesh = _hierarchy(0).finest
    phi = SphereLevelSet(center=X0)
    ci = build_cut_info(mesh, phi)
    t = ci.cut_tets[3]
    volumes = mesh.volumes.copy()
    volumes[t] *= 1.0 + 1e-6
    broken = dataclasses.replace(mesh, volumes=volumes)
    with pytest.raises(RuntimeError, match=rf"partition tet {t} "
                       rf"\(1 of {ci.n_cut} cut tets fail\)"):
        build_cut_info(broken, phi)
