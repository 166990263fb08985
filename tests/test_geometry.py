import math

import numpy as np
import pytest

from cutprec.mesh import MeshHierarchy, build_initial_mesh
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
    cut_volume_rule,
    ghost_facets,
    interface_rule,
    p1_gradients,
)

REF_TET = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
X0 = (0.001, 0.002, 0.003)


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
    r_neg, r_pos = cut_volume_rule(REF_TET, phi)
    assert r_neg.weights.sum() == pytest.approx(7.0 / 48.0, abs=1e-14)
    assert r_pos.weights.sum() == pytest.approx(1.0 / 6.0 - 7.0 / 48.0, abs=1e-14)
    assert np.all(r_neg.weights >= 0) and np.all(r_pos.weights >= 0)
    assert np.all(r_neg.points[:, 0] <= 0.5 + 1e-14)
    assert np.all(r_pos.points[:, 0] >= 0.5 - 1e-14)


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
    r_neg, _ = cut_volume_rule(REF_TET, phi)
    assert r_neg.weights.sum() == pytest.approx(mc, abs=5e-4)


def test_cut_volume_all_sign_patterns_partition():
    rng = np.random.default_rng(11)
    for trial in range(50):
        verts = rng.standard_normal((4, 3))
        phi = rng.standard_normal(4)
        if np.all(phi < 0) or np.all(phi > 0) or np.any(phi == 0):
            continue
        r_neg, r_pos = cut_volume_rule(verts, phi)
        e = verts[1:] - verts[0]
        vol = abs(np.dot(e[0], np.cross(e[1], e[2]))) / 6.0
        assert r_neg.weights.sum() + r_pos.weights.sum() == pytest.approx(
            vol, abs=1e-12 * max(1.0, vol))
        assert np.all(r_neg.weights >= 0) and np.all(r_pos.weights >= 0)


def test_uncut_rule_full_volume():
    # the reference rule is a convex combination over the whole tetrahedron:
    # mapped onto one, its weights sum to the volume
    assert TET_RULE_W.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(TET_RULE_W > 0) and np.all(TET_RULE_LAM >= 0)
    assert np.allclose(TET_RULE_LAM.sum(axis=1), 1.0, atol=1e-15)


def test_cut_rule_rejects_uncut():
    with pytest.raises(ValueError):
        cut_volume_rule(REF_TET, np.array([-1.0, -1, -1, -1]))


def test_mapped_rule_matches_symbolic_integrals_per_subtet():
    import sympy as sp

    x, y, z, u, v, w = sp.symbols("x y z u v w")
    phi = np.array([-0.3, 0.8, -0.5, 0.6])  # 2-2 cut
    r_neg, r_pos = cut_volume_rule(REF_TET, phi)
    q = TET_RULE_W.size  # each sub-tetrahedron carries q consecutive points
    for rule in (r_neg, r_pos):
        for i, sub in enumerate(rule.subtets):
            pts = rule.points[i * q:(i + 1) * q]
            wts = rule.weights[i * q:(i + 1) * q]
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
    rule = interface_rule(REF_TET, phi)
    assert rule.weights.sum() == pytest.approx(0.125, abs=1e-14)
    assert np.allclose(rule.normal, [1.0, 0, 0], atol=1e-14)
    assert np.allclose(rule.points[:, 0], 0.5, atol=1e-14)


def test_interface_quad_case_area():
    # phi = x + y - 0.5 separates vertices (0,3) from (1,2)
    phi = REF_TET[:, 0] + REF_TET[:, 1] - 0.5
    rule = interface_rule(REF_TET, phi)
    # cross-section polygon of the plane x+y=1/2: symbolic area
    import sympy as sp
    xs, zs = sp.symbols("xs zs")
    # plane points (x, 1/2 - x, z) inside tet: x in [0, 1/2], z in [0, 1/2]
    # metric factor sqrt(2) for the graph y = 1/2 - x
    exact = sp.sqrt(2) * sp.integrate(
        sp.integrate(sp.Integer(1), (zs, 0, sp.Rational(1, 2))),
        (xs, 0, sp.Rational(1, 2)))
    assert rule.weights.sum() == pytest.approx(float(exact), abs=1e-14)
    assert np.allclose(rule.normal, [1 / np.sqrt(2), 1 / np.sqrt(2), 0],
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
    for t in ci.cut_tets[::7]:
        verts = mesh.vertices[mesh.tets[t]]
        pv = ci.vertex_phi[mesh.tets[t]]
        grad = p1_gradients(verts).T @ pv
        c = ci.cut_index[t]
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
    for t in ci.cut_tets[:6]:
        verts = mesh.vertices[mesh.tets[t]]
        lam = rng.dirichlet(np.ones(4), size=20000)
        pts = lam @ verts
        # fraction by the linear interpolant, consistent with the cut geometry
        pv = ci.vertex_phi[mesh.tets[t]]
        frac = np.mean(lam @ pv < 0)
        k1 = ci.kappa1[ci.cut_index[t]]
        assert k1 == pytest.approx(frac, abs=0.02)


def test_translation_robustness():
    hier = MeshHierarchy.build(1)
    mesh = hier.finest
    shift = mesh.h
    a = build_cut_info(mesh, SphereLevelSet(center=X0))
    b = build_cut_info(mesh, SphereLevelSet(center=(X0[0] + shift, X0[1], X0[2])))
    assert a.n_cut == b.n_cut
    assert np.allclose(np.sort(a.kappa1), np.sort(b.kappa1), atol=1e-9)


def test_ghost_facets_definition():
    phi = SphereLevelSet(center=X0)
    mesh = MeshHierarchy.build(2).finest
    ci = build_cut_info(mesh, phi)
    for side in (1, 2):
        fids = ghost_facets(mesh, ci, side)
        assert fids.size > 0
        in_ext = (ci.tet_class <= CUT) if side == 1 else (ci.tet_class >= CUT)
        # brute-force re-derivation from the classification
        expected = []
        for f in range(mesh.facets.n_facets):
            t0, t1 = mesh.facets.tets[f]
            if t1 < 0:
                continue
            if in_ext[t0] and in_ext[t1] and (
                    ci.tet_class[t0] == CUT or ci.tet_class[t1] == CUT):
                expected.append(f)
        assert np.array_equal(fids, np.array(expected))


def test_ghost_facets_empty_without_cuts():
    mesh = build_initial_mesh(2, ((0, 0, 0), (1, 1, 1)))
    ci = build_cut_info(mesh, SphereLevelSet(center=(50.0, 0, 0)))
    assert ghost_facets(mesh, ci, 1).size == 0
    assert ghost_facets(mesh, ci, 2).size == 0


def test_cut_fraction_bounds_derived_example():
    phi = SphereLevelSet(center=X0)
    mesh = MeshHierarchy.build(0).finest
    ci = build_cut_info(mesh, phi)
    assert ci.n_cut > 0
    assert np.all(np.abs(ci.kappa1 - 0.5) < 0.5)
