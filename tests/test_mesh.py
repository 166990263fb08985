from typing import NamedTuple

import numpy as np
import pytest

import cutprec.geometry as geometry_module
from cutprec.experiments import ExperimentConfig
from cutprec.geometry import SphereLevelSet, _row_keys, build_cut_info, \
    ghost_facets
from cutprec.mesh import (
    Mesh,
    MeshHierarchy,
    _make_mesh,
    build_initial_mesh,
    p1_gradients,
)

BOX = ((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))

# Local vertex pairs of the 6 edges of a tetrahedron, in a fixed order.
_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# The three interior diagonals of the midpoint octahedron, as edge-slot pairs
# into _TET_EDGES, and the equatorial 4-cycle of the remaining midpoints.
_OCT_DIAGONALS = ((0, 5), (1, 4), (2, 3))
_OCT_EQUATORS = ((1, 2, 4, 3), (0, 2, 5, 3), (0, 1, 5, 4))


def _canonical_tet_order(lattice, tets):
    """Order each tet's vertices by (coordinate sum, i, j, k) of their lattice
    indices.  On cube-path (Kuhn) tets this is the canonical path order, which
    the octahedron tie-break needs to reproduce the halved-lattice subdivision
    at every refinement level."""
    lat = lattice[tets]
    order = np.lexsort((lat[:, :, 2], lat[:, :, 1], lat[:, :, 0],
                        lat.sum(axis=2)), axis=1)
    return np.take_along_axis(tets, order, axis=1)


def reference_refine(mesh: Mesh) -> tuple[Mesh, np.ndarray]:
    """Red refinement, the oracle of MeshHierarchy.build: every tet split
    into 8 children, numbered 8 t .. 8 t + 7 for tet t (4 corner tets and an
    octahedron cut along its shortest diagonal).

    Returns the fine mesh and the midpoint parents: fine vertex
    n_vertices + i is the midpoint of coarse vertices midpoint_parents[i]
    (a sorted pair, the edges keyed by np.unique); coarse vertex v keeps
    its id v.
    """
    tets = mesh.tets
    nv = mesh.n_vertices
    pairs = np.sort(tets[:, _TET_EDGES].reshape(-1, 2), axis=1)
    edges, edge_of = np.unique(pairs, axis=0, return_inverse=True)
    edge_of = edge_of.reshape(-1, 6)
    mid = nv + np.arange(edges.shape[0])

    fine_lattice = np.vstack([2 * mesh.lattice,
                              mesh.lattice[edges[:, 0]] + mesh.lattice[edges[:, 1]]])
    fine_n = 2 * mesh.lattice_n

    # m[t, e] = fine vertex id of the midpoint of edge slot e of tet t
    m = mid[edge_of]
    v = tets
    corner = np.stack([
        np.stack([v[:, 0], m[:, 0], m[:, 1], m[:, 2]], axis=1),
        np.stack([m[:, 0], v[:, 1], m[:, 3], m[:, 4]], axis=1),
        np.stack([m[:, 1], m[:, 3], v[:, 2], m[:, 5]], axis=1),
        np.stack([m[:, 2], m[:, 4], m[:, 5], v[:, 3]], axis=1),
    ], axis=1)

    # shortest interior diagonal of the midpoint octahedron; ties resolved by
    # the fixed candidate order, which selects the self-similar split on Kuhn tets
    ext_over_n = (mesh.box[1] - mesh.box[0]) / float(fine_n)
    mid_lat = fine_lattice[m]
    d2 = np.stack([
        np.sum(((mid_lat[:, a] - mid_lat[:, b]) * ext_over_n) ** 2, axis=1)
        for a, b in _OCT_DIAGONALS
    ], axis=1)
    choice = np.argmin(d2, axis=1)

    octa = np.empty((tets.shape[0], 4, 4), dtype=np.int64)
    for c, ((da, db), eq) in enumerate(zip(_OCT_DIAGONALS, _OCT_EQUATORS)):
        rows = choice == c
        if not np.any(rows):
            continue
        p, q = m[rows, da], m[rows, db]
        for k in range(4):
            ca, cb = m[rows, eq[k]], m[rows, eq[(k + 1) % 4]]
            octa[rows, k] = np.stack([p, ca, cb, q], axis=1)

    children = np.concatenate([corner, octa], axis=1).reshape(-1, 4)
    fine = _make_mesh(fine_lattice, fine_n, mesh.box,
                      _canonical_tet_order(fine_lattice, children),
                      level=mesh.level + 1)
    return fine, edges


def sorted_rows(tets):
    """The rows of a tet table in lexicographic order, and that order."""
    order = np.lexsort(tets.T[::-1])
    return tets[order], order


def test_hierarchy_matches_red_refinement():
    # the direct lattice build numbers vertices as red refinement does and
    # gives each tet the same vertex order; only the tet order differs
    hier = MeshHierarchy.build(3)
    want = build_initial_mesh(4)
    for k, mesh in enumerate(hier.levels):
        if k > 0:
            want, parents = reference_refine(want)
            got = hier.midpoint_parents[k - 1]
            assert got.dtype == parents.dtype and not got.flags.writeable
            assert np.array_equal(got, parents), k
        assert (mesh.level, mesh.lattice_n) == (want.level, want.lattice_n)
        for name in ("vertices", "lattice", "boundary_vertex_flags", "tets",
                     "volumes"):
            assert getattr(mesh, name).dtype == getattr(want, name).dtype
        for name in ("vertices", "lattice", "boundary_vertex_flags"):
            assert np.array_equal(getattr(mesh, name),
                                  getattr(want, name)), (k, name)
        got_tets, got_order = sorted_rows(mesh.tets)
        want_tets, want_order = sorted_rows(want.tets)
        assert np.array_equal(got_tets, want_tets), k
        assert np.array_equal(mesh.volumes[got_order],
                              want.volumes[want_order]), k


def test_initial_mesh_counts():
    mesh = build_initial_mesh(4, BOX)
    assert mesh.n_tets == 6 * 4**3 == 384
    assert mesh.n_vertices == 5**3 == 125


def test_unit_box_single_cube():
    mesh = build_initial_mesh(1, ((0, 0, 0), (1, 1, 1)))
    assert mesh.n_tets == 6
    assert mesh.n_vertices == 8
    assert mesh.volumes.sum() == pytest.approx(1.0, abs=1e-14)


def test_volume_partition_analytic_box():
    mesh = build_initial_mesh(4, BOX)
    assert mesh.volumes.sum() == pytest.approx(27.0, abs=1e-12)
    assert np.all(mesh.volumes > 0)


def test_orientation_convention():
    # the lattice volume of each mesh equals the determinant formula bit for
    # bit on every mesh the program and the tests build
    meshes = MeshHierarchy.build(3).levels + [
        build_initial_mesh(n, ((0, 0, 0), (1, 1, 1))) for n in (1, 2)] + [
        build_initial_mesh(2, BOX)]
    for mesh in meshes:
        p = mesh.vertices[mesh.tets]
        e = p[:, 1:] - p[:, :1]
        signed = np.einsum("ti,ti->t", e[:, 0],
                           np.cross(e[:, 1], e[:, 2])) / 6.0
        # Kuhn tets of both parities; volumes are the unsigned ones
        assert np.any(signed > 0) and np.any(signed < 0)
        assert np.all(signed != 0)
        assert mesh.volumes.dtype == signed.dtype
        assert np.array_equal(mesh.volumes, np.abs(signed)), mesh.lattice_n


# boxes whose lattice coordinates are exact binary fractions, and one whose
# are not
UNIT_BOX = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
INEXACT_BOX = ((-0.3, 0.1, -1.1), (0.9, 1.3, 0.7))


def shape_meshes():
    """Levels 0-3 of the hierarchy and the n = 1, 2 meshes of the default
    and the unit box: every lattice coordinate an exact binary fraction."""
    return MeshHierarchy.build(3).levels + [
        build_initial_mesh(n, box) for n in (1, 2) for box in (BOX, UNIT_BOX)]


def longest_edges(mesh):
    """The longest edge of every tet, by its 6 edge lengths."""
    verts = mesh.vertices[mesh.tets]
    return np.stack([np.linalg.norm(verts[:, a] - verts[:, b], axis=1)
                     for a, b in _TET_EDGES], axis=1).max(axis=1)


def test_shape_gradients_reproduce_every_tet():
    for mesh in shape_meshes():
        table = mesh.shape_gradients
        assert mesh.shape_gradients is table and table.shape == (6, 4, 3)
        assert not table.flags.writeable
        got = mesh.element_gradients(np.arange(mesh.n_tets))
        want = p1_gradients(mesh.vertices[mesh.tets])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (mesh.level, mesh.lattice_n)
    # grad(lambda_i) . (x_j - x_0) = delta_ij - delta_i0 on every tet
    verts = mesh.vertices[mesh.tets]
    edges = verts - verts[:, :1]
    want = np.eye(4)[None] - np.eye(4)[:, :1][None]
    assert np.allclose(np.einsum("tix,tjx->tij", got, edges), want,
                       rtol=0, atol=1e-12)


def test_shape_gradients_on_inexact_box():
    # the translates differ from the first cell by coordinate rounding
    # only: at most 3.6e-16 relative here
    for n in (1, 2, 3):
        mesh = build_initial_mesh(n, INEXACT_BOX)
        got = mesh.element_gradients(np.arange(mesh.n_tets))
        want = p1_gradients(mesh.vertices[mesh.tets])
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-15 * scale)


def test_diameter_is_every_longest_edge():
    for mesh in shape_meshes():
        assert np.all(longest_edges(mesh) == mesh.diameter), mesh.lattice_n
    for n in (1, 2, 3):  # at most 2.2e-16 relative
        mesh = build_initial_mesh(n, INEXACT_BOX)
        assert np.allclose(longest_edges(mesh), mesh.diameter, rtol=1e-15,
                           atol=0)


def inverse_gradients(verts):
    """The P1 gradients as rows of the batched inverse edge matrix, the
    formula p1_gradients replaced."""
    J = np.swapaxes(verts[..., 1:, :] - verts[..., :1, :], -1, -2)
    Jinv = np.linalg.inv(J)
    return np.concatenate([-Jinv.sum(axis=-2, keepdims=True), Jinv], axis=-2)


def random_tets(n, seed=11):
    """Perturbed unit tets, every second one with two vertices swapped, so
    that both orientations occur."""
    rng = np.random.default_rng(seed)
    ref = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    verts = ref + 0.25 * rng.standard_normal((n, 4, 3))
    verts[1::2, [1, 2]] = verts[1::2, [2, 1]]
    return verts


@pytest.mark.parametrize("source", ["random", "level2"])
def test_p1_gradients_match_inverse_oracle(source):
    if source == "random":
        verts = random_tets(2000)
    else:
        mesh = MeshHierarchy.build(2).finest
        verts = mesh.vertices[mesh.tets]
    e = verts[:, 1:] - verts[:, :1]
    signed = np.einsum("ti,ti->t", e[:, 0], np.cross(e[:, 1], e[:, 2]))
    assert np.any(signed > 0) and np.any(signed < 0)
    got, want = p1_gradients(verts), inverse_gradients(verts)
    scale = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * scale)
    assert np.all(np.abs(got.sum(axis=1)).max(axis=1) <= 1e-13 * scale)


def test_p1_gradients_reject_zero_determinant():
    verts = random_tets(3)
    verts[1, :, 2] = 0.0  # a flat tet in the plane z = 0
    with pytest.raises(np.linalg.LinAlgError):
        inverse_gradients(verts)
    with pytest.raises(np.linalg.LinAlgError, match="zero determinant"):
        p1_gradients(verts)


def test_refinement_reproduces_finer_cube_subdivision():
    # level k of the hierarchy is the 6-tets-per-cube mesh of the
    # 4 * 2^k grid, under its own vertex numbering
    def tet_keys(mesh):
        m = mesh.lattice_n + 1
        lat = mesh.lattice[mesh.tets]
        points = (lat[..., 0] * m + lat[..., 1]) * m + lat[..., 2]
        return sorted_rows(points)[0]

    for mesh in MeshHierarchy.build(2).levels:
        direct = build_initial_mesh(mesh.lattice_n, BOX)
        assert np.array_equal(tet_keys(mesh), tet_keys(direct))


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        build_initial_mesh(2, ((0, 0, 0), (1, 0, 1)))
    with pytest.raises(ValueError):
        build_initial_mesh(0, BOX)


def test_boundary_vertex_flags():
    mesh = build_initial_mesh(2, ((0, 0, 0), (1, 1, 1)))
    on_bnd = np.any((mesh.vertices == 0.0) | (mesh.vertices == 1.0), axis=1)
    assert np.array_equal(mesh.boundary_vertex_flags, on_bnd)
    assert np.count_nonzero(~mesh.boundary_vertex_flags) == 1


def test_refine_counts_and_volume():
    fine = MeshHierarchy.build(1).finest
    assert fine.n_tets == 8 * 384 == 3072
    assert fine.volumes.sum() == pytest.approx(27.0, abs=1e-10)
    assert np.all(fine.volumes > 0)


def test_hierarchy_tet_count_and_h():
    hier = MeshHierarchy.build(3)
    for ell, mesh in enumerate(hier.levels):
        assert mesh.n_tets == 384 * 8**ell
        assert mesh.h == pytest.approx(2.0**-ell * 0.75, abs=0)
        assert mesh.level == ell


def test_hierarchy_nesting_exact():
    hier = MeshHierarchy.build(2)
    for k in range(2):
        coarse, fine = hier.levels[k], hier.levels[k + 1]
        parents = hier.midpoint_parents[k]
        # coarse vertices reappear bitwise identically, under their own ids
        assert np.array_equal(coarse.vertices,
                              fine.vertices[:coarse.n_vertices])
        # every new vertex is the midpoint of its recorded coarse edge
        mids = 0.5 * (coarse.vertices[parents[:, 0]]
                      + coarse.vertices[parents[:, 1]])
        new = fine.vertices[coarse.n_vertices:]
        assert np.max(np.abs(new - mids)) < 1e-13


def test_mesh_deterministic():
    a, b = MeshHierarchy.build(2), MeshHierarchy.build(2)
    for ma, mb in zip(a.levels, b.levels):
        assert np.array_equal(ma.vertices, mb.vertices)
        assert np.array_equal(ma.tets, mb.tets)
    for pa, pb in zip(a.midpoint_parents, b.midpoint_parents):
        assert np.array_equal(pa, pb)


def test_facets_single_tet():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    facets = reference_facets(verts, np.array([[0, 1, 2, 3]]))
    assert facets.vertices.tolist() == [[0, 1, 2], [0, 1, 3], [0, 2, 3],
                                        [1, 2, 3]]
    assert np.all(facets.tets == [[0, -1]])


def test_facets_two_tets():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [1, 1, 1]])
    facets = reference_facets(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]))
    assert facets.vertices.shape[0] == 7
    interior = facets.tets[:, 1] >= 0
    assert np.count_nonzero(interior) == 1
    assert np.array_equal(facets.vertices[interior][0], [1, 2, 3])
    assert np.array_equal(facets.tets[interior][0], [0, 1])


def test_facet_count_against_bruteforce():
    mesh = MeshHierarchy.build(1).finest
    seen = {}
    for t, tet in enumerate(mesh.tets):
        for keep in ([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]):
            key = tuple(sorted(tet[keep]))
            seen.setdefault(key, []).append(t)
    n_bnd = sum(1 for v in seen.values() if len(v) == 1)
    n_int = sum(1 for v in seen.values() if len(v) == 2)
    facets = reference_facets(mesh.vertices, mesh.tets)
    assert [tuple(f) for f in facets.vertices] == sorted(seen)
    assert [sorted(t[t >= 0]) for t in facets.tets] == \
        [seen[key] for key in sorted(seen)]
    assert np.count_nonzero(facets.tets[:, 1] < 0) == n_bnd
    assert n_int == (4 * mesh.n_tets - n_bnd) // 2


def test_conformity_all_levels():
    for mesh in MeshHierarchy.build(2).levels:
        _, counts = np.unique(tet_faces(mesh.tets), axis=0,
                              return_counts=True)
        assert set(np.unique(counts)) <= {1, 2}
        # two triangles per boundary square of the (4 * 2^level)^3 grid
        n_side = 4 * 2 ** mesh.level
        assert np.count_nonzero(counts == 1) == 6 * 2 * n_side ** 2


def reference_row_keys(rows, n_vertices):
    """_row_keys through np.unique(axis=0), without integer keys: the rank
    of each row among the distinct rows, ordered as the keys are."""
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


class ReferenceFacets(NamedTuple):
    """The facet table every mesh built before the ghost lookup: sorted
    vertex triples, adjacent tets (lower id first, -1 on the boundary), unit
    normals oriented from the first tet towards the second (outward on the
    boundary) and areas."""

    vertices: np.ndarray
    tets: np.ndarray
    normals: np.ndarray
    areas: np.ndarray


def tet_faces(tets):
    """The 4 faces of each tet as sorted vertex triples, shape (4 nt, 3)."""
    local = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    return np.sort(tets[:, local], axis=2).reshape(-1, 3)


def reference_facets(vertices, tets):
    """The facet table with np.unique(axis=0) and numpy's own short-axis
    sums."""
    faces = tet_faces(tets)
    owners = np.repeat(np.arange(tets.shape[0]), 4)
    uniq, inv = np.unique(faces, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    nf = uniq.shape[0]
    counts = np.bincount(inv, minlength=nf)
    order = np.argsort(inv, kind="stable")
    adj = np.full((nf, 2), -1, dtype=np.int64)
    starts = np.zeros(nf + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    sorted_owners = owners[order]
    adj[:, 0] = sorted_owners[starts[:-1]]
    two = counts == 2
    adj[two, 1] = sorted_owners[starts[:-1][two] + 1]
    swap = two & (adj[:, 0] > adj[:, 1])
    adj[swap] = adj[swap][:, ::-1]
    p = vertices[uniq]
    nvec = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    nrm = np.linalg.norm(nvec, axis=1)
    normals = nvec / nrm[:, None]
    opp = vertices[tets[adj[:, 0]]].sum(axis=1) / 4.0
    wrong = np.einsum("fi,fi->f", normals, p.mean(axis=1) - opp) < 0
    normals[wrong] *= -1.0
    return ReferenceFacets(uniq, adj, normals, 0.5 * nrm)


@pytest.fixture(scope="module")
def level3_cut():
    mesh = MeshHierarchy.build(3).finest
    return mesh, build_cut_info(mesh, SphereLevelSet(center=ExperimentConfig().x0))


def test_integer_keys_match_unique_axis0(level3_cut, monkeypatch):
    mesh, cutinfo = level3_cut
    got = [ghost_facets(mesh, cutinfo, side) for side in (1, 2)]
    monkeypatch.setattr(geometry_module, "_row_keys", reference_row_keys)
    want = [ghost_facets(mesh, cutinfo, side) for side in (1, 2)]
    for side_got, side_want in zip(got, want):
        assert side_got[0].size > 0
        for g, w in zip(side_got, side_want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def test_integer_keys_reject_overflow():
    # a level-5 hierarchy of the default grid has 129^3 vertices, and
    # 129^9 > 2^63: the triple keys of its ghost lookup would wrap
    nv = 129 ** 3
    with pytest.raises(ValueError, match=f"{nv} vertices overflow the int64 "
                       "keys of vertex triples"):
        _row_keys(np.array([[0, 1, 2]]), nv)
    # the largest key, n^3 - 1, is exact up to n = 2^21 and no further
    n = 2 ** 21
    top = np.full((1, 3), n - 1)
    assert _row_keys(top, n).tolist() == [n ** 3 - 1]
    with pytest.raises(ValueError, match=f"{n + 1} vertices overflow"):
        _row_keys(top, n + 1)
