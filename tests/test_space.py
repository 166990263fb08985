import numpy as np
import pytest

from cutprec.geometry import CUT, SphereLevelSet, build_cut_info
from cutprec.mesh import MeshHierarchy, build_initial_mesh
from cutprec.space import (
    FICTITIOUS,
    INTERFACE,
    build_dof_layout,
    build_index_sets,
)

X0 = (0.001, 0.002, 0.003)


@pytest.fixture(scope="module")
def hierarchy():
    return MeshHierarchy.build(2)


@pytest.fixture(scope="module")
def cutinfos(hierarchy):
    phi = SphereLevelSet(center=X0)
    return [build_cut_info(m, phi) for m in hierarchy.levels]


def test_interface_dimensions_levels_0_to_2(hierarchy, cutinfos):
    expected = {0: (27, 27), 1: (343, 208), 2: (3375, 844)}
    for mesh, ci in zip(hierarchy.levels, cutinfos):
        sets = build_index_sets(mesh, ci, INTERFACE)
        layout = build_dof_layout(sets)
        assert (layout.N0, layout.N1) == expected[mesh.level]


def test_interface_partition_invariants(hierarchy, cutinfos):
    for mesh, ci in zip(hierarchy.levels, cutinfos):
        s = build_index_sets(mesh, ci, INTERFACE)
        assert np.intersect1d(s.IG1, s.IG2).size == 0
        assert np.array_equal(np.union1d(s.IG1, s.IG2), s.IG)
        p1 = np.setdiff1d(s.I1, s.IG1)
        p2 = np.setdiff1d(s.I2, s.IG2)
        assert np.intersect1d(p1, p2).size == 0
        assert np.array_equal(np.union1d(p1, p2), s.I0)
        # a node not in region 2 lies in region 1's interior set
        assert np.setdiff1d(s.IG2, p1).size == 0
        # defining sign rule
        assert np.all(ci.vertex_phi[s.IG1] > 0)
        assert np.all(ci.vertex_phi[s.IG2] < 0)


def test_partition_invariants_random_centers():
    mesh = MeshHierarchy.build(1).finest
    rng = np.random.default_rng(19)
    for _ in range(5):
        c = rng.uniform(-0.25, 0.25, size=3)
        r = rng.uniform(0.6, 1.2)
        ci = build_cut_info(mesh, SphereLevelSet(center=c, radius=r))
        s = build_index_sets(mesh, ci, INTERFACE)  # validates internally
        layout = build_dof_layout(s)
        assert layout.dim == s.I1.size + s.I2.size


def test_no_cut_degenerates_to_conforming_space():
    mesh = build_initial_mesh(2, ((0, 0, 0), (1, 1, 1)))
    ci = build_cut_info(mesh, SphereLevelSet(center=(50.0, 0, 0)))
    s = build_index_sets(mesh, ci, INTERFACE)
    assert s.IG.size == 0
    layout = build_dof_layout(s)
    assert layout.N1 == 0
    assert layout.dim == s.I0.size
    assert np.array_equal(layout.v2_vertices, s.I0)  # everything on side 2


def test_dof_layout_orderings(hierarchy, cutinfos):
    mesh, ci = hierarchy.levels[1], cutinfos[1]
    s = build_index_sets(mesh, ci, INTERFACE)
    lay = build_dof_layout(s)
    p1 = np.setdiff1d(s.I1, s.IG1)
    p2 = np.setdiff1d(s.I2, s.IG2)
    assert np.array_equal(lay.v1_vertices, np.concatenate([p1, s.IG1]))
    assert np.array_equal(lay.v2_vertices, np.concatenate([p2, s.IG2]))
    assert np.array_equal(lay.x0_vertices, s.I0)
    assert np.array_equal(lay.x1_vertices, s.IG)
    # inverse maps are bijections onto consecutive ranges
    assert np.array_equal(np.sort(lay.v1_dof[lay.v1_vertices]),
                          np.arange(lay.v1_vertices.size))
    assert np.array_equal(np.sort(lay.v2_dof[lay.v2_vertices]),
                          np.arange(lay.v1_vertices.size, lay.dim))
    assert np.array_equal(lay.x0_dof[lay.x0_vertices], np.arange(lay.N0))
    assert np.array_equal(lay.x1_dof[lay.x1_vertices],
                          np.arange(lay.N0, lay.dim))


def test_fd_recount_oracle(hierarchy, cutinfos):
    mesh, ci = hierarchy.levels[0], cutinfos[0]
    s = build_index_sets(mesh, ci, FICTITIOUS)
    # brute-force recount from scratch
    ext1_nodes = set()
    cut_nodes = set()
    for t, tet in enumerate(mesh.tets):
        if ci.tet_class[t] <= CUT:
            ext1_nodes.update(tet.tolist())
        if ci.tet_class[t] == CUT:
            cut_nodes.update(tet.tolist())
    strip = {v for v in cut_nodes if ci.vertex_phi[v] > 0}
    interior = ext1_nodes - strip
    assert set(s.I1.tolist()) == ext1_nodes
    assert set(s.IG1.tolist()) == strip
    assert set(s.I0.tolist()) == interior
    lay = build_dof_layout(s)
    assert (lay.N0, lay.N1) == (len(interior), len(strip))


def test_fd_dimensions_match_reference_counts(hierarchy, cutinfos):
    # observed agreement with the uniform-refinement node counts
    expected = {0: (7, 44), 1: (81, 140), 2: (619, 500)}
    for mesh, ci in zip(hierarchy.levels, cutinfos):
        lay = build_dof_layout(build_index_sets(mesh, ci, FICTITIOUS))
        assert (lay.N0, lay.N1) == expected[mesh.level]


def test_fd_layout_is_identity_friendly(hierarchy, cutinfos):
    mesh, ci = hierarchy.levels[1], cutinfos[1]
    lay = build_dof_layout(build_index_sets(mesh, ci, FICTITIOUS))
    assert lay.v2_vertices.size == 0
    assert np.array_equal(lay.v1_vertices,
                          np.concatenate([lay.x0_vertices, lay.x1_vertices]))


def test_growth_factors():
    phi = SphereLevelSet(center=X0)
    hier = MeshHierarchy.build(3)
    n0, n1 = [], []
    for mesh in hier.levels:
        ci = build_cut_info(mesh, phi)
        lay = build_dof_layout(build_index_sets(mesh, ci, INTERFACE))
        n0.append(lay.N0)
        n1.append(lay.N1)
    # asymptotic growth: x8 for the global space, x4 for the strip space,
    # asserted for transitions from level 2 on (earlier ratios are preasymptotic)
    for k in (3,):
        assert 7.0 <= n0[k] / n0[k - 1] <= 9.0
        assert 3.0 <= n1[k] / n1[k - 1] <= 5.0
    for k in (2, 3):
        assert 3.0 <= n1[k] / n1[k - 1] <= 5.0

