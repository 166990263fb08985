"""Structured tetrahedral meshes of a box and their uniform refinement hierarchy.

The initial mesh subdivides each cell of an n x n x n cube grid into 6
tetrahedra (Kuhn subdivision along the (0,0,0)->(1,1,1) cell diagonal).
Uniform refinement splits every tetrahedron into 8 children (red refinement:
4 corner tetrahedra plus an octahedron cut along its shortest diagonal).
Vertex coordinates are derived from integer lattice indices so that
coordinates of coarse vertices reappear bitwise identically on finer levels.
A mesh stores no facets: refinement keys the edges, and the ghost penalty
keys only the faces near the cut strip (geometry.ghost_facets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Axis insertion orders generating the 6 Kuhn tetrahedra of a cube.
_KUHN_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

# Local vertex pairs of the 6 edges of a tetrahedron, in a fixed order.
_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# The three interior diagonals of the midpoint octahedron, as edge-slot pairs
# into _TET_EDGES, and the equatorial 4-cycle of the remaining midpoints.
_OCT_DIAGONALS = ((0, 5), (1, 4), (2, 3))
_OCT_EQUATORS = ((1, 2, 4, 3), (0, 2, 5, 3), (0, 1, 5, 4))


@dataclass(frozen=True)
class Mesh:
    """Immutable conforming tetrahedral mesh.

    Vertices carry integer lattice indices (lattice, lattice_n): the physical
    coordinate is box_lo + extent * lattice / lattice_n.  Tet vertex orderings
    are canonical (sorted by lattice order); red refinement relies on this to
    reproduce the halved-lattice cube subdivision exactly.  volumes are the
    absolute values of the signed tet volumes.  All arrays are read-only
    after construction.
    """

    vertices: np.ndarray
    tets: np.ndarray
    level: int
    boundary_vertex_flags: np.ndarray
    lattice: np.ndarray
    lattice_n: int
    box: np.ndarray
    volumes: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.vertices, self.tets, self.boundary_vertex_flags,
                    self.lattice, self.box, self.volumes):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def h(self) -> float:
        """Grid size: the (largest) cube edge length of the background grid."""
        extent = self.box[1] - self.box[0]
        return float(np.max(extent) / self.lattice_n)

    @cached_property
    def gradients(self) -> np.ndarray:
        """Constant P1 shape gradients of every element, shape (nt, 4, 3)."""
        grads = p1_gradients(self.vertices[self.tets])
        grads.setflags(write=False)
        return grads


def p1_gradients(verts: np.ndarray) -> np.ndarray:
    """Constant gradients of the 4 nodal P1 basis functions on tets given as
    vertex arrays of shape (..., 4, 3); returns shape (..., 4, 3).

    With edges e_k = x_k - x_0, the gradients of lambda_1..3 are the rows
    of the inverse edge matrix, the cofactors (e_2 x e_3, e_3 x e_1,
    e_1 x e_2) over the determinant e_1 . (e_2 x e_3); lambda_0's is minus
    their sum.  A tet of zero volume raises LinAlgError.
    """
    e = verts[..., 1:, :] - verts[..., :1, :]
    grads = np.empty(verts.shape)
    for k in range(3):
        grads[..., k + 1, :] = np.cross(e[..., (k + 1) % 3, :],
                                        e[..., (k + 2) % 3, :])
    det = np.einsum("...x,...x->...", e[..., 0, :], grads[..., 1, :])
    if np.any(det == 0):
        raise np.linalg.LinAlgError("degenerate tetrahedron: zero determinant")
    grads[..., 1:, :] /= det[..., None, None]
    grads[..., 0, :] = -(grads[..., 1, :] + grads[..., 2, :] + grads[..., 3, :])
    return grads


def _signed_volumes(vertices: np.ndarray, tets: np.ndarray) -> np.ndarray:
    p = vertices[tets]
    e = p[:, 1:] - p[:, :1]
    return np.einsum("ti,ti->t", e[:, 0], np.cross(e[:, 1], e[:, 2])) / 6.0


def _unique_rows(rows: np.ndarray, n_vertices: int):
    """Distinct rows of sorted vertex ids, through one exact int64 key per row
    (vertex pairs: the edges of refine_uniform; triples: the faces of
    geometry.ghost_facets).

    Returns (uniq, inverse, order): uniq and inverse are those of
    np.unique(rows, axis=0, return_inverse=True), and order is the stable
    sort of the rows, np.argsort(inverse, kind="stable").
    """
    width = rows.shape[1]
    if n_vertices ** width - 1 > np.iinfo(np.int64).max:  # the largest key
        raise ValueError(f"{n_vertices} vertices overflow the int64 keys of "
                         f"vertex {'pairs' if width == 2 else 'triples'}")
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for col in rows.T:
        keys = keys * n_vertices + col
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    inverse = np.empty(keys.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return rows[order[first]], inverse, order


def _coords_from_lattice(lattice: np.ndarray, n: int, box: np.ndarray) -> np.ndarray:
    lo, hi = box[0], box[1]
    return lo + (hi - lo) * lattice / float(n)


def _canonical_tet_order(lattice: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Order each tet's vertices by (coordinate sum, i, j, k) of their lattice
    indices.  On cube-path (Kuhn) tets this is the canonical path order, which
    the octahedron tie-break needs to reproduce the halved-lattice subdivision
    at every refinement level."""
    lat = lattice[tets]
    order = np.lexsort((lat[:, :, 2], lat[:, :, 1], lat[:, :, 0],
                        lat.sum(axis=2)), axis=1)
    return np.take_along_axis(tets, order, axis=1)


def _make_mesh(lattice: np.ndarray, n: int, box: np.ndarray,
               tets: np.ndarray, level: int) -> Mesh:
    vertices = _coords_from_lattice(lattice, n, box)
    tets = _canonical_tet_order(lattice, tets)
    on_bnd = np.any((lattice == 0) | (lattice == n), axis=1)
    signed = _signed_volumes(vertices, tets)
    if np.any(signed == 0):
        raise ValueError("degenerate tetrahedron")
    return Mesh(vertices=vertices, tets=tets, level=level,
                boundary_vertex_flags=on_bnd, lattice=lattice, lattice_n=n,
                box=box, volumes=np.abs(signed))


def build_initial_mesh(n_per_axis: int, box=((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))) -> Mesh:
    """Kuhn-subdivide an n x n x n cube grid of the box into 6n^3 tetrahedra."""
    if n_per_axis < 1:
        raise ValueError("n_per_axis must be >= 1")
    box = np.asarray(box, dtype=float).reshape(2, 3)
    if np.any(box[1] <= box[0]):
        raise ValueError("box must have positive extent in every axis")
    n = int(n_per_axis)
    m = n + 1
    ii, jj, kk = np.meshgrid(np.arange(m), np.arange(m), np.arange(m),
                             indexing="ij")
    lattice = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3).astype(np.int64)

    def vid(i, j, k):
        return (i * m + j) * m + k

    cubes = np.stack(np.meshgrid(np.arange(n), np.arange(n), np.arange(n),
                                 indexing="ij"), axis=-1).reshape(-1, 3)
    tets = np.empty((6 * cubes.shape[0], 4), dtype=np.int64)
    for p_idx, perm in enumerate(_KUHN_PERMS):
        c = cubes.copy()
        v = [vid(c[:, 0], c[:, 1], c[:, 2])]
        for axis in perm:
            c = c.copy()
            c[:, axis] += 1
            v.append(vid(c[:, 0], c[:, 1], c[:, 2]))
        tets[p_idx::6] = np.stack([v[0], v[1], v[2], v[3]], axis=1)
    return _make_mesh(lattice, n, box, tets, level=0)


def refine_uniform(mesh: Mesh) -> tuple[Mesh, np.ndarray]:
    """Split every tet into 8 children, numbered 8 t .. 8 t + 7 for tet t.

    Returns the fine mesh and the midpoint parents: fine vertex
    n_vertices + i is the midpoint of coarse vertices midpoint_parents[i]
    (a sorted pair); coarse vertex v keeps its id v.
    """
    tets = mesh.tets
    nv = mesh.n_vertices
    pairs = np.sort(tets[:, _TET_EDGES].reshape(-1, 2), axis=1)
    edges, edge_of, _ = _unique_rows(pairs, nv)
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

    children = np.concatenate([corner, octa], axis=1)
    fine = _make_mesh(fine_lattice, fine_n, mesh.box, children.reshape(-1, 4),
                      level=mesh.level + 1)
    edges.setflags(write=False)
    return fine, edges


class MeshHierarchy:
    """Nested meshes produced by successive uniform refinement.

    levels[k] is the mesh at refinement level k; midpoint_parents[k] are
    the midpoint parents of levels[k + 1] (see refine_uniform).
    """

    def __init__(self, levels: list, midpoint_parents: list):
        self.levels = levels
        self.midpoint_parents = midpoint_parents

    @classmethod
    def build(cls, max_level: int) -> "MeshHierarchy":
        """Refine the 4^3 Kuhn grid of [-1.5, 1.5]^3 max_level times."""
        if max_level < 0:
            raise ValueError(f"level must be nonnegative, got {max_level}")
        levels, parents = [build_initial_mesh(4)], []
        for _ in range(max_level):
            fine, mids = refine_uniform(levels[-1])
            levels.append(fine)
            parents.append(mids)
        return cls(levels, parents)

    @property
    def finest(self) -> Mesh:
        return self.levels[-1]

    def truncated(self, level: int) -> "MeshHierarchy":
        """Sub-hierarchy sharing the meshes up to the given level."""
        if not 0 <= level < len(self.levels):
            raise ValueError("level outside the hierarchy")
        return MeshHierarchy(self.levels[:level + 1],
                             self.midpoint_parents[:level])
