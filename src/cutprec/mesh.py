"""Structured tetrahedral meshes of a box and their uniform refinement hierarchy.

Every mesh subdivides each cell of an n x n x n cube grid into 6 tetrahedra
(Kuhn subdivision along the (0,0,0)->(1,1,1) cell diagonal).  Level k + 1 of
the hierarchy is the Kuhn mesh of the halved lattice of level k, which is
also what red refinement of level k gives; it is built directly, numbered as
red refinement numbers it.  Vertex coordinates are derived from integer
lattice indices so that coordinates of coarse vertices reappear bitwise
identically on finer levels.  A mesh stores no edges or facets: the ghost
penalty keys only the faces near the cut strip (geometry.ghost_facets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Axis insertion orders generating the 6 Kuhn tetrahedra of a cube.
_KUHN_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))

# The 7 nonzero 0/1 steps d: every edge of a Kuhn mesh is (c, c + d).
_EDGE_STEPS = tuple(np.ndindex(2, 2, 2))[1:]


@dataclass(frozen=True)
class Mesh:
    """Immutable conforming tetrahedral mesh.

    Vertices carry integer lattice indices (lattice, lattice_n): the physical
    coordinate is box_lo + extent * lattice / lattice_n.  Each tet's vertices
    are in cube-path order, which is also ascending (coordinate sum, i, j, k)
    lattice order.  Tet t is Kuhn shape t % 6 of cell t // 6, cells in
    lexicographic order, so the 6 tets of the first cell give the P1
    gradients of all (shape_gradients).  Every Kuhn tet of an n x n x n
    grid of the box has the volume of one grid cell over 6, which is what
    volumes holds per tet, and the cell's main diagonal as its longest
    edge (diameter).  All arrays are read-only after construction.
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

    @property
    def diameter(self) -> float:
        """Longest edge of every tet: the main diagonal of a grid cell."""
        cell = (self.box[1] - self.box[0]) / self.lattice_n
        return float(np.sqrt(cell @ cell))

    @cached_property
    def shape_gradients(self) -> np.ndarray:
        """Constant P1 shape gradients of the 6 Kuhn shapes, shape
        (6, 4, 3), taken from the tets of the first cell.  Every tet of a
        shape is a translate of that cell's one, so on a box whose lattice
        coordinates are exact binary fractions (the default box, the unit
        box) its gradients are bitwise these; on others they differ by
        rounding of the coordinates."""
        grads = p1_gradients(self.vertices[self.tets[:6]])
        grads.setflags(write=False)
        return grads

    def shape_of(self, elems: np.ndarray) -> np.ndarray:
        """The Kuhn shape of each element, an index into shape_gradients."""
        return elems % 6

    def element_gradients(self, elems: np.ndarray) -> np.ndarray:
        """Constant P1 shape gradients of the elements, shape (m, 4, 3)."""
        return self.shape_gradients[self.shape_of(elems)]


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


def _coords_from_lattice(lattice: np.ndarray, n: int, box: np.ndarray) -> np.ndarray:
    lo, hi = box[0], box[1]
    return lo + (hi - lo) * lattice / float(n)


def _make_mesh(lattice: np.ndarray, n: int, box: np.ndarray,
               tets: np.ndarray, level: int) -> Mesh:
    """The mesh of the Kuhn tets of the n x n x n lattice grid of the box.
    Its volumes come from the grid alone, (ex/n)(ey/n)(ez/n)/6 for every
    tet, which is > 0 for a box of positive extent; p1_gradients rejects a
    tet of zero determinant."""
    vertices = _coords_from_lattice(lattice, n, box)
    on_bnd = np.any((lattice == 0) | (lattice == n), axis=1)
    ex, ey, ez = box[1] - box[0]
    cell = (ex / n) * (ey / n) * (ez / n)
    return Mesh(vertices=vertices, tets=tets, level=level,
                boundary_vertex_flags=on_bnd, lattice=lattice, lattice_n=n,
                box=box, volumes=np.full(tets.shape[0], cell / 6))


def _kuhn_tets(ids: np.ndarray) -> np.ndarray:
    """The 6 Kuhn tets of each cube of the grid whose corner vertex ids are
    ids, shape (n + 1, n + 1, n + 1): cubes in lexicographic order, each
    tet's vertices along its path from the cube's low to its high corner."""
    n = ids.shape[0] - 1
    tets = np.empty((6 * n ** 3, 4), dtype=np.int64)
    for p, perm in enumerate(_KUHN_PERMS):
        corner = [0, 0, 0]
        path = [ids[:n, :n, :n]]
        for axis in perm:
            corner[axis] = 1
            path.append(ids[tuple(slice(s, s + n) for s in corner)])
        tets[p::6] = np.stack(path, axis=-1).reshape(-1, 4)
    return tets


def build_initial_mesh(n_per_axis: int, box=((-1.5, -1.5, -1.5), (1.5, 1.5, 1.5))) -> Mesh:
    """Kuhn-subdivide an n x n x n cube grid of the box into 6n^3 tetrahedra."""
    if n_per_axis < 1:
        raise ValueError("n_per_axis must be >= 1")
    box = np.asarray(box, dtype=float).reshape(2, 3)
    if np.any(box[1] <= box[0]):
        raise ValueError("box must have positive extent in every axis")
    n = int(n_per_axis)
    ids = np.arange((n + 1) ** 3, dtype=np.int64).reshape((n + 1,) * 3)
    lattice = np.stack(np.unravel_index(ids.ravel(), ids.shape), axis=1)
    return _make_mesh(lattice, n, box, _kuhn_tets(ids), level=0)


class MeshHierarchy:
    """Nested Kuhn meshes of the 4 * 2^k cube grids of [-1.5, 1.5]^3.

    levels[k] is the mesh at refinement level k.  Level k + 1 keeps the
    vertices of level k under their ids; its vertex nv_k + i is the midpoint
    of the coarse edge midpoint_parents[k][i], a sorted pair, the edges in
    ascending pair order.
    """

    def __init__(self, levels: list, midpoint_parents: list):
        self.levels = levels
        self.midpoint_parents = midpoint_parents

    @classmethod
    def build(cls, max_level: int) -> "MeshHierarchy":
        """Build levels 0 .. max_level, each from the lattice of the last."""
        if max_level < 0:
            raise ValueError(f"level must be nonnegative, got {max_level}")
        levels, parents = [build_initial_mesh(4)], []
        for _ in range(max_level):
            coarse = levels[-1]
            n, nv = coarse.lattice_n, coarse.n_vertices
            ids = np.empty((n + 1,) * 3, dtype=np.int64)
            ids[tuple(coarse.lattice.T)] = np.arange(nv)
            # fine lattice point 2c + d is coarse vertex c for d = 0, and the
            # midpoint of the edge (c, c + d) for each of the 7 edge steps
            fine_ids = np.empty((2 * n + 1,) * 3, dtype=np.int64)
            fine_ids[::2, ::2, ::2] = ids
            slot = np.arange(fine_ids.size).reshape(fine_ids.shape)
            heads, tails, slots = [], [], []
            for d in _EDGE_STEPS:
                heads.append(ids[tuple(slice(0, n + 1 - s) for s in d)].ravel())
                tails.append(ids[tuple(slice(s, None) for s in d)].ravel())
                slots.append(slot[tuple(slice(s, None, 2) for s in d)].ravel())
            pairs = np.sort(np.stack([np.concatenate(heads),
                                      np.concatenate(tails)], axis=1), axis=1)
            # midpoint ids follow the sorted parent pairs in ascending order
            order = np.argsort(pairs[:, 0] * nv + pairs[:, 1])
            edges = pairs[order]
            fine_ids.flat[np.concatenate(slots)[order]] = \
                nv + np.arange(order.size)
            lattice = np.vstack([2 * coarse.lattice,
                                 coarse.lattice[edges].sum(axis=1)])
            levels.append(_make_mesh(lattice, 2 * n, coarse.box,
                                     _kuhn_tets(fine_ids), coarse.level + 1))
            edges.setflags(write=False)
            parents.append(edges)
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
