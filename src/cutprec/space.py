"""P1 nodal spaces on cut background meshes: the dof layout of the subspace
splitting and the basis transformation between its two numberings.

The vertex sets follow the splitting of the cut discretization: I1/I2
collect the nodes of the extended subdomains, IG the nodes of cut elements,
and IG1/IG2 split IG by the side the node does NOT belong to (decided by the
snapped vertex level-set sign).  The interface problem eliminates
box-boundary vertices (Dirichlet); the fictitious-domain problem keeps
every node of the active extended domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import CutInfo
from .mesh import Mesh

INTERFACE = "interface"
FICTITIOUS = "fictitious"


@dataclass(frozen=True)
class DofLayout:
    """Deterministic dof orderings for the side-block and split bases.

    Side-block basis: V1 dofs first ([I1 minus IG1, then IG1], each sorted by
    vertex id), then V2 dofs ([I2 minus IG2, then IG2]).  Split basis: x0
    dofs (I0 sorted) then x1 dofs (IG sorted).  The *_dof arrays map vertex
    id to global dof index, -1 where the vertex carries no dof.

    For the interface problem I0 is the set of interior (non-Dirichlet)
    vertices and IG the interior cut-strip vertices.  For the fictitious
    domain problem I0 = I1 minus IG1 (interior dofs) and IG = IG1 (strip
    dofs); I2/IG2 are empty.  IG1 and IG2 are sorted.
    """

    problem: str
    N0: int
    N1: int
    v1_vertices: np.ndarray
    v2_vertices: np.ndarray
    v1_dof: np.ndarray
    v2_dof: np.ndarray
    x0_vertices: np.ndarray
    x1_vertices: np.ndarray
    x0_dof: np.ndarray
    x1_dof: np.ndarray
    IG1: np.ndarray
    IG2: np.ndarray

    def __post_init__(self):
        for arr in (self.v1_vertices, self.v2_vertices, self.v1_dof,
                    self.v2_dof, self.x0_vertices, self.x1_vertices,
                    self.x0_dof, self.x1_dof, self.IG1, self.IG2):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.N0 + self.N1


def _vertex_set(tets: np.ndarray, element_ids: np.ndarray) -> np.ndarray:
    if element_ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.unique(tets[element_ids])


def build_dof_layout(mesh: Mesh, cutinfo: CutInfo,
                     problem: str = INTERFACE) -> DofLayout:
    """Derive the splitting sets from the element classification, check
    that they partition, and number the side-block and split bases (sorted
    by vertex id per group)."""
    if problem not in (INTERFACE, FICTITIOUS):
        raise ValueError(f"unknown problem kind {problem!r}")
    phi = cutinfo.vertex_phi
    I1 = _vertex_set(mesh.tets, cutinfo.ext1)
    cut_nodes = _vertex_set(mesh.tets, cutinfo.cut_tets)
    if problem == INTERFACE:
        keep = ~mesh.boundary_vertex_flags
        I2 = _vertex_set(mesh.tets, cutinfo.ext2)
        I1, I2, IG = I1[keep[I1]], I2[keep[I2]], cut_nodes[keep[cut_nodes]]
        IG1 = IG[phi[IG] > 0]
        IG2 = IG[phi[IG] < 0]
        I0 = np.flatnonzero(keep)
        part1 = np.setdiff1d(I1, IG1)
        part2 = np.setdiff1d(I2, IG2)
        if np.intersect1d(IG1, IG2).size:
            raise ValueError("IG1 and IG2 overlap")
        if not np.array_equal(np.union1d(IG1, IG2), IG):
            raise ValueError("IG1 and IG2 do not partition IG")
        if np.intersect1d(part1, part2).size:
            raise ValueError("side interiors overlap")
        if not np.array_equal(np.union1d(part1, part2), I0):
            raise ValueError("side interiors do not partition I0")
        if np.setdiff1d(IG2, part1).size:
            raise ValueError("a node outside region 2 is missing from side 1")
    else:
        part2 = IG2 = np.zeros(0, dtype=np.int64)
        IG = IG1 = cut_nodes[phi[cut_nodes] > 0]
        I0 = part1 = np.setdiff1d(I1, IG1)
        if np.intersect1d(I0, IG1).size:
            raise ValueError("strip dofs leak into the interior dof set")

    def inverse(vertices: np.ndarray, offset: int = 0) -> np.ndarray:
        inv = np.full(mesh.n_vertices, -1, dtype=np.int64)
        inv[vertices] = offset + np.arange(vertices.size)
        return inv

    v1 = np.concatenate([part1, IG1])
    v2 = np.concatenate([part2, IG2])
    N0, N1 = I0.size, IG.size
    return DofLayout(
        problem=problem, N0=N0, N1=N1,
        v1_vertices=v1, v2_vertices=v2,
        v1_dof=inverse(v1), v2_dof=inverse(v2, offset=v1.size),
        x0_vertices=I0, x1_vertices=IG,
        x0_dof=inverse(I0), x1_dof=inverse(IG, offset=N0),
        IG1=IG1, IG2=IG2,
    )


def build_L(layout: DofLayout) -> sp.csr_matrix:
    """Basis transformation from split (x0, x1) to side-block coefficients.

    Each x0 column places a unit entry in every side block whose extended
    domain contains the vertex; each x1 column hits the single block where
    the vertex acts as a cut dof: side s for the vertices of IGs.  For the
    fictitious domain there is one side block, so L is a permutation (the
    identity, since the side-block ordering already lists interior dofs
    before strip dofs).
    """
    rows, cols = [], []
    for vdof, strip in ((layout.v1_dof, layout.IG1),
                        (layout.v2_dof, layout.IG2)):
        vs = layout.x0_vertices[vdof[layout.x0_vertices] >= 0]
        rows += [vdof[vs], vdof[strip]]
        cols += [layout.x0_dof[vs], layout.x1_dof[strip]]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    expected = layout.dim + (layout.N1 if layout.problem == INTERFACE else 0)
    if rows.size != expected:
        raise ValueError("transformation entry count mismatch")
    L = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                      shape=(layout.dim, layout.dim)).tocsr()
    L.sort_indices()
    return L
