"""P1 nodal spaces on cut background meshes: index sets and dof layouts.

Vertex index sets follow the subspace splitting of the cut discretization:
I1/I2 collect the nodes of the extended subdomains, IG the nodes of cut
elements, and IG1/IG2 split IG by the side the node does NOT belong to
(decided by the snapped vertex level-set sign).  The interface problem
eliminates box-boundary vertices (Dirichlet); the fictitious-domain problem
keeps every node of the active extended domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CutInfo
from .mesh import Mesh

INTERFACE = "interface"
FICTITIOUS = "fictitious"


@dataclass(frozen=True)
class IndexSets:
    """Sorted vertex-id sets of the subspace splitting.

    For the interface problem I0 is the set of interior (non-Dirichlet)
    vertices and IG the interior cut-strip vertices.  For the fictitious
    domain problem I0 = I1 minus IG1 (interior dofs) and IG = IG1 (strip
    dofs); I2/IG2 are empty.
    """

    problem: str
    n_vertices: int
    I0: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    IG: np.ndarray
    IG1: np.ndarray
    IG2: np.ndarray

    def __post_init__(self):
        for arr in (self.I0, self.I1, self.I2, self.IG, self.IG1, self.IG2):
            arr.setflags(write=False)


@dataclass(frozen=True)
class DofLayout:
    """Deterministic dof orderings for the side-block and split bases.

    Side-block basis: V1 dofs first ([I1 minus IG1, then IG1], each sorted by
    vertex id), then V2 dofs ([I2 minus IG2, then IG2]).  Split basis: x0
    dofs (I0 sorted) then x1 dofs (IG sorted).  The *_dof arrays map vertex
    id to global dof index, -1 where the vertex carries no dof.
    """

    problem: str
    sets: IndexSets
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

    def __post_init__(self):
        for arr in (self.v1_vertices, self.v2_vertices, self.v1_dof,
                    self.v2_dof, self.x0_vertices, self.x1_vertices,
                    self.x0_dof, self.x1_dof):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.N0 + self.N1


def _vertex_set(tets: np.ndarray, element_ids: np.ndarray) -> np.ndarray:
    if element_ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.unique(tets[element_ids])


def build_index_sets(mesh: Mesh, cutinfo: CutInfo,
                     problem: str = INTERFACE) -> IndexSets:
    """Derive the splitting index sets from the element classification."""
    if problem not in (INTERFACE, FICTITIOUS):
        raise ValueError(f"unknown problem kind {problem!r}")
    phi = cutinfo.vertex_phi
    ext1_nodes = _vertex_set(mesh.tets, cutinfo.ext1)
    ext2_nodes = _vertex_set(mesh.tets, cutinfo.ext2)
    cut_nodes = _vertex_set(mesh.tets, cutinfo.cut_tets)
    if problem == INTERFACE:
        keep = ~mesh.boundary_vertex_flags
        I1 = ext1_nodes[keep[ext1_nodes]]
        I2 = ext2_nodes[keep[ext2_nodes]]
        IG = cut_nodes[keep[cut_nodes]]
        IG1 = IG[phi[IG] > 0]
        IG2 = IG[phi[IG] < 0]
        I0 = np.flatnonzero(keep)
        sets = IndexSets(problem=problem, n_vertices=mesh.n_vertices, I0=I0,
                         I1=I1, I2=I2, IG=IG, IG1=IG1, IG2=IG2)
        _validate_interface_sets(sets, phi)
        return sets
    I1 = ext1_nodes
    IG1 = cut_nodes[phi[cut_nodes] > 0]
    I0 = np.setdiff1d(I1, IG1)
    empty = np.zeros(0, dtype=np.int64)
    sets = IndexSets(problem=problem, n_vertices=mesh.n_vertices, I0=I0,
                     I1=I1, I2=empty, IG=IG1, IG1=IG1, IG2=empty)
    if np.intersect1d(sets.I0, sets.IG1).size:
        raise ValueError("strip dofs leak into the interior dof set")
    return sets


def _validate_interface_sets(sets: IndexSets, phi: np.ndarray) -> None:
    if np.intersect1d(sets.IG1, sets.IG2).size:
        raise ValueError("IG1 and IG2 overlap")
    if not np.array_equal(np.union1d(sets.IG1, sets.IG2), sets.IG):
        raise ValueError("IG1 and IG2 do not partition IG")
    part1 = np.setdiff1d(sets.I1, sets.IG1)
    part2 = np.setdiff1d(sets.I2, sets.IG2)
    if np.intersect1d(part1, part2).size:
        raise ValueError("side interiors overlap")
    if not np.array_equal(np.union1d(part1, part2), sets.I0):
        raise ValueError("side interiors do not partition I0")
    if np.setdiff1d(sets.IG2, part1).size:
        raise ValueError("a node outside region 2 is missing from side 1")


def build_dof_layout(sets: IndexSets) -> DofLayout:
    """Number the side-block and split bases (sorted by vertex id per group)."""

    def inverse(vertices: np.ndarray, offset: int = 0) -> np.ndarray:
        inv = np.full(sets.n_vertices, -1, dtype=np.int64)
        inv[vertices] = offset + np.arange(vertices.size)
        return inv

    part1 = np.setdiff1d(sets.I1, sets.IG1)
    v1 = np.concatenate([part1, sets.IG1])
    if sets.problem == INTERFACE:
        part2 = np.setdiff1d(sets.I2, sets.IG2)
        v2 = np.concatenate([part2, sets.IG2])
    else:
        v2 = np.zeros(0, dtype=np.int64)
    x0 = sets.I0
    x1 = sets.IG
    N0, N1 = x0.size, x1.size
    if v1.size + v2.size != N0 + N1:
        raise ValueError("side-block and split dimensions disagree")
    return DofLayout(
        problem=sets.problem, sets=sets, N0=N0, N1=N1,
        v1_vertices=v1, v2_vertices=v2,
        v1_dof=inverse(v1), v2_dof=inverse(v2, offset=v1.size),
        x0_vertices=x0, x1_vertices=x1,
        x0_dof=inverse(x0), x1_dof=inverse(x1, offset=N0),
    )

