"""Level-set geometry on tetrahedral meshes: cut classification and
sub-tessellation quadrature.

The interface is represented by the piecewise-linear interpolant of the level
set at mesh vertices.  On a cut tetrahedron the zero plane of the interpolant
splits the element into a corner tetrahedron plus a prism (one vertex
separated) or into two prisms (two vertices separated); each prism is further
split into 3 tetrahedra.  Standard positive-weight rules (degree 5 on
tetrahedra, degree 4 on triangles) are mapped onto the pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

NEG, CUT, POS = -1, 0, 1

SNAP_FACTOR = 1e-12


def _tet_rule_reference() -> tuple[np.ndarray, np.ndarray]:
    """14-point degree-5 rule on the tetrahedron, barycentric, weights sum 1."""
    lam = []
    w = []
    for a, wa in ((0.0927352503108912, 0.0734930431163619),
                  (0.3108859192633005, 0.1126879257180162)):
        for i in range(4):
            pt = [a] * 4
            pt[i] = 1.0 - 3.0 * a
            lam.append(pt)
            w.append(wa)
    c, wc = 0.0455037041256497, 0.0425460207770812
    for i in range(3):
        for j in range(i + 1, 4):
            pt = [0.5 - c] * 4
            pt[i] = c
            pt[j] = c
            lam.append(pt)
            w.append(wc)
    return np.array(lam), np.array(w)


def _tri_rule_reference() -> tuple[np.ndarray, np.ndarray]:
    """6-point degree-4 rule on the triangle, barycentric, weights sum 1."""
    lam = []
    w = []
    for a, wa in ((0.445948490915965, 0.223381589678011),
                  (0.091576213509771, 0.109951743655322)):
        for i in range(3):
            pt = [a] * 3
            pt[i] = 1.0 - 2.0 * a
            lam.append(pt)
            w.append(wa)
    return np.array(lam), np.array(w)


TET_RULE_LAM, TET_RULE_W = _tet_rule_reference()
TRI_RULE_LAM, TRI_RULE_W = _tri_rule_reference()


class SphereLevelSet:
    """phi(x) = ||x - center|| - radius; negative inside the ball."""

    def __init__(self, center=(0.0, 0.0, 0.0), radius: float = 1.0):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - self.center, axis=-1) - self.radius


@dataclass(frozen=True)
class QuadRule:
    """Quadrature on a union of sub-tetrahedra: weights scale with volume."""

    points: np.ndarray
    weights: np.ndarray
    subtets: np.ndarray  # (k, 4, 3) the sub-tessellation carrying the rule


@dataclass(frozen=True)
class SurfaceRule:
    """Quadrature on the planar interface patch of one cut tetrahedron."""

    points: np.ndarray
    weights: np.ndarray
    normal: np.ndarray  # unit, pointing from {phi<0} to {phi>0}
    triangles: np.ndarray  # (k, 3, 3)


def p1_gradients(verts: np.ndarray) -> np.ndarray:
    """Constant gradients of the 4 nodal P1 basis functions on a tet."""
    J = (verts[1:] - verts[0]).T
    Jinv = np.linalg.inv(J)
    return np.vstack([-Jinv.sum(axis=0), Jinv])


def classify(mesh: Mesh, phi) -> tuple[np.ndarray, np.ndarray]:
    """Per-tet classification NEG/CUT/POS from snapped vertex level-set values.

    Vertex values with |phi| < SNAP_FACTOR * mesh.h are snapped to a tiny
    negative value, assigning near-interface nodes to the inside region.
    """
    vals = np.asarray(phi(mesh.vertices), dtype=float)
    tol = SNAP_FACTOR * mesh.h
    snapped = np.where(np.abs(vals) < tol, -tol, vals)
    neg = snapped[mesh.tets] < 0.0
    nneg = neg.sum(axis=1)
    tet_class = np.full(mesh.n_tets, CUT, dtype=np.int8)
    tet_class[nneg == 4] = NEG
    tet_class[nneg == 0] = POS
    return tet_class, snapped


def _abs_volume(tet: np.ndarray) -> float:
    e = tet[1:] - tet[0]
    return abs(np.dot(e[0], np.cross(e[1], e[2]))) / 6.0


def _prism_tets(a0, a1, a2, b0, b1, b2) -> list[np.ndarray]:
    """Split the prism with triangles (a0,a1,a2), (b0,b1,b2) and edges ai-bi."""
    return [np.array([a0, a1, a2, b0]),
            np.array([a1, a2, b0, b1]),
            np.array([a2, b0, b1, b2])]


def _cut_points(verts, phi, lone, others):
    return [verts[lone] + (phi[lone] / (phi[lone] - phi[o])) * (verts[o] - verts[lone])
            for o in others]


def _split_cut_tet(verts: np.ndarray, phi: np.ndarray):
    """Sub-tessellate a cut tet; returns (neg sub-tets, pos sub-tets, interface
    triangles) where the interface triangles follow the tet facet structure."""
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
    # interface quad in cyclic order, split along one diagonal
    tris = [np.array([pac, pad, pbd]), np.array([pac, pbd, pbc])]
    return neg_sub, pos_sub, tris


def _map_tet_rule(subtets: list[np.ndarray]) -> QuadRule:
    if not subtets:
        return QuadRule(points=np.zeros((0, 3)), weights=np.zeros(0),
                        subtets=np.zeros((0, 4, 3)))
    sub = np.array(subtets)
    pts = np.einsum("qi,kix->kqx", TET_RULE_LAM, sub).reshape(-1, 3)
    e = sub[:, 1:] - sub[:, :1]
    vols = np.abs(np.einsum("ki,ki->k", e[:, 0],
                            np.cross(e[:, 1], e[:, 2]))) / 6.0
    w = (vols[:, None] * TET_RULE_W[None, :]).reshape(-1)
    return QuadRule(points=pts, weights=w, subtets=sub)


def cut_volume_rule(verts, phivals) -> tuple[QuadRule, QuadRule]:
    """Volume rules on the two sides of the linear cut of one tetrahedron."""
    verts = np.asarray(verts, dtype=float)
    phivals = np.asarray(phivals, dtype=float)
    neg_sub, pos_sub, _ = _split_cut_tet(verts, phivals)
    return _map_tet_rule(neg_sub), _map_tet_rule(pos_sub)


def interface_rule(verts, phivals) -> SurfaceRule:
    """Surface rule on the planar interface patch of one cut tetrahedron."""
    verts = np.asarray(verts, dtype=float)
    phivals = np.asarray(phivals, dtype=float)
    _, _, tris = _split_cut_tet(verts, phivals)
    tri = np.array(tris)
    pts = np.einsum("qi,kix->kqx", TRI_RULE_LAM, tri).reshape(-1, 3)
    areas = 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)
    w = (areas[:, None] * TRI_RULE_W[None, :]).reshape(-1)
    grad = p1_gradients(verts).T @ phivals
    normal = grad / np.linalg.norm(grad)
    return SurfaceRule(points=pts, weights=w, normal=normal, triangles=tri)


@dataclass(frozen=True)
class CutInfo:
    """Classification plus cut quadrature for a mesh/level-set pair.

    The flat arrays (points, weights, offsets indexed by cut-local id) back
    vectorized assembly loops.
    """

    tet_class: np.ndarray
    vertex_phi: np.ndarray
    cut_tets: np.ndarray
    cut_index: np.ndarray  # tet id -> cut-local id, -1 if uncut
    kappa1: np.ndarray
    vol1: np.ndarray
    vol2: np.ndarray
    normals: np.ndarray  # (nc, 3)
    vpts1: np.ndarray
    vw1: np.ndarray
    voff1: np.ndarray
    vpts2: np.ndarray
    vw2: np.ndarray
    voff2: np.ndarray
    spts: np.ndarray
    sw: np.ndarray
    soff: np.ndarray

    @property
    def n_cut(self) -> int:
        return self.cut_tets.shape[0]

    @property
    def ext1(self) -> np.ndarray:
        """Elements with nonzero intersection with region 1."""
        return np.flatnonzero(self.tet_class <= CUT)

    @property
    def ext2(self) -> np.ndarray:
        return np.flatnonzero(self.tet_class >= CUT)

    @property
    def minus1(self) -> np.ndarray:
        """Elements fully inside region 1."""
        return np.flatnonzero(self.tet_class == NEG)

    @property
    def minus2(self) -> np.ndarray:
        return np.flatnonzero(self.tet_class == POS)


def build_cut_info(mesh: Mesh, phi) -> CutInfo:
    """Classify all elements and build cut quadrature for the cut ones."""
    tet_class, vertex_phi = classify(mesh, phi)
    cut_tets = np.flatnonzero(tet_class == CUT)
    cut_index = np.full(mesh.n_tets, -1, dtype=np.int64)
    cut_index[cut_tets] = np.arange(cut_tets.size)

    vp1, vw1, vp2, vw2, sp, sw = [], [], [], [], [], []
    vol1 = np.empty(cut_tets.size)
    vol2 = np.empty(cut_tets.size)
    normals = np.empty((cut_tets.size, 3))
    for c, t in enumerate(cut_tets):
        verts = mesh.vertices[mesh.tets[t]]
        pv = vertex_phi[mesh.tets[t]]
        r1, r2 = cut_volume_rule(verts, pv)
        srule = interface_rule(verts, pv)
        v1, v2 = r1.weights.sum(), r2.weights.sum()
        tot = mesh.volumes[t]
        if not np.isclose(v1 + v2, tot, rtol=0, atol=1e-12 * max(1.0, tot)):
            raise RuntimeError(f"cut volumes do not partition tet {t}")
        if np.any(r1.weights < 0) or np.any(r2.weights < 0) or np.any(srule.weights < 0):
            raise RuntimeError(f"negative cut quadrature weight on tet {t}")
        vol1[c], vol2[c] = v1, v2
        normals[c] = srule.normal
        vp1.append(r1.points)
        vw1.append(r1.weights)
        vp2.append(r2.points)
        vw2.append(r2.weights)
        sp.append(srule.points)
        sw.append(srule.weights)

    def _flat(parts, width):
        if parts:
            arr = np.concatenate(parts)
        else:
            arr = np.zeros((0, width)) if width else np.zeros(0)
        return arr

    def _offsets(parts):
        off = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([p.shape[0] for p in parts], out=off[1:])
        return off

    kappa1 = vol1 / mesh.volumes[cut_tets] if cut_tets.size else np.zeros(0)
    return CutInfo(
        tet_class=tet_class, vertex_phi=vertex_phi, cut_tets=cut_tets,
        cut_index=cut_index, kappa1=kappa1, vol1=vol1, vol2=vol2,
        normals=normals,
        vpts1=_flat(vp1, 3), vw1=_flat(vw1, 0), voff1=_offsets(vw1),
        vpts2=_flat(vp2, 3), vw2=_flat(vw2, 0), voff2=_offsets(vw2),
        spts=_flat(sp, 3), sw=_flat(sw, 0), soff=_offsets(sw),
    )


def ghost_facets(mesh: Mesh, cutinfo: CutInfo, side: int) -> np.ndarray:
    """Interior facets whose two tets lie in the side's extended domain with
    at least one of them cut."""
    if side == 1:
        in_ext = cutinfo.tet_class <= CUT
    elif side == 2:
        in_ext = cutinfo.tet_class >= CUT
    else:
        raise ValueError("side must be 1 or 2")
    ft = mesh.facets.tets
    interior = ~mesh.facets.is_boundary
    both_ext = np.zeros(mesh.facets.n_facets, dtype=bool)
    both_ext[interior] = in_ext[ft[interior, 0]] & in_ext[ft[interior, 1]]
    is_cut = cutinfo.tet_class == CUT
    one_cut = np.zeros_like(both_ext)
    one_cut[interior] = is_cut[ft[interior, 0]] | is_cut[ft[interior, 1]]
    return np.flatnonzero(both_ext & one_cut)
