"""Level-set geometry on tetrahedral meshes: cut classification and
sub-tessellation quadrature.

The interface is represented by the piecewise-linear interpolant of the level
set at mesh vertices.  On a cut tetrahedron the zero plane of the interpolant
splits the element into a corner tetrahedron plus a prism (one vertex
separated) or into two prisms (two vertices separated); each prism is further
split into 3 tetrahedra.  Standard positive-weight rules (degree 5 on
tetrahedra, degree 4 on triangles) are mapped onto the pieces.

All cut elements are processed at once, in two batches by sign pattern (one
vertex against three, two against two): the cut points, pieces and mapped
rules of a batch are array operations, scattered into flat per-element
arrays in element order, one CutRules record.  CutInfo is that record with
the classification of the whole mesh added.  The facets of the ghost
penalty are found from the faces of the tets around the cut strip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, p1_gradients

NEG, CUT, POS = -1, 0, 1

SNAP_FACTOR = 1e-12

# Local vertex triples of the 4 faces of a tetrahedron.
_TET_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


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


@dataclass(frozen=True)
class CutRules:
    """Cut quadrature of a batch of tetrahedra, flat in element order.

    Element c owns rows voff1[c]:voff1[c + 1] of vpts1/vw1 (side 1,
    phi < 0), voff2[c]:voff2[c + 1] of vpts2/vw2 (side 2) and
    soff[c]:soff[c + 1] of spts/sw (the interface patch).  vol1/vol2 are
    the side volumes and normals the unit interface normals, pointing from
    side 1 to side 2.
    """

    vol1: np.ndarray
    vol2: np.ndarray
    normals: np.ndarray
    vpts1: np.ndarray
    vw1: np.ndarray
    voff1: np.ndarray
    vpts2: np.ndarray
    vw2: np.ndarray
    voff2: np.ndarray
    spts: np.ndarray
    sw: np.ndarray
    soff: np.ndarray


def _cut_point(v, p, i, j):
    """Zero of the linear level set on the edge from local vertex i to j."""
    return v[:, i] + (p[:, i] / (p[:, i] - p[:, j]))[:, None] * (v[:, j] - v[:, i])


def _prism(a0, a1, a2, b0, b1, b2):
    """Split the prisms with triangles (a0,a1,a2), (b0,b1,b2) and edges ai-bi
    into 3 tets each; returns shape (m, 3, 4, 3)."""
    return np.stack([np.stack([a0, a1, a2, b0], axis=1),
                     np.stack([a1, a2, b0, b1], axis=1),
                     np.stack([a2, b0, b1, b2], axis=1)], axis=1)


def _mapped_rule(cells):
    """Map the tet or triangle rule onto k simplices per element, cells of
    shape (m, k, d + 1, 3); returns points (m, k * q, 3), weights (m, k * q)."""
    m, k = cells.shape[:2]
    flat = cells.reshape((m * k,) + cells.shape[2:])
    e = flat[:, 1:] - flat[:, :1]
    if flat.shape[1] == 4:
        lam, w = TET_RULE_LAM, TET_RULE_W
        size = np.abs(np.einsum("ki,ki->k", e[:, 0],
                                np.cross(e[:, 1], e[:, 2]))) / 6.0
    else:
        lam, w = TRI_RULE_LAM, TRI_RULE_W
        size = 0.5 * np.linalg.norm(np.cross(e[:, 0], e[:, 1]), axis=1)
    pts = lam @ flat
    return pts.reshape(m, k * w.size, 3), \
        (size[:, None] * w[None, :]).reshape(m, k * w.size)


def cut_rules(verts, phi) -> CutRules:
    """Sub-tessellate cut tetrahedra and map quadrature onto the pieces.

    verts (n, 4, 3) and phi (n, 4) hold the vertices and the level-set
    values of n tets, each with both signs (phi >= 0 counts as side 2).
    The elements are split in two batches by sign pattern.  One vertex
    against three gives a corner tet plus a prism of 3 tets and one
    interface triangle; two against two give two prisms of 3 tets and an
    interface quad split into two triangles.  Within an element the lone
    vertex (or the two negative ones) comes first and the rest follow in
    local order, so every element gets the pieces, points and weights of
    its own one-element split, bit for bit.
    """
    verts = np.asarray(verts, dtype=float)
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[0]
    neg = phi < 0.0
    nneg = neg.sum(axis=1)
    uncut = np.flatnonzero((nneg == 0) | (nneg == 4))
    if uncut.size:
        raise ValueError(f"{uncut.size} tets are not cut by the linear level "
                         f"set, the first at row {uncut[0]}")
    first = np.where((nneg == 3)[:, None], ~neg, neg)
    order = np.argsort(~first, axis=1, kind="stable")
    v = np.take_along_axis(verts, order[:, :, None], axis=1)
    p = np.take_along_axis(phi, order, axis=1)

    qv, qs = TET_RULE_W.size, TRI_RULE_W.size
    offs = [np.zeros(n + 1, dtype=np.int64) for _ in range(3)]
    for off, count in zip(offs, (np.where(nneg == 1, qv, 3 * qv),
                                 np.where(nneg == 3, qv, 3 * qv),
                                 np.where(nneg == 2, 2 * qs, qs))):
        np.cumsum(count, out=off[1:])
    # (points, weights, offsets, measures) of side 1, side 2, the interface
    side1, side2, surf = ((np.empty((off[-1], 3)), np.empty(off[-1]), off,
                           np.empty(n)) for off in offs)

    def put(dst, rows, cells):
        pts, wts, off, vol = dst
        rp, rw = _mapped_rule(cells)
        idx = off[rows, None] + np.arange(rw.shape[1])
        pts[idx] = rp
        wts[idx] = rw
        vol[rows] = rw.sum(axis=1)

    one = np.flatnonzero(nneg != 2)
    vo, po = v[one], p[one]
    c = [_cut_point(vo, po, 0, j) for j in (1, 2, 3)]
    lone_neg = nneg[one] == 1
    for cells, on_side1 in ((np.stack([vo[:, 0]] + c, axis=1)[:, None],
                             lone_neg),
                            (_prism(*c, vo[:, 1], vo[:, 2], vo[:, 3]),
                             ~lone_neg)):
        put(side1, one[on_side1], cells[on_side1])
        put(side2, one[~on_side1], cells[~on_side1])
    put(surf, one, np.stack(c, axis=1)[:, None])

    two = np.flatnonzero(nneg == 2)
    vt, pt = v[two], p[two]
    pac, pad = _cut_point(vt, pt, 0, 2), _cut_point(vt, pt, 0, 3)
    pbc, pbd = _cut_point(vt, pt, 1, 2), _cut_point(vt, pt, 1, 3)
    put(side1, two, _prism(vt[:, 0], pac, pad, vt[:, 1], pbc, pbd))
    put(side2, two, _prism(vt[:, 2], pac, pbc, vt[:, 3], pad, pbd))
    # interface quad in cyclic order, split along one diagonal
    put(surf, two, np.stack([np.stack([pac, pad, pbd], axis=1),
                             np.stack([pac, pbd, pbc], axis=1)], axis=1))

    # stacked matmuls reproduce the one-element G.T @ phi and
    # np.linalg.norm(grad) to the last bit; einsum does not
    grad = (np.swapaxes(p1_gradients(verts), 1, 2) @ phi[:, :, None])[..., 0]
    nrm = np.sqrt((grad[:, None, :] @ grad[:, :, None])[:, 0, 0])
    return CutRules(vol1=side1[3], vol2=side2[3], normals=grad / nrm[:, None],
                    vpts1=side1[0], vw1=side1[1], voff1=side1[2],
                    vpts2=side2[0], vw2=side2[1], voff2=side2[2],
                    spts=surf[0], sw=surf[1], soff=surf[2])


@dataclass(frozen=True)
class CutInfo(CutRules):
    """The cut rules of a mesh/level-set pair plus the class of every tet,
    the snapped vertex level-set values, the ids of the cut tets (in the
    rules' element order) and their side-1 volume fractions kappa1."""

    tet_class: np.ndarray
    vertex_phi: np.ndarray
    cut_tets: np.ndarray
    kappa1: np.ndarray

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


def _reject(bad, cut_tets, what):
    """Raise naming the first cut tet flagged in bad and how many are."""
    ids = cut_tets[bad]
    if ids.size:
        raise RuntimeError(f"{what} tet {ids[0]} ({ids.size} of "
                           f"{cut_tets.size} cut tets fail)")


def build_cut_info(mesh: Mesh, phi) -> CutInfo:
    """Classify all elements and build cut quadrature for the cut ones."""
    tet_class, vertex_phi = classify(mesh, phi)
    cut_tets = np.flatnonzero(tet_class == CUT)
    tets = mesh.tets[cut_tets]
    rules = cut_rules(mesh.vertices[tets], vertex_phi[tets])

    tot = mesh.volumes[cut_tets]
    _reject(~(np.abs(rules.vol1 + rules.vol2 - tot)
              <= 1e-12 * np.maximum(1.0, tot)),
            cut_tets, "cut volumes do not partition")
    negative = np.zeros(cut_tets.size, dtype=bool)
    for w, off in ((rules.vw1, rules.voff1), (rules.vw2, rules.voff2),
                   (rules.sw, rules.soff)):
        negative[np.searchsorted(off, np.flatnonzero(w < 0), "right") - 1] = True
    _reject(negative, cut_tets, "negative cut quadrature weight on")

    return CutInfo(tet_class=tet_class, vertex_phi=vertex_phi, cut_tets=cut_tets,
                   kappa1=rules.vol1 / tot, **vars(rules))


def _unique_rows(rows: np.ndarray, n_vertices: int):
    """Distinct rows of sorted vertex triples, through one exact int64 key
    per row.

    Returns (uniq, inverse, order): uniq and inverse are those of
    np.unique(rows, axis=0, return_inverse=True), and order is the stable
    sort of the rows, np.argsort(inverse, kind="stable").
    """
    if n_vertices ** 3 - 1 > np.iinfo(np.int64).max:  # the largest key
        raise ValueError(f"{n_vertices} vertices overflow the int64 keys of "
                         "vertex triples")
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


def ghost_facets(mesh: Mesh, cutinfo: CutInfo,
                 side: int) -> tuple[np.ndarray, np.ndarray]:
    """Interior facets whose two tets lie in the side's extended domain with
    at least one of them cut.

    Returns (tets, triples): the two tets of each facet, lower id first, and
    its sorted vertex triple, facets in ascending triple order.  Both tets of
    such a facet have at least 3 vertices on cut tets (the facet's own), so
    only the faces of the side's tets with 3 or more such vertices are keyed,
    and a keyed face owned by more than 2 tets is rejected.
    """
    if side == 1:
        in_ext = cutinfo.tet_class <= CUT
    elif side == 2:
        in_ext = cutinfo.tet_class >= CUT
    else:
        raise ValueError("side must be 1 or 2")
    marked = np.zeros(mesh.n_vertices, dtype=bool)
    marked[mesh.tets[cutinfo.cut_tets]] = True
    near = np.flatnonzero(in_ext & (marked[mesh.tets].sum(axis=1) >= 3))
    faces = np.sort(mesh.tets[near][:, _TET_FACES], axis=2).reshape(-1, 3)
    _, inverse, order = _unique_rows(faces, mesh.n_vertices)
    sorted_ids = inverse[order]
    if np.any(sorted_ids[2:] == sorted_ids[:-2]):
        raise ValueError("nonconforming mesh: facet shared by more than 2 tets")
    # the stable sort keeps the lower owner of each shared face first
    pair = np.flatnonzero(sorted_ids[1:] == sorted_ids[:-1])
    tets = near[np.stack([order[pair], order[pair + 1]], axis=1) // 4]
    keep = np.any(cutinfo.tet_class[tets] == CUT, axis=1)
    return tets[keep], faces[order[pair[keep]]]


def facet_normals(mesh: Mesh,
                  triples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals, in no particular orientation, and areas of the
    triangles with the given vertex triples."""
    p = mesh.vertices[triples]
    nvec = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    nrm = np.linalg.norm(nvec, axis=1)
    return nvec / nrm[:, None], 0.5 * nrm
