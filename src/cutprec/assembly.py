"""Stiffness/load assembly for the stabilized Nitsche cut discretizations.

Two variational forms are assembled on the side-block nodal basis delivered
by the space module:

* interface: a_h + N_h + G_h with per-side diffusion, cut-fraction averaged
  consistency terms, interface penalty and one-sided ghost penalties;
* fictitious domain: the one-sided form with boundary data imposed weakly
  on the zero level set.

Right-hand-side callables are vectorized: f(points) with points (n, 3)
returns (n,); f=None assembles no volume load.  Interface Dirichlet data
is g(points, side); fictitious domain trace data is g(points).  The
loads, and the error norms of the experiments module, integrate over a
side with one element-major volume quadrature, volume_point_blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import CUT, NEG, POS, CutInfo, TET_RULE_LAM, TET_RULE_W, \
    facet_normals, ghost_facets
from .mesh import Mesh
from .space import DofLayout, FICTITIOUS, INTERFACE

# elements per block of the volume quadrature, cut or not
QUADRATURE_BLOCK = 1024


@dataclass(frozen=True)
class ProblemCoefficients:
    """Diffusion pair and stabilization weights.

    The interface penalty is scaled by the harmonic mean alpha_bar of
    (alpha1, alpha2); the fictitious-domain form ignores the diffusion pair
    (unit coefficient).  The boundary penalty is divided by the element
    diameter in the interface form and by the global mesh size in the
    fictitious-domain form; each ghost facet is scaled by the global mesh
    size.
    """

    alpha1: float = 1.0
    alpha2: float = 10.0
    gamma: float = 10.0
    beta: float = 0.1

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "gamma", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ValueError("diffusion coefficients must be positive")
        if self.gamma <= 0:
            raise ValueError("penalty parameter gamma must be positive")
        if self.beta < 0:
            raise ValueError("ghost penalty weight beta must be nonnegative")

    @property
    def alpha_bar(self) -> float:
        return 2.0 * self.alpha1 * self.alpha2 / (self.alpha1 + self.alpha2)


@dataclass(frozen=True)
class TransformedSystem:
    """System in the split basis.

    Ahat = L^T A L and bhat = L^T b for the side-block system (A, b); A0/A1
    are the leading/trailing principal blocks of Ahat in the (x0, x1)
    ordering.  bhat is None for an operator transformed without its
    right-hand side (b=None), as experiments.build_system builds it.
    """

    L: sp.csr_matrix
    Ahat: sp.csr_matrix
    bhat: np.ndarray
    A0: sp.csr_matrix
    A1: sp.csr_matrix
    layout: DofLayout


class _SystemAccumulator:
    """COO triplet buffer of symmetric element blocks, with symmetric
    elimination of prescribed dofs.

    A block is given by its upper triangle, (m, k(k+1)/2) entries in
    np.triu_indices(k) order, over k distinct global dof ids per element;
    -1 marks an eliminated slot, whose prescribed value (lift) moves to
    the right-hand side.  Each entry becomes one int32 triplet (the index
    type scipy gives the matrix anyway) with row <= col; matrix() sums
    them and mirrors the off-diagonal sums.  Elements whose dofs are all
    free take no mask.
    """

    def __init__(self, ndof: int):
        if ndof > np.iinfo(np.int32).max:
            raise ValueError(f"{ndof} dofs do not fit int32 indices")
        self.ndof = ndof
        self._rows = []
        self._cols = []
        self._vals = []
        self.b = np.zeros(ndof)

    def add_local(self, upper, dofs, lift=None):
        iu, ju = np.triu_indices(dofs.shape[1])
        part = np.any(dofs < 0, axis=1)
        if part.any():
            if lift is None:
                raise ValueError("eliminated dof without prescribed value")
            self._eliminate(upper[part], dofs[part], lift[part], iu, ju)
            upper, dofs = upper[~part], dofs[~part]
        dofs = dofs.astype(np.int32)
        self._add(dofs[:, iu], dofs[:, ju], upper)

    def _eliminate(self, upper, dofs, lift, iu, ju):
        """Partly eliminated elements: the entries between free dofs, and
        b_r -= a_rc lift_c for each free r and eliminated c."""
        ri, rj = dofs[:, iu], dofs[:, ju]
        fi, fj = ri >= 0, rj >= 0
        keep = fi & fj
        self._add(ri[keep].astype(np.int32), rj[keep].astype(np.int32),
                  upper[keep])
        to_i, to_j = fi & ~fj, ~fi & fj
        self.b -= np.bincount(
            np.concatenate([ri[to_i], rj[to_j]]),
            np.concatenate([(upper * lift[:, ju])[to_i],
                            (upper * lift[:, iu])[to_j]]),
            minlength=self.ndof)

    def _add(self, ri, rj, vals):
        self._rows.append(np.minimum(ri, rj).ravel())
        self._cols.append(np.maximum(ri, rj).ravel())
        self._vals.append(vals.ravel())

    def add_load(self, vals, dofs):
        free = dofs >= 0
        np.add.at(self.b, dofs[free], vals[free])

    def matrix(self) -> sp.csr_matrix:
        """The summed matrix; releases the triplets, leaves b alone.  Its
        pattern is that of the full blocks, explicit zeros included."""
        rows = _take_all(self._rows, np.int32)
        cols = _take_all(self._cols, np.int32)
        vals = _take_all(self._vals, float)
        upper = sp.coo_matrix((vals, (rows, cols)),
                              shape=(self.ndof, self.ndof)).tocsr().tocoo()
        off = upper.row < upper.col
        A = sp.coo_matrix(
            (np.concatenate([upper.data, upper.data[off]]),
             (np.concatenate([upper.row, upper.col[off]]),
              np.concatenate([upper.col, upper.row[off]]))),
            shape=(self.ndof, self.ndof)).tocsr()
        A.sort_indices()
        return A


def _take_all(pieces: list, dtype) -> np.ndarray:
    """Concatenate the pieces and empty the list, freeing them."""
    out = np.concatenate(pieces) if pieces else np.zeros(0, dtype)
    pieces.clear()
    return out


def element_diameters(verts: np.ndarray) -> np.ndarray:
    """Longest edge of each tet given as vertex arrays of shape (n, 4, 3)."""
    pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    lengths = np.stack([np.linalg.norm(verts[:, a] - verts[:, b], axis=1)
                        for a, b in pairs], axis=1)
    return lengths.max(axis=1)


def dirichlet_values(mesh: Mesh, g) -> np.ndarray:
    """Per-side boundary data interpolated at box-boundary vertices.

    Returns (n_vertices, 2); rows of interior vertices are zero.
    """
    vals = np.zeros((mesh.n_vertices, 2))
    bnd = np.flatnonzero(mesh.boundary_vertex_flags)
    if bnd.size:
        pts = mesh.vertices[bnd]
        vals[bnd, 0] = np.asarray(g(pts, 1), dtype=float)
        vals[bnd, 1] = np.asarray(g(pts, 2), dtype=float)
    return vals


def _check_cut_rules(mesh: Mesh, cutinfo: CutInfo):
    cut = np.flatnonzero(cutinfo.tet_class == CUT)
    if cut.size != cutinfo.n_cut or not np.array_equal(cut, np.sort(cutinfo.cut_tets)):
        raise ValueError("cut rules do not cover the cut elements")
    if cutinfo.tet_class.shape[0] != mesh.n_tets:
        raise ValueError("classification does not match the mesh")


def _side_measures(mesh: Mesh, cutinfo: CutInfo):
    meas1 = np.where(cutinfo.tet_class == NEG, mesh.volumes, 0.0)
    meas2 = np.where(cutinfo.tet_class == POS, mesh.volumes, 0.0)
    meas1[cutinfo.cut_tets] = cutinfo.vol1
    meas2[cutinfo.cut_tets] = cutinfo.vol2
    return meas1, meas2


def _add_volume(acc, mesh, grads, meas, alpha, vdof, liftvals):
    sel = np.flatnonzero(meas > 0)
    if sel.size == 0:
        return
    g = grads[sel]
    upper = _upper(g @ g.transpose(0, 2, 1))
    del g  # 144 MB on side 2 at level 4, not needed by add_local
    upper *= (alpha * meas[sel])[:, None]
    verts = mesh.tets[sel]
    lift = None if liftvals is None else liftvals[verts]
    acc.add_local(upper, vdof[verts], lift)


def _upper(local: np.ndarray) -> np.ndarray:
    """Upper triangles of symmetric (m, k, k) blocks, np.triu_indices(k)
    order."""
    iu, ju = np.triu_indices(local.shape[1])
    return local[:, iu, ju]


def _surface_batches(mesh, cutinfo, grads):
    """Group cut elements by interface point count; yield per-group geometry.

    Yields (cut-local ids, element ids, weights (m,p), barycentric values
    (m,p,4), shape normal derivatives (m,4)).
    """
    counts = np.diff(cutinfo.soff)
    for cnt in np.unique(counts):
        C = np.flatnonzero(counts == cnt)
        tids = cutinfo.cut_tets[C]
        idx = cutinfo.soff[C][:, None] + np.arange(cnt)[None, :]
        pts = cutinfo.spts[idx]
        w = cutinfo.sw[idx]
        v0 = mesh.vertices[mesh.tets[tids, 0]]
        lam = np.einsum("mix,mpx->mpi", grads[tids], pts - v0[:, None, :])
        lam[:, :, 0] += 1.0
        gn = np.einsum("mix,mx->mi", grads[tids], cutinfo.normals[C])
        yield C, tids, w, lam, gn


def _ghost_patches(mesh, cutinfo, grads, side):
    """The side's ghost facets as five-vertex patches: the 4 vertices of
    the facet's first tet t0, then the apex of its second tet t1.

    Returns (verts (m, 5), d (m, 5), areas (m,)), where d holds the jumps
    [grad phi . n] of the patch's basis functions across the facet: g0 . n
    - g1 . n at the 3 facet vertices, g0 . n at t0's apex and -g1 . n at
    t1's.  The unit normal n is not oriented: negating it negates each d
    exactly, so the products d_i d_j are bitwise the same.
    """
    tets, triples = ghost_facets(mesh, cutinfo, side)
    n, areas = facet_normals(mesh, triples)
    t0, t1 = tets[:, 0], tets[:, 1]
    v0, v1 = mesh.tets[t0], mesh.tets[t1]
    same = v1[:, :, None] == v0[:, None, :]
    shared = same.any(axis=2)
    slot = np.where(shared, same.argmax(axis=2), 4)  # t1's slots in the patch
    d = np.zeros((tets.shape[0], 5))
    d[:, :4] = np.einsum("mix,mx->mi", grads[t0], n)
    d[np.arange(tets.shape[0])[:, None], slot] -= np.einsum(
        "mix,mx->mi", grads[t1], n)
    return np.concatenate([v0, v1[~shared][:, None]], axis=1), d, areas


def _add_ghost(acc, mesh, cutinfo, grads, side, coeffs, vdof, liftvals):
    """Ghost penalty beta h |F| [grad u . n][grad v . n] on the side's ghost
    facets F, one five-vertex patch (_ghost_patches) per facet."""
    if coeffs.beta == 0.0:
        return
    verts, d, areas = _ghost_patches(mesh, cutinfo, grads, side)
    iu, ju = np.triu_indices(5)
    upper = (coeffs.beta * mesh.h * areas)[:, None] * d[:, iu] * d[:, ju]
    lift = None if liftvals is None else liftvals[verts]
    acc.add_local(upper, vdof[verts], lift)


def volume_point_blocks(mesh: Mesh, cutinfo: CutInfo, side: int):
    """One side's volume quadrature, element-major, in blocks of at most
    QUADRATURE_BLOCK elements: first the side's uncut elements under the
    tet rule, then its part of the cut elements under their cut rules,
    grouped by rule size (14 or 42 points), in element order within a
    group.

    Yields per block its elements (m,), their points (m, q, 3) and
    weights (m, q), and the barycentric coordinates of the points: the
    shared (q, 4) TET_RULE_LAM for uncut elements, (m, q, 4) for cut ones.
    """
    full = cutinfo.minus1 if side == 1 else cutinfo.minus2
    for start in range(0, full.size, QUADRATURE_BLOCK):
        elems = full[start:start + QUADRATURE_BLOCK]
        yield (elems, TET_RULE_LAM @ mesh.vertices[mesh.tets[elems]],
               mesh.volumes[elems, None] * TET_RULE_W, TET_RULE_LAM)
    if side == 1:
        vpts, vw, off = cutinfo.vpts1, cutinfo.vw1, cutinfo.voff1
    else:
        vpts, vw, off = cutinfo.vpts2, cutinfo.vw2, cutinfo.voff2
    counts = np.diff(off)
    for q in np.unique(counts):
        group = np.flatnonzero(counts == q)
        for start in range(0, group.size, QUADRATURE_BLOCK):
            C = group[start:start + QUADRATURE_BLOCK]
            elems = cutinfo.cut_tets[C]
            idx = off[C, None] + np.arange(q)
            pts = vpts[idx]
            lam = (pts - mesh.vertices[mesh.tets[elems, :1]]) @ \
                mesh.gradients[elems].transpose(0, 2, 1)
            lam[:, :, 0] += 1.0
            yield elems, pts, vw[idx], lam


def _add_loads(acc, mesh, cutinfo, side, f, vdof):
    """Load vector of f over one side, summed per element before it is
    added."""
    for elems, pts, w, lam in volume_point_blocks(mesh, cutinfo, side):
        wf = w * np.asarray(f(pts.reshape(-1, 3)),
                            dtype=float).reshape(w.shape)
        acc.add_load((wf[:, None, :] @ lam)[:, 0], vdof[mesh.tets[elems]])


def assemble_interface(mesh: Mesh, cutinfo: CutInfo, layout: DofLayout,
                       coeffs: ProblemCoefficients, f, g):
    """Assemble the coupled two-sided system in the side-block basis.

    g(points, side) supplies the box-boundary Dirichlet data per side; the
    corresponding vertices are eliminated symmetrically.  Returns (A, b).
    """
    if layout.problem != INTERFACE:
        raise ValueError("layout does not describe the interface problem")
    _check_cut_rules(mesh, cutinfo)
    grads = mesh.gradients
    diam = element_diameters(mesh.vertices[mesh.tets[cutinfo.cut_tets]])
    liftvals = dirichlet_values(mesh, g)
    acc = _SystemAccumulator(layout.dim)

    meas1, meas2 = _side_measures(mesh, cutinfo)
    _add_volume(acc, mesh, grads, meas1, coeffs.alpha1, layout.v1_dof,
                liftvals[:, 0])
    _add_volume(acc, mesh, grads, meas2, coeffs.alpha2, layout.v2_dof,
                liftvals[:, 1])

    pen = coeffs.alpha_bar * coeffs.gamma
    for C, tids, w, lam, gn in _surface_batches(mesh, cutinfo, grads):
        jump = np.concatenate([lam, -lam], axis=2)
        k1 = cutinfo.kappa1[C][:, None]
        flux = np.concatenate([-coeffs.alpha1 * k1 * gn,
                               -coeffs.alpha2 * (1.0 - k1) * gn], axis=1)
        mom = np.einsum("mp,mpi->mi", w, jump)
        consistency = flux[:, :, None] * mom[:, None, :]
        local = consistency + consistency.transpose(0, 2, 1)
        local += (pen / diam[C])[:, None, None] * np.einsum(
            "mp,mpi,mpj->mij", w, jump, jump)
        verts = mesh.tets[tids]
        dofs = np.concatenate([layout.v1_dof[verts], layout.v2_dof[verts]],
                              axis=1)
        lift = np.concatenate([liftvals[verts, 0], liftvals[verts, 1]],
                              axis=1)
        acc.add_local(_upper(local), dofs, lift)

    _add_ghost(acc, mesh, cutinfo, grads, 1, coeffs, layout.v1_dof,
               liftvals[:, 0])
    _add_ghost(acc, mesh, cutinfo, grads, 2, coeffs, layout.v2_dof,
               liftvals[:, 1])
    A = acc.matrix()

    if f is not None:
        _add_loads(acc, mesh, cutinfo, 1, f, layout.v1_dof)
        _add_loads(acc, mesh, cutinfo, 2, f, layout.v2_dof)
    return A, acc.b


def assemble_fd(mesh: Mesh, cutinfo: CutInfo, layout: DofLayout,
                coeffs: ProblemCoefficients, f, g):
    """Assemble the one-sided system with weak boundary data on the zero set.

    g(points) is the trace datum on the reconstructed boundary.  All nodes
    of the extended domain are unknowns.  Returns (A, b).
    """
    if layout.problem != FICTITIOUS:
        raise ValueError("layout does not describe the fictitious domain")
    _check_cut_rules(mesh, cutinfo)
    grads = mesh.gradients
    acc = _SystemAccumulator(layout.dim)

    meas1, _ = _side_measures(mesh, cutinfo)
    _add_volume(acc, mesh, grads, meas1, 1.0, layout.v1_dof, None)

    penfac = coeffs.gamma / mesh.h
    for C, tids, w, lam, gn in _surface_batches(mesh, cutinfo, grads):
        mom = np.einsum("mp,mpi->mi", w, lam)
        consistency = -mom[:, :, None] * gn[:, None, :]
        local = consistency + consistency.transpose(0, 2, 1)
        local += penfac * np.einsum("mp,mpi,mpj->mij", w, lam, lam)
        verts = mesh.tets[tids]
        dofs = layout.v1_dof[verts]
        if np.any(dofs < 0):
            raise ValueError("active element with unnumbered vertex")
        acc.add_local(_upper(local), dofs)

        idx = cutinfo.soff[C][:, None] + np.arange(w.shape[1])[None, :]
        gv = np.asarray(g(cutinfo.spts[idx].reshape(-1, 3)),
                        dtype=float).reshape(w.shape)
        gw = np.einsum("mp,mp->m", w, gv)
        bloc = -gw[:, None] * gn
        bloc += penfac * np.einsum("mp,mp,mpi->mi", w, gv, lam)
        acc.add_load(bloc, dofs)

    _add_ghost(acc, mesh, cutinfo, grads, 1, coeffs, layout.v1_dof,
               None)
    A = acc.matrix()

    if f is not None:
        _add_loads(acc, mesh, cutinfo, 1, f, layout.v1_dof)
    return A, acc.b


def _split_columns(layout: DofLayout):
    """Row/column index pairs of the basis transformation, all entries one."""
    rows = []
    cols = []
    for vdof in (layout.v1_dof, layout.v2_dof):
        present = vdof[layout.x0_vertices] >= 0
        vs = layout.x0_vertices[present]
        rows.append(vdof[vs])
        cols.append(layout.x0_dof[vs])
    in1 = np.isin(layout.x1_vertices, layout.sets.IG1)
    for vdof, vs in ((layout.v1_dof, layout.x1_vertices[in1]),
                     (layout.v2_dof, layout.x1_vertices[~in1])):
        rows.append(vdof[vs])
        cols.append(layout.x1_dof[vs])
    return np.concatenate(rows), np.concatenate(cols)


def build_L(layout: DofLayout) -> sp.csr_matrix:
    """Basis transformation from split (x0, x1) to side-block coefficients.

    Each x0 column places a unit entry in every side block whose extended
    domain contains the vertex; each x1 column hits the single block where
    the vertex acts as a cut dof (the side opposite its level-set sign).
    For the fictitious domain there is one side block, so L is a
    permutation (the identity, since the side-block ordering already lists
    interior dofs before strip dofs).
    """
    rows, cols = _split_columns(layout)
    expected = layout.dim + (layout.N1 if layout.problem == INTERFACE else 0)
    if rows.size != expected:
        raise ValueError("transformation entry count mismatch")
    L = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                      shape=(layout.dim, layout.dim)).tocsr()
    L.sort_indices()
    return L


def transform(A: sp.csr_matrix, b: np.ndarray, L: sp.csr_matrix,
              layout: DofLayout) -> TransformedSystem:
    """Congruence transform to the split basis and principal block split."""
    Ahat = (L.T @ A @ L).tocsr()
    Ahat.sort_indices()
    bhat = None if b is None else L.T @ b
    n0 = layout.N0
    A0 = Ahat[:n0, :n0].tocsr()
    A1 = Ahat[n0:, n0:].tocsr()
    if A1.shape[0] and A1.diagonal().min() <= 0.0:
        raise ValueError(
            "non-positive diagonal in the strip block; assembled system is "
            "not positive definite (check penalty parameters)")
    return TransformedSystem(L=L, Ahat=Ahat, bhat=bhat, A0=A0, A1=A1,
                             layout=layout)

