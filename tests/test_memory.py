"""Memory of the mesh build, the ghost lookup, assembly, error norms and
exact solves: no facet table on any mesh, ghost facets keyed only near the
cut strip, int32 triplets built into the matrix before the loads, one
volume quadrature per side in blocks of elements for the loads and the
error norms, the band of the banded Cholesky mapped outside the malloc
heap, and no memory left behind by the SGS sweeps or by repeated study
passes in one interpreter.

None of the blocking may change a number, so a block of 5 elements is
compared bit for bit with one block holding every element.  The int32
upper-triangle triplets are compared with the int64 full-block
accumulator they replaced: the same pattern of A, explicit zeros
included, and A, b and Ahat within 1e-14 of their largest entries (the
duplicates are summed in another order).  The level-2 peaks the
blocking was made for are bounded (tracemalloc, plus the bands, which are
mapped outside the traced heap).  The per-side quadrature replaced four
loops, uncut and cut elements for the loads and for the error norms; they
are kept here, at full size, as the oracles that the loads and the norms
must match to 1e-12 relative (the summation order changed).  The facet
table is in tests/test_mesh.py.
"""

import contextlib
import gc
import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutprec import assembly, cli, experiments
from cutprec.assembly import _SystemAccumulator, assemble_interface, \
    transform
from cutprec.experiments import ExperimentConfig, build_system, \
    error_norms, interface_solution
from cutprec.geometry import TET_RULE_LAM, TET_RULE_W, SphereLevelSet, \
    build_cut_info, ghost_facets
from cutprec.mesh import MeshHierarchy
from cutprec.solver import DirectSolve, SymmetricGaussSeidel
from cutprec.space import FICTITIOUS, INTERFACE, build_dof_layout

MB = 1e6
KiB = 1024


class OracleAccumulator:
    """The accumulator before int32 triplets: int64 pieces, all alive until
    matrix() concatenates them."""

    def __init__(self, ndof: int):
        self.ndof = ndof
        self._rows = []
        self._cols = []
        self._vals = []
        self.b = np.zeros(ndof)

    def add_local(self, local, dofs, lift=None):
        m, k = dofs.shape
        if m == 0:
            return
        free = dofs >= 0
        rows = np.broadcast_to(dofs[:, :, None], (m, k, k))
        cols = np.broadcast_to(dofs[:, None, :], (m, k, k))
        keep = free[:, :, None] & free[:, None, :]
        self._rows.append(rows[keep])
        self._cols.append(cols[keep])
        self._vals.append(local[keep])
        if not free.all():
            if lift is None:
                raise ValueError("eliminated dof without prescribed value")
            drop = free[:, :, None] & ~free[:, None, :]
            contrib = local * lift[:, None, :]
            np.add.at(self.b, rows[drop], -contrib[drop])

    def add_load(self, vals, dofs):
        free = dofs >= 0
        np.add.at(self.b, dofs[free], vals[free])

    def matrix(self) -> sp.csr_matrix:
        if self._rows:
            rows = np.concatenate(self._rows)
            cols = np.concatenate(self._cols)
            vals = np.concatenate(self._vals)
        else:
            rows = cols = np.zeros(0, dtype=np.int64)
            vals = np.zeros(0)
        A = sp.coo_matrix((vals, (rows, cols)),
                          shape=(self.ndof, self.ndof)).tocsr()
        A.sort_indices()
        return A


class UpperBlockOracle(OracleAccumulator):
    """The oracle fed by the assembly's upper triangles, each mirrored back
    to its full symmetric block."""

    def add_local(self, upper, dofs, lift=None):
        k = dofs.shape[1]
        iu, ju = np.triu_indices(k)
        local = np.empty((dofs.shape[0], k, k))
        local[:, iu, ju] = upper
        local[:, ju, iu] = upper
        super().add_local(local, dofs, lift)


def assemble_recording(mesh, config):
    """experiments._assemble's transformed system, with the side-block A
    and b that it transformed."""
    seen = []

    def recording(A, b, L, layout):
        seen.append((A, b))
        return transform(A, b, L, layout)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "transform", recording)
        tsys = experiments._assemble(mesh, config.x0, config)[2]
    (A, b), = seen
    return A, b, tsys


def assert_close_systems(got, want, tol=1e-14):
    """Two (A, b, tsys) of assemble_recording: the same pattern of A,
    explicit zeros included, A, b and bhat within tol of their largest
    entries, and Ahat within tol as a sparse difference (its pattern drops
    the exact zeros that L^T A L sums to).  Returns the relative maxima."""
    (A, b, tsys), (Aw, bw, tw) = got, want
    assert np.array_equal(A.indptr, Aw.indptr)
    assert np.array_equal(A.indices, Aw.indices)
    errs = {"A": np.abs(A.data - Aw.data).max() / np.abs(Aw.data).max(),
            "b": np.abs(b - bw).max() / np.abs(bw).max(),
            "bhat": np.abs(tsys.bhat - tw.bhat).max() / np.abs(tw.bhat).max(),
            "Ahat": abs(tsys.Ahat - tw.Ahat).max() / abs(tw.Ahat).max()}
    for name, err in errs.items():
        assert err <= tol, (name, err)
    assert_same_csr(tsys.L, tw.L)
    return errs


def oracle_accumulate_full(mesh, grads, sel, vals, sol, side, acc):
    """Full-element error terms over all elements at once."""
    if sel.size == 0:
        return
    verts = mesh.tets[sel]
    coords = mesh.vertices[verts]
    pts = np.einsum("qi,mix->mqx", TET_RULE_LAM, coords)
    flat = pts.reshape(-1, 3)
    ue, ge = sol.u_and_grad(flat, side)
    ue = ue.reshape(sel.size, -1)
    ge = ge.reshape(sel.size, -1, 3)
    uh = np.einsum("qi,mi->mq", TET_RULE_LAM, vals[verts])
    gh = np.einsum("mix,mi->mx", grads[sel], vals[verts])
    w = mesh.volumes[sel, None] * TET_RULE_W[None, :]
    acc[0] += float(np.sum(w * (ue - uh) ** 2))
    diff = ge - gh[:, None, :]
    acc[1] += float(np.sum(w * np.einsum("mqx,mqx->mq", diff, diff)))


def oracle_add_full_loads(acc, mesh, sel, f, vdof):
    """Loads of the uncut elements, all at once."""
    if sel.size == 0:
        return
    verts = mesh.vertices[mesh.tets[sel]]
    pts = np.einsum("qi,mix->mqx", TET_RULE_LAM, verts)
    fv = np.asarray(f(pts.reshape(-1, 3)), dtype=float).reshape(sel.size, -1)
    bloc = mesh.volumes[sel, None] * np.einsum(
        "q,mq,qi->mi", TET_RULE_W, fv, TET_RULE_LAM)
    acc.add_load(bloc, vdof[mesh.tets[sel]])


def oracle_cut_points(mesh, cutinfo, grads, side):
    """Volume quadrature of all cut elements on one side at once."""
    if side == 1:
        pts, w, off = cutinfo.vpts1, cutinfo.vw1, cutinfo.voff1
    else:
        pts, w, off = cutinfo.vpts2, cutinfo.vw2, cutinfo.voff2
    tids = cutinfo.cut_tets[np.repeat(np.arange(cutinfo.n_cut), np.diff(off))]
    lam = np.einsum("pix,px->pi", grads[tids],
                    pts - mesh.vertices[mesh.tets[tids, 0]])
    lam[:, 0] += 1.0
    return pts, w, tids, lam


def oracle_add_cut_loads(acc, mesh, cutinfo, grads, side, f, vdof):
    pts, w, tids, lam = oracle_cut_points(mesh, cutinfo, grads, side)
    fv = np.asarray(f(pts), dtype=float)
    acc.add_load((w * fv)[:, None] * lam, vdof[mesh.tets[tids]])


def oracle_accumulate_cut(mesh, grads, cutinfo, vals, sol, side, acc):
    """Cut-element error terms over all cut points at once."""
    pts, w, tids, lam = oracle_cut_points(mesh, cutinfo, grads, side)
    nodal = vals[mesh.tets[tids]]
    uh = np.einsum("pi,pi->p", lam, nodal)
    ue, ge = sol.u_and_grad(pts, side)
    gh = np.einsum("pix,pi->px", grads[tids], nodal)
    acc[0] += float(w @ (ue - uh) ** 2)
    diff = ge - gh
    acc[1] += float(w @ np.einsum("px,px->p", diff, diff))


def assert_same_csr(A, B):
    for part in ("data", "indices", "indptr"):
        a, b = getattr(A, part), getattr(B, part)
        assert a.dtype == b.dtype, part
        assert np.array_equal(a, b), part


def oracle_add_loads(acc, mesh, cutinfo, side, f, vdof):
    full = cutinfo.minus1 if side == 1 else cutinfo.minus2
    oracle_add_full_loads(acc, mesh, full, f, vdof)
    oracle_add_cut_loads(acc, mesh, cutinfo, mesh.gradients, side, f, vdof)


def oracle_accumulate(mesh, cutinfo, vals, sol, side, acc):
    full = cutinfo.minus1 if side == 1 else cutinfo.minus2
    oracle_accumulate_full(mesh, mesh.gradients, full, vals, sol, side, acc)
    oracle_accumulate_cut(mesh, mesh.gradients, cutinfo, vals, sol, side,
                          acc)


def assemble_and_norms(mesh, config):
    """The transformed system, its exact solution y in the side-block basis
    and the error norms of y."""
    cutinfo, sol, tsys = experiments._assemble(mesh, config.x0, config)
    y = tsys.L @ spla.spsolve(tsys.Ahat.tocsc(), tsys.bhat)
    return cutinfo, tsys, y, error_norms(mesh, cutinfo, tsys.layout, y, sol)


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_matches_full_size_oracles(problem, monkeypatch):
    config = ExperimentConfig(problem=problem)
    mesh = MeshHierarchy.build(1).finest
    monkeypatch.setattr(assembly, "QUADRATURE_BLOCK", mesh.n_tets)
    _, whole, _, whole_norms = assemble_and_norms(mesh, config)
    block = 5
    monkeypatch.setattr(assembly, "QUADRATURE_BLOCK", block)
    cutinfo, tsys, _, norms = assemble_and_norms(mesh, config)
    sizes = (cutinfo.minus1.size, cutinfo.minus2.size, cutinfo.n_cut)
    assert all(n > 2 * block for n in sizes)
    assert any(n % block for n in sizes)  # a ragged last block
    for name in ("Ahat", "A0", "A1", "L"):
        assert_same_csr(getattr(tsys, name), getattr(whole, name))
    assert np.array_equal(tsys.bhat, whole.bhat)
    assert norms == whole_norms


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_int32_triplets_match_int64_oracle(problem, monkeypatch):
    # level 1: A and Ahat within 9.9e-16 (interface) and 7.3e-16
    # (fictitious domain), b and bhat within 2.1e-16 and 0
    config = ExperimentConfig(problem=problem)
    mesh = MeshHierarchy.build(1).finest
    got = assemble_recording(mesh, config)
    monkeypatch.setattr(assembly, "_SystemAccumulator", UpperBlockOracle)
    assert_close_systems(got, assemble_recording(mesh, config))


@pytest.mark.parametrize("problem", [INTERFACE, FICTITIOUS])
def test_volume_quadrature_matches_old_loops(problem, monkeypatch):
    # level 1: bhat moves by 3.8e-16 (interface) and 2.2e-15 (fictitious
    # domain), the norms by 0 and 1.2e-16
    config = ExperimentConfig(problem=problem)
    mesh = MeshHierarchy.build(1).finest
    cutinfo, tsys, y, norms = assemble_and_norms(mesh, config)
    monkeypatch.setattr(assembly, "_add_loads", oracle_add_loads)
    monkeypatch.setattr(experiments, "_accumulate", oracle_accumulate)
    _, sol, oracle = experiments._assemble(mesh, config.x0, config)
    assert np.max(np.abs(tsys.bhat - oracle.bhat)) <= \
        1e-12 * np.max(np.abs(oracle.bhat))
    old = error_norms(mesh, cutinfo, tsys.layout, y, sol)
    for name in ("l2", "h1_semi", "h1_full"):
        assert getattr(norms, name) == pytest.approx(getattr(old, name),
                                                     rel=1e-12, abs=0.0)


def test_accumulator_rejects_dofs_beyond_int32():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2147483648 dofs"):
            _SystemAccumulator(2**31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MB


@pytest.fixture(scope="module")
def interface2():
    config = ExperimentConfig()
    mesh = MeshHierarchy.build(2).finest
    cutinfo = build_cut_info(mesh, SphereLevelSet(center=config.x0))
    layout = build_dof_layout(mesh, cutinfo, INTERFACE)
    mesh.gradients  # cached per mesh, not part of either peak
    sol = interface_solution(config.x0, config.alpha1, config.alpha2)
    return config, mesh, cutinfo, layout, sol


def traced_peak(fn, *args):
    """Peak traced memory above what was live when fn started, in MB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / MB


def test_level2_assembly_peak(interface2):
    # full-size int64 triplets alive through matrix(): 79 MB; int32
    # triplets of the full blocks: 34.7 MB; of their upper triangles,
    # with five-vertex ghost patches: 15.5 MB
    config, mesh, cutinfo, layout, sol = interface2
    peak = traced_peak(assemble_interface, mesh, cutinfo, layout,
                       config.coefficients(), sol.f, sol.u)
    assert peak < 17.0


def test_level2_loads_peak(interface2):
    # side 2, uncut and cut elements in blocks: 7.6 MB; the cut elements
    # alone took 7.2 MB when they had a loop of their own, and side 2's
    # 19,572 uncut elements all at once took 28.2 MB
    config, mesh, cutinfo, layout, sol = interface2
    acc = _SystemAccumulator(layout.dim)
    peak = traced_peak(assembly._add_loads, acc, mesh, cutinfo, 2, sol.f,
                       layout.v2_dof)
    assert peak < 12.0


def test_level2_error_norms_peak(interface2):
    # side-2 full-element pass over all elements at once: 40 MB
    config, mesh, cutinfo, layout, sol = interface2
    y = np.linspace(-1.0, 1.0, layout.dim)
    peak = traced_peak(error_norms, mesh, cutinfo, layout, y, sol)
    assert peak < 25.0


def test_level2_mesh_build_peak():
    # with a facet table on every level, the build peaked at 29.0 MB; by
    # red refinement, keying the edges, at 10.4 MB; built directly from the
    # lattice, at 7.7 MB; with the volumes taken from the lattice, at 1.7 MB
    assert traced_peak(MeshHierarchy.build, 2) < 3.0


@pytest.mark.parametrize("side", [1, 2])
def test_level2_ghost_facets_peak(interface2, side):
    # building the full facet table of the level-2 mesh peaked at 24.2 MB
    _, mesh, cutinfo, _, _ = interface2
    assert traced_peak(ghost_facets, mesh, cutinfo, side) < 5.0


@pytest.fixture(scope="module")
def interface2_A0():
    return build_system(ExperimentConfig(), level=2).A0


def direct_solve_peak(M):
    """Traced peak of DirectSolve(M) plus its band, in MB: the band lives
    in an anonymous mapping, which tracemalloc does not see."""
    solves = []
    peak = traced_peak(lambda: solves.append(DirectSolve(M)))
    return peak + solves[0]._band.nbytes / MB


def test_level2_direct_solve_peak(interface2_A0):
    # the RCM band of A0 (bandwidth 419) is 11.3 MB; a copy of it made for
    # LAPACK would double that
    assert direct_solve_peak(interface2_A0) < 15.0


def test_direct_solve_bands_outside_traced_heap(interface2_A0):
    # an 11.3 MB band left in the malloc heap makes the peak RSS of
    # repeated passes depend on where later allocations land
    assert traced_peak(DirectSolve, interface2_A0) < 5.0


def traced_growth(fn, repeats):
    """Traced memory still live after fn() ran `repeats` times, in bytes,
    above what was live before; garbage is collected on both sides."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(repeats):
            fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def test_sgs_sweeps_leave_no_memory():
    # sweeps by the SuperLU substitution behind spsolve_triangular left
    # memory on every call: 206.6 KiB after 1,000 applies; 1.1 KiB here
    n = 50
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    smoother = SymmetricGaussSeidel(A)
    r = np.random.default_rng(0).standard_normal(n)
    smoother.apply(r)
    assert traced_growth(lambda: smoother.apply(r), 1000) < 4 * KiB


def test_study_passes_leave_no_memory(tmp_path):
    # those sweeps left 876.4 KiB after passes 2 to 12; about 62 KiB is
    # left here, attribute names built at run time (scipy's format
    # dispatch, argparse) that CPython's type attribute cache keeps alive,
    # at most one per cache slot.  The first pass fills the caches that
    # live for the whole process
    argv = ["interface-study", "--max-level", "1",
            "--output-dir", str(tmp_path)]

    def study():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    study()
    assert traced_growth(study, 11) < 128 * KiB
