"""Krylov and preconditioning kernels for the split-basis systems.

Provides exact solves of symmetric positive definite matrices by banded
Cholesky (one band in reverse Cuthill-McKee order), preconditioned
conjugate gradients with the preconditioned-residual stopping rule,
symmetric Gauss-Seidel sweeps, a geometric multigrid V-cycle built on the
nested mesh hierarchy, the four preconditioners used in the solver
studies, and condition estimates by Lanczos with partial
reorthogonalization (a full Gram-Schmidt pass only when the estimated loss
of orthogonality exceeds sqrt(eps), and one bisection for an extreme Ritz
value per step): of one SPD matrix, and kappa(D_A^-1 Ahat) from the
splitting constant of the two blocks, by Lanczos in the A1 inner product.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .mesh import MeshHierarchy
from .space import FICTITIOUS

KIND_SGS = "SGS"
KIND_BLOCK_EXACT = "BlockExact"
KIND_BLOCK_DIAG_SGS = "BlockDiagSGS"
KIND_BLOCK_MG_SGS = "BlockMGSGS"
PRECONDITIONER_KINDS = (KIND_SGS, KIND_BLOCK_EXACT, KIND_BLOCK_DIAG_SGS,
                        KIND_BLOCK_MG_SGS)


@dataclass
class SolveReport:
    """Outcome of one PCG run.

    residuals holds the preconditioned residual norms relative to the
    starting one (first entry 1.0, one entry per iteration thereafter).
    """

    iterations: int
    residuals: np.ndarray
    converged: bool


class DirectSolve:
    """Exact solve of a symmetric positive definite system by a banded
    Cholesky factor: one band, in reverse Cuthill-McKee order.

    A block-diagonal operator is solved block by block instead
    (BlockPreconditioner): one band would store every block at the widest
    bandwidth.  The band factor reads the upper triangle only, so a matrix
    that is not symmetric to 1e-12 relative is rejected, as is one that is
    not positive definite.

    The band lives in an anonymous memory mapping of its own, outside the
    malloc heap.  A level-2 band is 11 MB: taken from the heap, it left a
    hole when freed that later allocations filled or not depending on the
    addresses a process was given, so the peak RSS of repeated studies
    moved by 15 MB between identical runs.  The mapping goes back to the
    system when the band is freed.
    """

    def __init__(self, M: sp.spmatrix):
        M = sp.csr_matrix(M)
        scale = abs(M).max()
        asym = abs(M - M.T).max()
        if asym > 1e-12 * scale:
            raise ValueError(f"matrix is not symmetric: max|M - M^T| = "
                             f"{asym:.3e} against max|M| = {scale:.3e}")
        perm = reverse_cuthill_mckee(M, symmetric_mode=True)
        U = sp.triu(M[perm][:, perm], format="coo")
        U.sum_duplicates()
        width = int(np.max(U.col - U.row, initial=0))
        # Fortran order lets LAPACK factor the band in place; a fresh
        # anonymous mapping reads as zeros
        buf = mmap.mmap(-1, (width + 1) * perm.size * 8,
                        flags=mmap.MAP_PRIVATE)
        ab = np.ndarray((width + 1, perm.size), order="F", buffer=buf)
        ab[width + U.row - U.col, U.col] = U.data
        try:
            self._band = sla.cholesky_banded(ab, lower=False,
                                             overwrite_ab=True,
                                             check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"factorization failed: {exc}") from exc
        self._perm = perm

    def apply(self, r: np.ndarray) -> np.ndarray:
        x = np.empty_like(r, dtype=float)
        x[self._perm] = sla.cho_solve_banded((self._band, False),
                                             r[self._perm], overwrite_b=True,
                                             check_finite=False)
        return x


class SymmetricGaussSeidel:
    """Symmetric Gauss-Seidel sweeps in natural dof order.

    One application performs `sweeps` iterations of the stationary method
    with the splitting M = (D+L) D^{-1} (D+U); a single sweep is the
    classical forward+backward substitution pair.  Both substitutions run
    on one SuperLU factor of D+L, taken in natural order without pivoting,
    so it has no fill: the forward sweep solves with D+L, the backward
    sweep with its transpose.  For a symmetric M that transpose is D+U, so
    the application is exactly symmetric, as PCG assumes.
    """

    kind = KIND_SGS

    def __init__(self, M: sp.spmatrix, sweeps: int = 1):
        if sweeps < 1:
            raise ValueError("sweep count must be positive")
        csr = sp.csr_matrix(M)
        d = csr.diagonal()
        if np.any(d == 0.0):
            raise ValueError("zero diagonal entry")
        self._d = d
        self._lu = spla.splu(sp.tril(csr, format="csc"),
                             permc_spec="NATURAL", diag_pivot_thresh=0)
        self._M = csr
        self.sweeps = int(sweeps)

    def _sweep(self, r: np.ndarray) -> np.ndarray:
        return self._lu.solve(self._d * self._lu.solve(r), trans="T")

    def apply(self, r: np.ndarray) -> np.ndarray:
        x = self._sweep(r)
        for _ in range(self.sweeps - 1):
            x += self._sweep(r - self._M @ x)
        return x


def pcg(A: sp.spmatrix, b: np.ndarray, precond, tol: float = 1e-6,
        max_iter: int = 1000):
    """Preconditioned conjugate gradients started from zero.

    Stops when the Euclidean norm of the preconditioned residual z_k =
    P^{-1}(b - A x_k) has dropped below tol times its starting value; z_k
    is exactly the vector the iteration computes, so the rule costs nothing
    extra.  Raises if the preconditioner loses positive definiteness or the
    budget is exhausted.
    """
    x = np.zeros_like(b, dtype=float)
    r = np.asarray(b, dtype=float).copy()
    z = precond.apply(r)
    rz = float(r @ z)
    norm0 = float(np.linalg.norm(z))
    history = [1.0]

    def report(k, converged):
        return SolveReport(iterations=k, residuals=np.array(history),
                           converged=converged)

    if norm0 == 0.0:
        return x, report(0, True)
    if rz <= 0.0:
        raise ValueError("preconditioner is not positive definite")
    p = z.copy()
    for k in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            raise ValueError("system matrix is not positive definite")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = precond.apply(r)
        history.append(float(np.linalg.norm(z)) / norm0)
        if history[-1] <= tol:
            return x, report(k, True)
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            raise ValueError("preconditioner is not positive definite")
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(f"no convergence within {max_iter} iterations "
                       f"(last relative residual {history[-1]:.3e})")


def build_prolongations(hierarchy: MeshHierarchy, active_sets) -> list:
    """Nested P1 interpolation operators restricted to active vertex sets.

    active_sets[k] lists the active (sorted) vertex ids of level k; the dof
    ordering of each level is the listed order.  Each operator is the full
    interpolation sliced to the active rows and columns: coarse vertices
    keep their value, edge midpoints take one half of each active parent,
    and inactive parents drop out (their value is zero by elimination).
    """
    if len(active_sets) != len(hierarchy.levels):
        raise ValueError("one active set per level required")
    prols = []
    for k, parents in enumerate(hierarchy.midpoint_parents):
        nc, nm = hierarchy.levels[k].n_vertices, parents.shape[0]
        full = sp.csr_matrix(
            (np.r_[np.ones(nc), np.full(2 * nm, 0.5)],
             np.r_[np.arange(nc), parents.ravel()],
             np.r_[np.arange(nc), nc + 2 * np.arange(nm + 1)]),
            shape=(nc + nm, nc))
        prols.append(full[active_sets[k + 1]][:, active_sets[k]])
    return prols


class GeometricMultigrid:
    """V(1,1)-cycle preconditioner with symmetric Gauss-Seidel smoothing.

    Coarse operators come from Galerkin triple products of the fine matrix;
    the coarsest level is solved directly.  One application runs `cycles`
    = 3 V-cycles as a stationary iteration from zero; with the symmetric
    smoother this composition is symmetric positive definite.  With no
    prolongations the apply degenerates to a direct solve.
    """

    cycles = 3

    def __init__(self, A_fine: sp.spmatrix, prolongations):
        ops = [sp.csr_matrix(A_fine)]
        for P in reversed(list(prolongations)):
            ops.append((P.T @ ops[-1] @ P).tocsr())
        self.operators = ops[::-1]  # coarsest first
        self._prols = list(prolongations)
        self._restrictions = [P.T for P in self._prols]
        self._smoothers = [SymmetricGaussSeidel(A) for A in self.operators[1:]]
        self._coarse = DirectSolve(self.operators[0])

    def _vcycle(self, level: int, b: np.ndarray) -> np.ndarray:
        if level == 0:
            return self._coarse.apply(b)
        A = self.operators[level]
        smooth = self._smoothers[level - 1]
        P, R = self._prols[level - 1], self._restrictions[level - 1]
        x = smooth.apply(b)
        x += P @ self._vcycle(level - 1, R @ (b - A @ x))
        x += smooth.apply(b - A @ x)
        return x

    def apply(self, r: np.ndarray) -> np.ndarray:
        top = len(self.operators) - 1
        x = self._vcycle(top, r)
        for _ in range(self.cycles - 1):
            x += self._vcycle(top, r - self.operators[-1] @ x)
        return x


class BlockPreconditioner:
    """Additive block preconditioner acting separately on the two blocks."""

    def __init__(self, kind: str, solve0, solve1, n0: int):
        self.kind = kind
        self._solve0 = solve0
        self._solve1 = solve1
        self._n0 = n0

    def apply(self, r: np.ndarray) -> np.ndarray:
        z = np.empty_like(r)
        z[:self._n0] = self._solve0.apply(r[:self._n0])
        z[self._n0:] = self._solve1.apply(r[self._n0:])
        return z


def make_preconditioner(kind: str, tsys, hierarchy: MeshHierarchy = None,
                        active_sets=None, blocks: dict = None):
    """Construct one of the study preconditioners for a transformed system.

    A block preconditioner pairs two of four block solvers: exact A0 and
    A1, strip SGS on A1 and multigrid on A0.  Each is built on first need
    into blocks, a dict that one system's preconditioners share (a fresh
    one if not given), so each block is set up once per system.

    The strip block takes two SGS sweeps for the interface problem and
    three for the fictitious domain; a single sweep leaves the strip solve
    too loose for the hardest cut positions and costs an extra outer
    iteration there.  The multigrid block runs three V-cycles.
    """
    if kind not in PRECONDITIONER_KINDS:
        raise ValueError(f"unknown preconditioner kind {kind!r}")
    if kind == KIND_SGS:
        return SymmetricGaussSeidel(tsys.Ahat)
    if kind == KIND_BLOCK_MG_SGS and None in (hierarchy, active_sets):
        raise ValueError("multigrid preconditioner needs the mesh hierarchy "
                         "and active dof sets")
    sweeps = 3 if tsys.layout.problem == FICTITIOUS else 2
    build = {"A0 exact": lambda: DirectSolve(tsys.A0),
             "A1 exact": lambda: DirectSolve(tsys.A1),
             "A1 SGS": lambda: SymmetricGaussSeidel(tsys.A1, sweeps=sweeps),
             "A0 MG": lambda: GeometricMultigrid(
                 tsys.A0, build_prolongations(hierarchy, active_sets))}
    pair = {KIND_BLOCK_EXACT: ("A0 exact", "A1 exact"),
            KIND_BLOCK_DIAG_SGS: ("A0 exact", "A1 SGS"),
            KIND_BLOCK_MG_SGS: ("A0 MG", "A1 SGS")}[kind]
    blocks = {} if blocks is None else blocks
    for name in pair:
        if name not in blocks:
            blocks[name] = build[name]()
    return BlockPreconditioner(kind, blocks[pair[0]], blocks[pair[1]],
                               tsys.A0.shape[0])


@dataclass
class ConditionEstimate:
    lam_min: float
    lam_max: float
    kappa: float
    converged: bool
    iterations: int  # Lanczos steps taken
    gamma: float | None = None  # splitting constant, splitting_estimate only

    # not a field: the benchmark tracer (perfbench/spans.py::_cond_counts)
    # reads est.method in traced runs
    method = "lanczos"


def _lanczos_extremes(A, B, B_solve, budget, seed, rtol=1e-9,
                      largest_only=False):
    """Extreme eigenvalues of B^{-1}A by Lanczos in the B inner product,
    with B_solve.apply(r) = B^{-1} r; B=None means the identity.

    Partial reorthogonalization (Simon, Math. Comp. 42, 1984): each step
    applies the three-term recurrence and advances the omega recurrence,
    an O(j) estimate of the B inner products of the new vector with the
    basis, from alpha, beta and an eps |T| rounding term.  Only when an
    estimate exceeds sqrt(eps) does a full classical Gram-Schmidt pass in
    the B inner product (two matrix-vector products with the stored basis
    V and BV = B V) run, on that vector and on the next one.  The basis
    stays semi-orthogonal, which keeps the Ritz values exact to working
    precision.

    The run stops when both extreme Ritz values change by less than rtol
    (relative) in one step.  Each step bisects for the smallest one (LAPACK
    stebz, as scipy's eigh_tridiagonal calls it), from the fourth step on
    in a narrow bracket below the one before, by index where the bracket
    fails; the largest one, at this step and the one before, is evaluated
    only once the smallest has passed.  The returned extremes are bisected
    for by index.  With largest_only the largest one alone is
    bisected for and decides the stop, for an operator whose smallest
    eigenvalue is zero or close to it, where a relative change never
    settles; lam_min is then the last smallest Ritz value, not converged.
    Returns (lam_min, lam_max, converged, steps).
    """
    n = A.shape[0]
    if budget is None:
        budget = min(5 * n, 2000)
    if budget < 1:
        raise ValueError(f"Lanczos budget must be at least 1, got {budget}")
    budget = min(budget, n)
    V = np.empty((budget + 1, n))
    BV = np.empty_like(V) if B is not None else V  # B V; V itself for B=I
    alpha = np.empty(budget)
    beta = np.empty(budget)
    stebz = sla.get_lapack_funcs("stebz", (alpha,))
    ritz = {}  # (steps, largest) -> extreme Ritz value the stop reads

    def bisect(k, index=None, above=0.0, upto=1.0):
        """Eigenvalues of T_k by bisection, one LAPACK stebz call with
        eigh_tridiagonal's tol 0: the one of 1-based index, or else all
        in (above, upto]."""
        i = 1 if index is None else index
        m, w, _, _, info = stebz(alpha[:k], beta[:k - 1],
                                 1 if index is None else 2, above, upto, i,
                                 i, 0.0, "E")
        if info or (index is not None and m != 1):
            raise np.linalg.LinAlgError(
                f"stebz failed on T_{k} (info {info})")
        return w[:m]

    def extreme(k, largest):
        """The smallest or largest eigenvalue of T_k, by index."""
        return float(alpha[0]) if k == 1 else \
            float(bisect(k, index=k if largest else 1)[0])

    def bracketed(k):
        """The smallest eigenvalue of T_k from a bracket below theta_{k-1},
        the smallest of T_{k-1}, or None.  By interlacing, T_k has exactly
        one eigenvalue at or below theta_{k-1}; the bracket reaches four
        of the last steps down, and its one eigenvalue is taken if a
        second call finds none below the bracket."""
        if k <= 3:
            return None
        top, last = ritz[k - 1, False], ritz[k - 2, False]
        lo = top - max(4.0 * (last - top), 1e-12 * abs(top))
        floor = -2.0 * tnorm - 1.0  # below every eigenvalue of T_k
        if not floor < lo < top:
            return None
        found = bisect(k, above=lo, upto=top)
        if found.size != 1 or bisect(k, above=floor, upto=lo).size:
            return None
        return float(found[0])

    def ritz_value(k, largest):
        """The extreme Ritz value of T_k the stop reads: the smallest from
        a bracket where one holds it, else by index."""
        if (k, largest) not in ritz:
            value = None if largest else bracketed(k)
            ritz[k, largest] = extreme(k, largest) if value is None else value
        return ritz[k, largest]

    def settled(k, largest):
        now, before = ritz_value(k, largest), ritz_value(k - 1, largest)
        return abs(now - before) / max(abs(now), 1e-300) < rtol

    eps = np.finfo(float).eps
    omega = np.zeros(budget + 1)  # <v_j, v_i>_B estimates, i <= j
    omega_prev = np.zeros(budget + 1)  # the same for v_{j-1}
    omega[0] = 1.0
    tnorm = 0.0
    reorthogonalize_next = False
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    bv = B @ v if B is not None else v
    nrm = np.sqrt(v @ bv)
    V[0], BV[0] = v / nrm, bv / nrm
    converged = False
    for j in range(budget):
        k = j + 1
        av = A @ V[j]
        w = B_solve.apply(av) if B is not None else av.copy()
        alpha[j] = av @ V[j]
        w -= alpha[j] * V[j]
        if j > 0:
            w -= beta[j - 1] * V[j - 1]
        bw = B @ w if B is not None else w
        b = float(np.sqrt(max(w @ bw, 0.0)))
        tnorm = max(tnorm, abs(alpha[j]) + b + (beta[j - 1] if j else 0.0))
        if b > 1e-14:
            # omega_{j+1,i} for i < j from omega_j and omega_{j-1}
            t = (alpha[:j] - alpha[j]) * omega[:j] + beta[:j] * omega[1:k]
            if j > 0:
                t[1:] += beta[:j - 1] * omega[:j - 1]
                t -= beta[j - 1] * omega_prev[:j]
            t += np.copysign(eps * tnorm, t)
            omega_prev, omega = omega, omega_prev
            omega[:j] = t / b
            omega[j], omega[k] = eps, 1.0
            if reorthogonalize_next or np.max(np.abs(omega[:j]),
                                              initial=0.0) > np.sqrt(eps):
                reorthogonalize_next = not reorthogonalize_next
                w -= V[:k].T @ (BV[:k] @ w)
                bw = B @ w if B is not None else w
                b = float(np.sqrt(max(w @ bw, 0.0)))
                omega[:k] = eps
        if b <= 1e-14:  # invariant subspace exhausted: exact extremes
            converged = True
            break
        if j >= 2 and (largest_only or settled(k, False)) \
                and settled(k, True):
            converged = True
            break
        beta[j] = b
        V[k] = w / b
        if B is not None:
            BV[k] = bw / b
    return extreme(k, False), ritz_value(k, True), converged or k == n, k


def estimate_condition(A, *, budget: int = None,
                       seed: int = 0) -> ConditionEstimate:
    """Extreme eigenvalues and condition number of the SPD matrix A.

    Runs the Lanczos three-term recurrence with partial
    reorthogonalization (a full Gram-Schmidt pass only when the estimated
    loss of orthogonality exceeds sqrt(eps)), for at most budget steps
    (default min(5n, 2000); at least 1), checking one extreme Ritz value
    by bisection per step and the other once the first has settled.  A
    non-converged result is a lower bound on kappa and is flagged.
    """
    lo, hi, converged, steps = _lanczos_extremes(A, None, None, budget, seed)
    if lo <= 0.0:
        raise ValueError("operator is not positive definite "
                         f"(smallest eigenvalue {lo:.3e})")
    return ConditionEstimate(lam_min=lo, lam_max=hi, kappa=hi / lo,
                             converged=converged, iterations=steps)


def splitting_estimate(A01, A1, solve0, solve1) -> ConditionEstimate:
    """kappa(D_A^-1 Ahat) for Ahat = [[A0, A01], [A01^T, A1]] and D_A =
    diag(A0, A1), from the splitting constant gamma; solve0 and solve1
    apply A0^{-1} and A1^{-1} exactly.

    D_A^-1 Ahat has the eigenvalues 1 and 1 -+ sigma_i, sigma_i the
    singular values of A0^{-1/2} A01 A1^{-1/2}, so its range is [1 -
    gamma, 1 + gamma] with gamma^2 the largest eigenvalue of G = A1^{-1}
    A01^T A0^{-1} A01.  Lanczos runs on G, N1 x N1 and semidefinite in the
    A1 inner product, and stops on the largest Ritz value alone, as the
    smallest is zero or nearly so.  kappa is gamma^2 / (1 - gamma^2)
    times as sensitive to gamma^2 (4 to 12 for gamma 0.9 to 0.96), so the
    stop is ten times tighter than estimate_condition's.  Raises
    ValueError when gamma >= 1: Ahat is then not positive definite.
    """
    A10 = A01.T
    G = spla.LinearOperator(A1.shape, dtype=float,
                            matvec=lambda v: A10 @ solve0.apply(A01 @ v))
    _, gamma2, converged, steps = _lanczos_extremes(
        G, A1, solve1, None, 0, rtol=1e-10, largest_only=True)
    gamma = float(np.sqrt(max(gamma2, 0.0)))
    if gamma >= 1.0:
        raise ValueError(f"splitting constant gamma = {gamma:.6g} >= 1: "
                         "the system is not positive definite")
    return ConditionEstimate(lam_min=1.0 - gamma, lam_max=1.0 + gamma,
                             kappa=(1.0 + gamma) / (1.0 - gamma),
                             converged=converged, iterations=steps,
                             gamma=gamma)
