"""The Volterra transform I + Upsilon P_N and its inverse.

With the Volterra operator (Upsilon v)(x) = integral_0^x k(x, y) v(y) dy,
the forward transform is T = I + Upsilon P_N.  Its inverse is I - Phi_N,
where Phi_N is built by the recursion

    Phi_0 = 0,
    Phi_j u = (I - Phi_{j-1})[Upsilon P_j u]
              - ((I - Phi_{j-1})[Upsilon P_j u], e_j) / (1 + a_j)
                * (I - Phi_{j-1})[Upsilon e_j],

with a_j = ((I - Phi_{j-1})[Upsilon e_j], e_j).  The pair (mu, N) is
admissible when every a_j stays away from -1; otherwise the transform is
not invertible and construction fails.

P_N = dx W W^T has rank N, so the whole transform is kept as nx x N
factors: T = I + UW (dx W^T) with UW = Upsilon W, and Phi_N = X (dx W^T).
With the N x N matrix M = dx W^T UW, the recursion is Gaussian elimination
without pivoting on I + M: 1 + a_j is its j-th pivot, and Woodbury (Hager,
SIAM Review 31, 1989) gives X = UW (I + M)^-1.  Upsilon e_j has a closed
form in mu and nu (``_upsilon_modes``), so the set-up reads the kernel
handle for mu, nu and the grid alone, forms neither the kernel series nor
its table, and costs O(nx N^2), as does the certified upper bound on the
residual of the inverse identity.  Nothing here forms an nx x nx array or
does O(nx^2) work, and ``TransformSet`` holds the factors alone.
``build_transform`` forms M from the factors.  ``scan_admissibility`` forms
the M of all its mu samples at once as exact discrete sums in closed form
(``_scan_m``), so after the grid a scan costs O(steps N^2) to form and
O(steps N^3) to eliminate, and touches nothing of size nx per sample; its
a_j agree with the build's to rounding.
One elimination (``_pivots``), of one M or of a stack, serves both: the
build raises at the first inadmissible a_j, the scan reports it.
``operator_norms`` stacks its four (operator, metric) pairs for one QR and
one SVD call; ``dpbtrf`` and ``dpbtrs`` factor and solve its H1 Gram matrix.
``upsilon_matrix``, the dense trapezoidal Upsilon read from the kernel table,
is the one dense reference kept here; it converges to the closed form at
second order in dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .constants import ADMISSIBILITY_FLOOR, INVERSE_TOL
from .errors import (
    InadmissiblePairError,
    InvalidParameterError,
    SolverError,
    check_integers,
    check_run_fits,
    check_scalars,
)
from .grid import Grid, make_grid, trapezoid_weights
from .kernel import Kernel, kernel_table
from .spectral import ModalBasis, ProjectionMatrix, modal_basis, mode_eigenvalues, projection_matrix

__all__ = [
    "TransformSet",
    "OperatorNorms",
    "ScanRow",
    "upsilon_matrix",
    "build_transform",
    "forward_transform",
    "inverse_transform",
    "scan_admissibility",
    "sign_change_brackets",
    "operator_norms",
]


def upsilon_matrix(kernel: Kernel) -> np.ndarray:
    """Trapezoidal discretization of the Volterra operator (dense reference).

    Entry (i, j) is 0 above the diagonal, dx/2 * k(x_i, x_i) on it, and
    dx * k(x_i, x_j) below.  The j = 0 column carries k(x_i, 0) = 0, so the
    missing end-weight there is immaterial.  Reads the kernel table, which
    forms it; the set-up uses the closed form of Upsilon W instead.
    """
    g = kernel.grid
    U = g.dx * np.tril(kernel.values)
    U[np.diag_indices(g.nx)] *= 0.5
    return U


def _upsilon_modes(kernel: Kernel, basis: ModalBasis) -> np.ndarray:
    """Upsilon W in closed form, in O(nx N).

    v = Upsilon e_j solves nu v'' + (nu lambda_j + mu) v = -mu e_j with
    v(0) = v'(0) = 0 (Smyshlyaev & Krstic, IEEE TAC 49(12), 2004).  With
    theta = j pi x / L, the argument of e_j, and r^2 = 1 + mu / (nu lambda_j),

        Upsilon e_j = sqrt(2/L) sin(r theta) / r - e_j,

    where sin(r theta) / r reads sinh(|r| theta) / |r| for r^2 < 0 and
    theta for r = 0.  This is the operator of the full kernel, sampled on
    the grid; at mu = 0 it is exactly zero.
    """
    g = basis.grid
    theta = np.outer(g.nodes, np.arange(1, basis.n_modes + 1)) * np.pi / g.length
    r2 = 1.0 + kernel.mu / (kernel.nu * basis.eigenvalues)
    UW = np.empty_like(theta)
    for j, q in enumerate(r2):
        r = math.sqrt(abs(q))
        if q > 0.0:
            UW[:, j] = np.sin(r * theta[:, j]) / r
        elif q < 0.0:
            UW[:, j] = np.sinh(r * theta[:, j]) / r
        else:
            UW[:, j] = theta[:, j]
    UW *= math.sqrt(2.0 / g.length)
    UW -= basis.W
    return UW


def _scan_m(grid: Grid, eigenvalues: np.ndarray, nu: float, mus: np.ndarray) -> np.ndarray:
    """M = dx W^T UW for each mu of ``mus`` as exact discrete sums, (steps, N, N) in O(steps N^2).

    With phi = pi dx / L, W_ik = sqrt(2/L) sin(k i phi) and UW_ij = sqrt(2/L)
    (sin(r_j j i phi) / r_j - sin(j i phi)) (``_upsilon_modes``), product to
    sum turns each entry into Dirichlet sums C(a) = sum_{i < nx} cos(a i):

        M_kj = (dx / L) Re[B(r_j) / r_j - B(1)],
        B(s) = C(k phi - s j phi) - C(k phi + s j phi),

    with r_j = sqrt(1 + mu / (nu lambda_j)) taken complex, so that the sinh
    branch falls out.  Lagrange's identity C(a) = sin(nx a / 2)
    cos((nx - 1) a / 2) / sin(a / 2) and (nx - 1) phi = pi turn B(s) into one
    quotient with t = s j,

        B(s) = (-1)^(k+1) sin(k phi) sin(pi t) / (2 sin((k - t) phi / 2) sin((k + t) phi / 2)),

    whose factors keep their digits where t nears 0 or an integer (sin(pi t)
    is reduced by the nearest integer, and k - t is exact near k); the
    difference of two Dirichlet sums would lose eps / r_j as r_j nears 0.
    The removable singularities take their limits: B(s) / s = (-1)^(k+1) j pi
    cot(k phi / 2) at s = 0 (r_j = 0, mu = -nu lambda_j) and (nx - 1) / s at
    t = k.  One expression forms B(r_j) and B(1), so M is exactly 0 at
    mu = 0.  A sample whose sinh overflows gets non-finite entries.
    """
    n = len(eigenvalues)
    j = np.arange(1, n + 1)
    k = j[:, None]
    half = 0.5 * np.pi * grid.dx / grid.length
    r = np.sqrt(1.0 + mus[:, None] / (nu * eigenvalues) + 0j)
    s = np.concatenate([r, np.ones((1, n))])[:, None, :]  # j on the last axis, k on the middle one
    t = s * j
    m = np.round(t.real)
    sign = np.where(k % 2, 1.0, -1.0)
    with np.errstate(all="ignore"):
        sin_pit = np.where(m % 2, -1.0, 1.0) * np.sin(np.pi * (t - m))
        Q = sign * np.sin(2 * half * k) * sin_pit / (2 * s * np.sin((k - t) * half) * np.sin((k + t) * half))
        Q = np.where(t == k, (grid.nx - 1) / s, Q)
    Q = np.where(s == 0, sign * np.pi * j / np.tan(half * k), Q).real
    return grid.dx / grid.length * (Q[:-1] - Q[-1])


def _pivots(M: np.ndarray):
    """a_j = (pivot j of I + M) - 1, by elimination without pivoting, of M or of each M in a stack.

    It runs on M with the identity added to each pivot, so a_j has no
    cancellation, and stops each matrix at its first |1 + a_j| <=
    ADMISSIBILITY_FLOOR.  Returns (scalars, bad): ``bad`` is that 1-based j
    (0 when every a_j is admissible) and the scalars after it are NaN.  A
    stack of shape (..., N, N) is eliminated elementwise over its leading
    axes, so each matrix gets the bits it gets alone.  O(N^3) per matrix.
    """
    n = M.shape[-1]
    S = M.copy()
    scalars = np.empty(M.shape[:-1])
    bad = np.zeros(M.shape[:-2], dtype=int)
    stopped = False
    for j in range(n):
        a = S[..., j, j][()]  # a float for one M, a view for a stack
        scalars[..., j] = a
        pivot = 1.0 + a
        fail = abs(pivot) <= ADMISSIBILITY_FLOOR
        if fail is not np.False_ and fail.any():  # the identity test spares one M a reduction
            stopped = True
            bad[fail & (bad == 0)] = j + 1
            if bad.all():
                break
        if j + 1 < n:
            S[..., j + 1:, j + 1:] -= (S[..., j + 1:, j] / pivot[..., None])[..., None] * S[..., j, None, j + 1:]
    if stopped:
        scalars[(np.arange(n) >= bad[..., None]) & (bad[..., None] > 0)] = np.nan
    return scalars, bad


@dataclass(frozen=True)
class TransformSet:
    """Discrete transform bundle, kept as its nx x N factors; no dense matrix.

    T = I + UW (dx W^T) with UW = Upsilon W, and Phi_N = X (dx W^T).
    ``admissibility`` holds the scalars a_1..a_N, the pivots of I + M less one;
    ``inverse_residual`` is a certified upper bound on ||(I - Phi) T - I||_max,
    formed at build time (exact for N = 1).
    """

    grid: Grid
    basis: ModalBasis
    P: ProjectionMatrix
    UW: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)
    admissibility: np.ndarray
    inverse_residual: float

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes


def _inverse_residual(UW: np.ndarray, X: np.ndarray, M: np.ndarray, basis: ModalBasis) -> float:
    """Certified upper bound on max |(I - Phi) T - I|, in O(nx N^2).

    (I - Phi) T - I = R (dx W^T) with R = UW - X (I + M), M = dx W^T UW, so
    no entry exceeds max_i sum_k |R_ik| times max |dx W|.  For N = 1 the
    bound is the max itself.  NaN propagates.  np.dot and a product with ones
    beat @ (6x at N = 1) and a sum along axis 1 (10x at N >= 2) at nx = 2000.
    """
    R = UW - X - np.dot(X, M)
    return float(np.abs(R).dot(np.ones(len(M))).max() * basis.grid.dx * np.abs(basis.W).max())


def build_transform(kernel: Kernel, n_modes: int) -> TransformSet:
    """Build the factored transform set in O(nx N^2), with UW = Upsilon W in closed form.

    X = UW (I + M)^-1.  Raises InadmissiblePairError when some
    |1 + a_j| <= ADMISSIBILITY_FLOOR.  Verifies the inverse identity to
    INVERSE_TOL in the max norm through a certified upper bound on the
    residual, which can only over-report; failure (or a NaN bound) indicates
    a near-inadmissible pair or a resolution problem and is reported as a
    solver error.
    """
    g = kernel.grid
    basis = modal_basis(g, n_modes)
    P = projection_matrix(basis)
    UW = _upsilon_modes(kernel, basis)
    M = g.dx * (basis.W.T @ UW)
    scalars, bad = _pivots(M)
    if bad:
        raise InadmissiblePairError(int(bad), float(scalars[bad - 1]), ADMISSIBILITY_FLOOR)
    X = np.dot(UW, np.linalg.inv(np.eye(n_modes) + M))
    resid = _inverse_residual(UW, X, M, basis)
    if not resid <= INVERSE_TOL:
        raise SolverError(
            f"inverse identity residual {resid:.3e} exceeds {INVERSE_TOL:.1e}; "
            f"admissibility scalars {scalars}"
        )
    return TransformSet(
        grid=g,
        basis=basis,
        P=P,
        UW=UW,
        X=X,
        admissibility=scalars,
        inverse_residual=resid,
    )


def forward_transform(tset: TransformSet, w: np.ndarray) -> np.ndarray:
    """u = w + Upsilon P_N w, for one vector or each row of a (k, nx) stack.

    The sum is formed in the product's own array, so a stack costs one
    array of its size.
    """
    w = tset.grid.check_stack(w)
    u = (tset.grid.dx * (w @ tset.basis.W)) @ tset.UW.T
    u += w
    return u


def inverse_transform(tset: TransformSet, u: np.ndarray) -> np.ndarray:
    """w = u - Phi_N u, for one vector or each row of a (k, nx) stack."""
    u = tset.grid.check_stack(u)
    return u - (tset.grid.dx * (u @ tset.basis.W)) @ tset.X.T


@dataclass(frozen=True)
class ScanRow:
    """One admissibility sample: scalars a_1..a_N at a given mu."""

    mu: float
    scalars: tuple
    admissible: bool


def scan_admissibility(
    nu: float,
    length: float,
    n_modes: int,
    mu_range: Sequence[float],
    steps: int,
    nx: int = 200,
) -> list[ScanRow]:
    """Sweep mu over an interval and record the admissibility scalars.

    A sample is inadmissible once some |1 + a_j| <= ADMISSIBILITY_FLOOR.
    Such samples are reported, never raised; past the first inadmissible
    scalar the remaining entries of a row are NaN.  A row with a non-finite
    scalar (a sinh that overflows, mu = -1e6 on nu = L = 1) is inadmissible
    too.  The M of every sample is formed at once from its closed form
    (``_scan_m``, O(steps N^2)) and the stack eliminated in one pass
    (O(steps N^3)); after the grid, nothing of size nx is touched, and the
    modes are not sampled.  Its scalars agree with ``build_transform``'s to
    rounding.
    """
    check_scalars(mu_min=mu_range[0], mu_max=mu_range[1])
    check_integers(steps=steps, n_modes=n_modes)
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if steps < 2:
        raise InvalidParameterError(f"need at least 2 scan steps, got {steps}")
    if not (lo < hi):
        raise InvalidParameterError(f"empty scan range ({lo}, {hi})")
    check_run_fits(nx, n_modes)
    g = make_grid(length, nx)
    eigenvalues = mode_eigenvalues(g, n_modes)
    mus = np.linspace(lo, hi, steps)
    for mu in mus:
        kernel_table(g, float(mu), nu)  # the checks of (mu, nu) that a build's kernel passes
    with np.errstate(all="ignore"):  # a row with a non-finite a_j is reported inadmissible
        scalars, bad = _pivots(_scan_m(g, eigenvalues, float(nu), mus))
    admissible = (bad == 0) & np.isfinite(scalars).all(axis=1)
    return [
        ScanRow(mu=mu, scalars=tuple(a), admissible=ok)
        for mu, a, ok in zip(mus.tolist(), scalars.tolist(), admissible.tolist())
    ]


def sign_change_brackets(rows: Sequence[ScanRow]) -> list[tuple[int, float, float]]:
    """Bracket sign changes of the leading principal minors D_j of I + M between consecutive samples.

    Returns (j, mu_lo, mu_hi) triples, 1-based j.  D_j = prod_{i <= j} (1 + a_i)
    vanishes where the transform of j modes loses invertibility; 1 + a_j =
    D_j / D_{j-1} also changes sign at a pole, a zero of D_{j-1}, which is
    not reported under j.  The sign of D_j is the product of the signs of
    the 1 + a_i, so no product overflows; a pair with a NaN among them is
    skipped.
    """
    if len(rows) < 2:
        return []
    sign = np.cumprod(np.sign(1.0 + np.array([row.scalars for row in rows])), axis=1)
    flips = zip(*np.nonzero(sign[:-1] * sign[1:] < 0.0))
    return [(int(j) + 1, rows[n].mu, rows[n + 1].mu) for n, j in flips]


@dataclass(frozen=True)
class OperatorNorms:
    """Discrete operator norms of T and its inverse.

    ``c0`` is the L2 -> L2 norm of the inverse; the H1 -> H1 norms use the
    forward-difference H1 inner product.
    """

    c0: float
    normT_l2: float
    normTinv_h1: float
    normT_h1: float


def _h1_factor(grid: Grid) -> np.ndarray:
    """Upper banded Cholesky factor U of the H1 Gram matrix S = U^T U, by ``dpbtrf``.

    S = diag(wq) + dx D^T D, with D the forward difference divided by dx, is
    tridiagonal (off-diagonal -1/dx, diagonal wq + (1, 2, ..., 2, 1)/dx) and,
    as wq > 0, positive definite; a nonzero ``info`` raises SolverError.
    """
    n = grid.nx
    ab = np.empty((2, n))
    ab[0] = -1.0 / grid.dx
    ab[1] = 2.0 / grid.dx
    ab[1, [0, -1]] = 1.0 / grid.dx
    ab[1] += trapezoid_weights(grid)
    U, info = dpbtrf(ab)
    if info != 0:
        raise SolverError(f"LAPACK dpbtrf returned info = {info} on the H1 Gram matrix")
    return U


def operator_norms(tset: TransformSet) -> OperatorNorms:
    """Norms of T and I - Phi in the discrete L2 and H1 metrics, in O(nx N^2).

    Both operators are I + A B^T with B = dx W.  In a metric ||v|| = ||F v||
    the norm is that of I + (F A)(F^-T B)^T: F = diag(sqrt(wq)) for L2 and
    the Cholesky factor U of the H1 Gram matrix, with U^-T B = U S^-1 B
    (``dpbtrs``).  With [F A, F^-T B] = Q [Ra, Rb] that is I + Ra Rb^T on the
    range of Q and I on its complement, nonempty as 2N < nx: max(1, sigma_1).
    The four (A, F) pairs form one (4, nx, 2N) stack: one QR and one SVD call.
    """
    g = tset.grid
    n = tset.n_modes
    s = np.sqrt(trapezoid_weights(g))[:, None]
    U = _h1_factor(g)

    def upper(M):  # U M, for one nx x N matrix or a stack of them
        out = U[1][:, None] * M
        out[..., :-1, :] += U[0, 1:, None] * M[..., 1:, :]
        return out

    B = g.dx * tset.basis.W
    S_inv_B, info = dpbtrs(U, B)
    if info != 0:
        raise SolverError(f"LAPACK dpbtrs returned info = {info} on the H1 Gram matrix")
    A = np.stack([-tset.X, tset.UW])
    stack = np.empty((2, 2, g.nx, 2 * n))  # (A, metric) pairs: (-X, UW) x (L2, H1)
    stack[:, 0, :, :n] = s * A
    stack[:, 1, :, :n] = upper(A)
    stack[..., n:] = [B / s, upper(S_inv_B)]  # the same for both A
    R = np.linalg.qr(stack.reshape(4, g.nx, 2 * n), mode="r")
    small = np.eye(2 * n) + R[..., :n] @ R[..., n:].swapaxes(-1, -2)
    c0, normTinv_h1, normT_l2, normT_h1 = (
        max(1.0, v) for v in np.linalg.svd(small, compute_uv=False)[:, 0].tolist()
    )
    return OperatorNorms(c0, normT_l2, normTinv_h1, normT_h1)
