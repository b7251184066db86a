"""The Volterra transform I + Upsilon P_N and its recursive inverse.

``upsilon_matrix`` discretizes the Volterra operator
(Upsilon v)(x) = integral_0^x k(x, y) v(y) dy by the trapezoidal rule.
The forward transform is T = I + Upsilon P_N.  Its inverse is I - Phi_N,
where Phi_N is built by the recursion

    Phi_0 = 0,
    Phi_j u = (I - Phi_{j-1})[Upsilon P_j u]
              - ((I - Phi_{j-1})[Upsilon P_j u], e_j) / (1 + a_j)
                * (I - Phi_{j-1})[Upsilon e_j],

with a_j = ((I - Phi_{j-1})[Upsilon e_j], e_j).  The pair (mu, N) is
admissible when every a_j stays away from -1; otherwise the transform is
not invertible and construction fails.

P_N = dx W W^T has rank N, so the whole transform is kept as nx x N
factors: T = I + UW (dx W^T) with UW = Upsilon W, and Phi_j = X_j (dx W_j^T)
with the recursion run on X alone.  UW comes from the kernel's series
coefficients and mu-free Volterra moments (``_volterra_moments``), so no
kernel table is formed.  The moments sum the triangle directly only inside
row blocks of MOMENT_BLOCK = b rows and reach the columns before a block
through Taylor-shifted sums: they cost O(nx M (b + M) N) time and
O(nx M N) memory once per grid, mode count and order M, and each mu then
costs O(nx N M).  An admissibility scan forms them once for all its samples.
The inverse identity is checked through a certified upper bound on its
residual in O(nx N).  Building, applying and measuring the transform needs
no nx x nx temporary and no O(nx^2) work, and ``TransformSet`` holds the
factors alone.  One recursion (``_phi_recursion``) serves both
``build_transform``, which raises at the first inadmissible a_j, and
``scan_admissibility``, which reports it.  ``upsilon_matrix``, the dense
Upsilon read from the kernel table, is the one dense reference kept here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from .constants import ADMISSIBILITY_FLOOR, INVERSE_TOL
from .errors import InadmissiblePairError, InvalidParameterError, SolverError
from .grid import Grid, make_grid, trapezoid_weights
from .kernel import Kernel, kernel_table
from .spectral import ModalBasis, ProjectionMatrix, modal_basis, projection_matrix

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
    forms it; production code uses the moments instead.
    """
    g = kernel.grid
    U = g.dx * np.tril(kernel.values)
    U[np.diag_indices(g.nx)] *= 0.5
    return U


# Rows per block of the Volterra moments: the triangle inside a block is
# summed directly, the columns before it through Taylor-shifted sums.
MOMENT_BLOCK = 128


def _powers(v: np.ndarray, order: int) -> np.ndarray:
    """v^p for p = 0..order by repeated multiplication, shape (order + 1,) + v.shape.

    Row p is formed by the same p - 1 products whatever ``order`` is.
    """
    out = np.empty((order + 1,) + np.shape(v))
    out[0] = 1.0
    out[1:] = v
    return np.cumprod(out, axis=0, out=out)


def _volterra_moments(basis: ModalBasis, order: int) -> np.ndarray:
    """The mu-free moments M_0..M_order of the Volterra operator, shape (order + 1, nx, N).

    k(x_i, y_j) = -(mu / (2 nu)) y_j sum_m c_m zeta_ij^m with
    zeta_ij = a_i - a_j and a = x^2 / L^2, so
    Upsilon W = -(mu / (2 nu)) sum_m c_m M_m with

        M_0 = cumulative trapezoid of f = dx y W (half weight on the diagonal),
        M_m = strict_tril(zeta^m) f,   m >= 1,

    which depend only on the grid, the modes and m.  The rows run in blocks
    of MOMENT_BLOCK.  For a block starting at node s, the columns before it
    contribute, by the binomial theorem,

        sum_{j<s} (a_i - a_j)^m f_j = sum_l C(m, l) (a_i - a_s)^(m-l) S_l,
        S_l = sum_{j<s} (a_s - a_j)^l f_j,

    and S moves to the next block start by the same shift.  Every weight is
    nonnegative, so the shift cancels nothing the direct sum does not.  Only
    the triangle inside the block is summed directly.  Each array that feeds
    M_m has a shape fixed by m, so M_m is the same bit for bit whatever
    ``order`` is (a scan forms its moments once, to its largest order).
    O(nx M (b + M) N) work for block size b and O(nx M N) memory.
    """
    g = basis.grid
    a = (g.nodes / g.length) ** 2
    f = g.dx * g.nodes[:, None] * basis.W
    moments = np.empty((order + 1, g.nx, basis.n_modes))
    moments[0] = np.cumsum(f, axis=0) - 0.5 * f
    if order == 0:
        return moments
    binom = np.array([[math.comb(m, l) for l in range(order + 1)] for m in range(order + 1)],
                     dtype=float)
    S = np.zeros((order + 1, basis.n_modes))
    for start in range(0, g.nx, MOMENT_BLOCK):
        stop = min(start + MOMENT_BLOCK, g.nx)
        a_blk, f_blk = a[start:stop], f[start:stop]
        zeta = np.maximum(a_blk[:, None] - a_blk, 0.0)
        power = zeta.copy()
        shift = _powers(a_blk - a[start], order).T
        for m in range(1, order + 1):
            if m > 1:
                power *= zeta
            block = moments[m, start:stop]
            np.matmul(power, f_blk, out=block)
            if start:
                block += (binom[m, : m + 1] * shift[:, m::-1]) @ S[: m + 1]
        if stop < g.nx:
            step = _powers(a[stop] - a[start], order)
            tail = _powers(a[stop] - a_blk, order)
            S_next = np.empty_like(S)
            for l in range(order + 1):
                S_next[l] = (binom[l, : l + 1] * step[l::-1]) @ S[: l + 1] + tail[l] @ f_blk
            S = S_next
    return moments


def _upsilon_modes(kernel: Kernel, moments: np.ndarray) -> np.ndarray:
    """Upsilon W = -(mu / (2 nu)) sum_m c_m M_m from the moments, in O(nx N M).

    ``moments`` may run past the kernel's order; the extra ones are unused.
    """
    UW = kernel.coeffs[0] * moments[0]
    for c, moment in zip(kernel.coeffs[1:], moments[1:]):
        UW += c * moment
    UW *= -kernel.mu / (2.0 * kernel.nu)
    return UW


def _phi_recursion(UW: np.ndarray, basis: ModalBasis):
    """The inverse recursion, on the factor X of Phi_j = X (dx W_j^T).

    ``UW`` is Upsilon W.  Returns (X, scalars, bad).  The recursion records
    each a_j up to the first with |1 + a_j| <= ADMISSIBILITY_FLOOR and stops
    there: ``bad`` is that 1-based j (0 when every a_j is admissible) and the
    scalars after it are NaN.
    """
    g = basis.grid
    W = basis.W
    wq = trapezoid_weights(g)
    X = np.zeros((g.nx, 0))
    scalars = np.full(basis.n_modes, np.nan)
    for j in range(1, basis.n_modes + 1):
        # B = (I - Phi_{j-1}) Upsilon W_j
        B = UW[:, :j] - X @ (g.dx * (W[:, : j - 1].T @ UW[:, :j]))
        b = B[:, j - 1]
        ej = W[:, j - 1]
        a = float(np.dot(wq * b, ej))
        scalars[j - 1] = a
        if abs(1.0 + a) <= ADMISSIBILITY_FLOOR:
            return X, scalars, j
        # Phi_j = B P_j minus the rank-one correction b (e_j, B P_j .) / (1 + a_j)
        X = B - np.outer(b, (wq * ej) @ B) / (1.0 + a)
    return X, scalars, 0


@dataclass(frozen=True)
class TransformSet:
    """Discrete transform bundle, kept as its nx x N factors; no dense matrix.

    T = I + UW (dx W^T) with UW = Upsilon W, and Phi_N = X (dx W^T).
    ``admissibility`` holds the recursion scalars a_1..a_N;
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


def _inverse_residual(UW: np.ndarray, X: np.ndarray, basis: ModalBasis) -> float:
    """Certified upper bound on max |(I - Phi) T - I|, in O(nx N).

    (I - Phi) T - I = R (dx W^T) with R = UW - X - X (dx W^T UW), so no
    entry exceeds max_i sum_k |R_ik| times max |dx W|.  For N = 1 the bound
    is the max itself.  NaN propagates.
    """
    dxW = basis.grid.dx * basis.W
    R = UW - X - X @ (dxW.T @ UW)
    return float(np.max(np.sum(np.abs(R), axis=1)) * np.max(np.abs(dxW)))


def build_transform(kernel: Kernel, n_modes: int) -> TransformSet:
    """Build the factored transform set from the kernel's coefficients in O(nx M (b + M) N).

    UW is contracted from Volterra moments to the kernel's order M, with
    b = MOMENT_BLOCK.

    Raises InadmissiblePairError when some |1 + a_j| <= ADMISSIBILITY_FLOOR.
    Verifies the inverse identity to INVERSE_TOL in the max norm through a
    certified upper bound on the residual, which can only over-report;
    failure (or a NaN bound) indicates a near-inadmissible pair or a
    resolution problem and is reported as a solver error.
    """
    g = kernel.grid
    basis = modal_basis(g, n_modes)
    P = projection_matrix(basis)
    UW = _upsilon_modes(kernel, _volterra_moments(basis, kernel.order))
    X, scalars, bad = _phi_recursion(UW, basis)
    if bad:
        raise InadmissiblePairError(bad, float(scalars[bad - 1]), ADMISSIBILITY_FLOOR)
    resid = _inverse_residual(UW, X, basis)
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
    """u = w + Upsilon P_N w, for one vector or each row of a (k, nx) stack."""
    w = tset.grid.check_stack(w)
    return w + (tset.grid.dx * (w @ tset.basis.W)) @ tset.UW.T


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
    scalar the remaining entries of a row are NaN.  The Volterra moments are
    formed once, to the largest order of the samples' kernels, so a sample
    costs O(nx N M); each admissible row equals ``build_transform`` of its
    own kernel bit for bit.
    """
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if steps < 2:
        raise InvalidParameterError(f"need at least 2 scan steps, got {steps}")
    if not (lo < hi):
        raise InvalidParameterError(f"empty scan range ({lo}, {hi})")
    g = make_grid(length, nx)
    basis = modal_basis(g, n_modes)
    kernels = [kernel_table(g, float(mu), nu) for mu in np.linspace(lo, hi, steps)]
    moments = _volterra_moments(basis, max(kern.order for kern in kernels))
    rows = []
    for kern in kernels:
        _, scalars, bad = _phi_recursion(_upsilon_modes(kern, moments), basis)
        rows.append(ScanRow(mu=kern.mu, scalars=tuple(scalars), admissible=not bad))
    return rows


def sign_change_brackets(rows: Sequence[ScanRow]) -> list[tuple[int, float, float]]:
    """Bracket sign changes of 1 + a_j between consecutive scan samples.

    Returns (j, mu_lo, mu_hi) triples, 1-based j.  A sign change of
    1 + a_j brackets a mu where the transform loses invertibility.
    """
    out = []
    for prev, curr in zip(rows, rows[1:]):
        for j, (ap, ac) in enumerate(zip(prev.scalars, curr.scalars), start=1):
            if np.isnan(ap) or np.isnan(ac):
                continue
            if (1.0 + ap) * (1.0 + ac) < 0.0:
                out.append((j, prev.mu, curr.mu))
    return out


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


def _rank_n_opnorm(A: np.ndarray, B: np.ndarray) -> float:
    """Spectral norm of I + A B^T for nx x N factors, through the QR of [A, B].

    With [A, B] = Q [Ra, Rb] the operator is I + Ra Rb^T on the range of Q
    and the identity on its complement, which is nonempty since 2N < nx.
    """
    n_modes = A.shape[1]
    _, R = np.linalg.qr(np.hstack([A, B]))
    small = np.eye(2 * n_modes) + R[:, :n_modes] @ R[:, n_modes:].T
    return max(1.0, float(np.linalg.norm(small, 2)))


def _h1_factor(grid: Grid) -> np.ndarray:
    """Upper banded Cholesky factor U of the H1 Gram matrix S = U^T U.

    S = diag(wq) + dx D^T D, with D the forward difference divided by dx,
    is tridiagonal: off-diagonal -1/dx, diagonal wq + (1, 2, ..., 2, 1)/dx.
    """
    n = grid.nx
    ab = np.empty((2, n))
    ab[0] = -1.0 / grid.dx
    ab[1] = 2.0 / grid.dx
    ab[1, [0, -1]] = 1.0 / grid.dx
    ab[1] += trapezoid_weights(grid)
    return scipy.linalg.cholesky_banded(ab)


def operator_norms(tset: TransformSet) -> OperatorNorms:
    """Norms of T and I - Phi in the discrete L2 and H1 metrics, in O(nx N^2).

    Both operators are I + A B^T with B = dx W.  In a metric ||v|| = ||F v||
    the norm is that of I + (F A)(F^-T B)^T: F = diag(sqrt(wq)) for L2 and
    the Cholesky factor U of the H1 Gram matrix, with U^-T B = U S^-1 B.
    """
    g = tset.grid
    s = np.sqrt(trapezoid_weights(g))[:, None]
    U = _h1_factor(g)

    def upper(M):
        out = U[1][:, None] * M
        out[:-1] += U[0, 1:, None] * M[1:]
        return out

    B = g.dx * tset.basis.W
    B_h1 = upper(scipy.linalg.cho_solve_banded((U, False), B))

    def l2_h1(A):
        return _rank_n_opnorm(s * A, B / s), _rank_n_opnorm(upper(A), B_h1)

    c0, normTinv_h1 = l2_h1(-tset.X)
    normT_l2, normT_h1 = l2_h1(tset.UW)
    return OperatorNorms(c0, normT_l2, normTinv_h1, normT_h1)
