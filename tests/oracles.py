"""Reference implementations for tests only.

The marcher in ``rdstab.simulator`` solves a tridiagonal core plus a low-rank
term; these oracles assemble the full nx x nx operator and call a dense solve,
so a test can check the structured path against the plain one.
``closed_loop_matrix`` is the dense operator C of one run, with the boundary
law as its last row, and ``dense_newton_step`` resolves one step of the cubic
model on it by Newton's method with dense solves.  ``newton_step_tol`` is the
marcher's Newton loop with the plain max|du| <= newton_tol stop and no
certified early stop.  ``reference_march`` marches the cubic plant in
``np.longdouble`` with Thomas solves, the accuracy reference of the march.
``phi_recursion`` is the paper's recursion run on the nx x N factor X of
Phi_j = X (dx W_j^T), level by level in O(nx N^3), apart from the N x N
elimination of ``rdstab.transform``.  ``phi_apply_recursive`` applies Phi_N by
a per-vector level scheme, independent of both; ``dense_transform`` expands
a transform set's nx x N factors into the dense T and Phi_N.
``kernel_series`` sums the paper's power series of the kernel at one point,
the oracle of the closed-form table at moderate mu, and ``truncate_order``
finds the series' order by a loop of its own, apart from the recurrence of
``rdstab.kernel.Kernel.order``.
``upsilon_projected`` is the dense Upsilon P_N from the closed form of
Upsilon e_j, coded apart from ``rdstab.transform``, for ``phi_apply_recursive``.
``discrete_m`` sums M = dx W^T UW of the sampled closed form in
``np.longdouble``, and ``longdouble_pivots`` eliminates it in the same
precision: the oracles of the scan's closed-form M and of its a_j.
``operator_norms_per_pair`` is the per-pair path of the operator norms: one
QR and one SVD call for each of the four (operator, metric) pairs, and scipy's
checked banded Cholesky wrappers for the H1 factor.
``gain_quadrature_gap`` measures the feedback gain against the trapezoid of
the kernel's x = L row, an independent quadrature of the same integral.
"""

import math
from typing import Optional

import numpy as np
import scipy.linalg

from rdstab.constants import ADMISSIBILITY_FLOOR, DEFAULT_KERNEL_TOL, KERNEL_MAX_ORDER
from rdstab.errors import (
    ConvergenceError,
    DimensionError,
    InadmissiblePairError,
    InvalidParameterError,
    NewtonDivergenceError,
    NonFiniteStateError,
    check_scalars,
)
from rdstab.controller import feedback_gain
from rdstab.grid import Grid, laplacian_matrix, make_grid, trapezoid_weights
from rdstab.kernel import Kernel, kernel_table as rd_kernel_table
from rdstab.simulator import DYNAMICS_MODES, SimulationConfig, _interior, initial_state
from rdstab.spectral import ModalBasis, ProjectionMatrix
from rdstab.transform import OperatorNorms, TransformSet, build_transform


def assemble_A(
    nu: float,
    alpha: float,
    mu: float,
    grid: Grid,
    P: Optional[ProjectionMatrix],
    dynamics: str,
) -> np.ndarray:
    """Spatial operator -nu*Laplacian - alpha*I (+ mu*P for the target), identity boundary rows."""
    if dynamics not in DYNAMICS_MODES:
        raise InvalidParameterError(f"unknown dynamics mode {dynamics!r}")
    A = -nu * laplacian_matrix(grid).to_dense() - alpha * np.eye(grid.nx)
    if dynamics == "target":
        if P is None:
            raise InvalidParameterError(f"dynamics {dynamics!r} needs a projection matrix")
        if P.basis.grid.nx != grid.nx:
            raise DimensionError(
                f"projection grid ({P.basis.grid.nx} nodes) does not match ({grid.nx})"
            )
        A = A + mu * P.matrix
    A[0, :] = 0.0
    A[0, 0] = 1.0
    A[-1, :] = 0.0
    A[-1, -1] = 1.0
    return A


def closed_loop_matrix(
    config: SimulationConfig,
    grid: Grid,
    P: Optional[ProjectionMatrix],
    gain: Optional[np.ndarray],
) -> np.ndarray:
    """Dense C = I + dt/2 A with the constraint rows u_0 = 0 and u_L = g(u) (or u_L = 0)."""
    C = np.eye(grid.nx) + 0.5 * config.dt * assemble_A(
        config.nu, config.alpha, config.mu, grid, P, config.dynamics)
    C[0] = np.eye(grid.nx)[0]
    C[-1] = np.eye(grid.nx)[-1] - (gain if gain is not None else 0.0)
    return C


def dense_newton_step(C: np.ndarray, u: np.ndarray, config: SimulationConfig):
    """One Crank-Nicolson step of the cubic model on the dense C; returns (u', solves).

    Solves C u' + dt/2 u'^3 = 2u - C u - dt/2 u^3 on the interior rows, while
    C's own first and last rows keep u'_0 = 0 and u'_L = g(u') implicit in
    every Newton update.  Stops when max|du| <= newton_tol.
    """
    dt = config.dt
    interior = np.ones_like(u)
    interior[0] = interior[-1] = 0.0
    B = interior * (2.0 * u - C @ u - 0.5 * dt * u**3)
    up = u.copy()
    history = []
    for p in range(config.newton_max_iter):
        F = B - C @ up - interior * (0.5 * dt * up**3)
        du = np.linalg.solve(C + np.diag(interior * 1.5 * dt * up**2), F)
        up = up + du
        history.append(float(np.max(np.abs(du))))
        if history[-1] <= config.newton_tol:
            return up, p + 1
    raise NewtonDivergenceError(0, history)


def newton_step_tol(stepper, u: np.ndarray, config: SimulationConfig, n: int):
    """Newton loop of ``rdstab.simulator._newton_step`` with the max|du| <= newton_tol stop alone.

    It starts from the same predictor, the linear step with the cubic explicit,
    and takes at least one solve from it.
    """
    dt = config.dt
    cube = 0.5 * dt * (u * u * u)
    b = stepper.constrain(2.0 * u - 2.0 * cube, u)
    w = stepper.solve(b)
    up = w - u
    F = b - stepper.matvec(w) + _interior(cube - 0.5 * dt * (up * up * up))
    history = []
    for p in range(config.newton_max_iter):
        shift = 1.5 * dt * (up * up)
        du = stepper.solve(F, shift)
        prev, up = up, up + du
        delta = float(np.abs(du).max())
        if not math.isfinite(delta):
            raise NonFiniteStateError(n)
        history.append(delta)
        if delta <= config.newton_tol:
            return up, p + 1
        F -= stepper.matvec(du) + _interior(shift * du + 0.5 * dt * (du * du * (3.0 * prev + du)))
    raise NewtonDivergenceError(n, history)


def reference_march(config: SimulationConfig, gain: Optional[np.ndarray]) -> np.ndarray:
    """The (nt, nx) levels of the cubic model's Crank-Nicolson march in np.longdouble.

    Each level solves C u' + dt/2 u'^3 = 2u - C u - dt/2 u^3 on the interior
    rows, with u'_0 = 0 and u'_L = g(u') for a ``gain`` (else u'_L = 0), by
    Newton's method from u' = u until max|du| <= 1e-14 max(1, max|u'|), and
    then one more update.  Each Newton solve is Thomas's algorithm on the
    tridiagonal part plus Sherman-Morrison for the gain row.  Only u0 and the
    gain come in as doubles; every coefficient, residual and sweep is formed
    in extended precision.  The sweeps are pure Python: about 1 s at nx = nt = 400.
    """
    if config.model != "nonlinear" or config.dynamics == "target":
        raise InvalidParameterError("the reference marches the cubic plant, open or closed loop")
    ld = np.longdouble
    grid = make_grid(config.length, config.nx)
    u = np.array(initial_state(config, grid), dtype=ld)
    g = None if gain is None else np.array(gain, dtype=ld)
    dx = ld(config.length) / (config.nx - 1)
    h = ld(config.tmax) / (config.nt - 1) / 2
    off = -h * ld(config.nu) / (dx * dx)
    diag = 1 + h * (2 * ld(config.nu) / (dx * dx) - ld(config.alpha))
    e_L = np.zeros(config.nx, dtype=ld)
    e_L[-1] = 1

    def matvec(v):
        out = v.copy()
        out[1:-1] = diag * v[1:-1] + off * (v[:-2] + v[2:])
        if g is not None:
            out[-1] -= np.dot(g, v)
        return out

    levels = [u]
    for n in range(config.nt - 1):
        B = 2 * u - matvec(u) - h * u**3
        B[0] = B[-1] = 0
        v, last = u.copy(), False
        for _ in range(60):
            F = B - matvec(v)
            F[1:-1] -= h * v[1:-1] ** 3
            y, z = _thomas(diag + 3 * h * v[1:-1] ** 2, off, F, e_L)
            du = y if g is None else y + z * (np.dot(g, y) / (1 - np.dot(g, z)))
            v = v + du
            if last:
                break
            last = np.abs(du).max() <= 1e-14 * max(1, np.abs(v).max())
        else:
            raise NewtonDivergenceError(n, [])
        levels.append(v)
        u = v
    return np.array(levels)


def _thomas(d: np.ndarray, off, *rhs: np.ndarray):
    """Solve T x = r for each r in ``rhs`` by Thomas's algorithm, in the dtype of ``d``.

    T has identity first and last rows, and off x_{i-1} + d_i x_i + off x_{i+1}
    on interior row i, with ``d`` the nx - 2 interior diagonal entries.
    """
    m = len(d)
    pivots = [d[0]]
    for i in range(1, m):
        pivots.append(d[i] - off * off / pivots[i - 1])
    out = []
    for r in rhs:
        x = r.copy()
        x[1] -= off * r[0]
        x[-2] -= off * r[-1]
        y = list(x[1:-1])
        for i in range(1, m):
            y[i] -= off / pivots[i - 1] * y[i - 1]
        y[-1] /= pivots[-1]
        for i in range(m - 2, -1, -1):
            y[i] = (y[i] - off * y[i + 1]) / pivots[i]
        x[1:-1] = y
        out.append(x)
    return out


def phi_recursion(UW: np.ndarray, basis: ModalBasis):
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


def phi_apply_recursive(
    upsilon: np.ndarray,
    basis: ModalBasis,
    v: np.ndarray,
) -> np.ndarray:
    """Apply Phi_N to one vector by the bottom-up level scheme.

    The recursion for Phi_N needs Phi_{N-1} applied to two inputs, each of
    which needs Phi_{N-2}, and so on.  Unrolled, the required raw inputs are
    the operator chains

        (Upsilon P_p) (Upsilon P_{p+1}) ... (Upsilon P_N) v
        (Upsilon P_p) ... (Upsilon P_{j-1}) [Upsilon e_j],   p < j <= N,

    which are precomputed right-to-left.  One pass per level p = 1..N then
    advances every still-needed quantity from Phi_{p-1} to Phi_p and
    consumes the e_p chain to form a_p, failing when |1 + a_p| is within
    ADMISSIBILITY_FLOOR of 0.  Used as a consistency oracle for the factored
    transform of ``rdstab.transform.build_transform``.
    """
    g = basis.grid
    v = g.check_vector(v)
    W = basis.W
    wq = trapezoid_weights(g)
    N = basis.n_modes
    dx = g.dx

    def up_pj(j: int, vec: np.ndarray) -> np.ndarray:
        # Upsilon P_j vec with P_j the projection on modes 1..j
        coeffs = dx * (W[:, :j].T @ vec)
        return upsilon @ (W[:, :j] @ coeffs)

    # raw chains, indexed by the level at which they are consumed next
    main = v.copy()
    main_chain = [None] * (N + 1)  # main_chain[p] = (U P_p) ... (U P_N) v
    for p in range(N, 0, -1):
        main = up_pj(p, main)
        main_chain[p] = main
    e_chain = {}
    for j in range(2, N + 1):
        c = upsilon @ W[:, j - 1]  # Upsilon e_j
        chain = [None] * j
        for p in range(j - 1, 0, -1):
            c = up_pj(p, c)
            chain[p] = c
        e_chain[j] = chain

    # level p state: M = Phi_p [ (U P_{p+1}) ... (U P_N) v ]
    #                E[j] = Phi_p [ (U P_{p+1}) ... (U P_{j-1}) Upsilon e_j ]
    M = np.zeros(g.nx)
    E = {j: np.zeros(g.nx) for j in range(2, N + 1)}
    for p in range(1, N + 1):
        ep = W[:, p - 1]
        if p == 1:
            bb = upsilon @ ep
        else:
            bb = (upsilon @ ep) - E[p]
        a = float(np.dot(wq * bb, ep))
        if abs(1.0 + a) <= ADMISSIBILITY_FLOOR:
            raise InadmissiblePairError(p, a, ADMISSIBILITY_FLOOR)
        def advance(raw: np.ndarray, prev: np.ndarray) -> np.ndarray:
            r = raw - prev
            return r - (np.dot(wq * r, ep) / (1.0 + a)) * bb
        M = advance(main_chain[p], M)
        for j in range(p + 1, N + 1):
            E[j] = advance(e_chain[j][p], E[j])
    return M


def dense_transform(tset: TransformSet):
    """Dense (T, Phi_N) of a transform set, expanded from its nx x N factors."""
    g, W = tset.grid, tset.basis.W
    return np.eye(g.nx) + g.dx * (tset.UW @ W.T), g.dx * (tset.X @ W.T)


def truncate_order(mu: float, nu: float, grid: Grid) -> int:
    """Smallest M with max |k^{M+1} - k^M| < DEFAULT_KERNEL_TOL over all grid pairs.

    The difference k^{M+1} - k^M is the (M+1)-th series term, whose magnitude
    grows with x at fixed y, so the maximum over the triangle is attained on
    the x = L row.  The scan therefore only tracks that row.
    """
    check_scalars(nu=nu, mu=mu, positive=("nu",))
    y = grid.nodes
    prefactor = np.abs(mu) * y / (2.0 * nu)
    z = grid.length**2 - y * y
    q = np.abs(mu) / (4.0 * nu)
    term = np.ones_like(y)
    # overflow for absurd mu/nu just keeps the loop running into the cap error
    with np.errstate(over="ignore", invalid="ignore"):
        for order in range(KERNEL_MAX_ORDER + 1):
            term = term * q * z / ((order + 1) * (order + 2))
            if np.max(prefactor * term) < DEFAULT_KERNEL_TOL:
                return order
    raise ConvergenceError(
        f"kernel series did not reach tol={DEFAULT_KERNEL_TOL:.1e} within {KERNEL_MAX_ORDER} terms"
    )


def kernel_series(x: float, y: float, mu: float, nu: float, order: int) -> float:
    """Partial sum k^M(x, y) of the kernel series, ``order`` terms beyond the leading one.

    The series alternates for mu > 0 and its terms grow like
    exp(sqrt(mu (x^2 - y^2) / nu)) before they cancel, so the partial sum
    loses every digit at large mu > 0; ``Kernel.values``, from the closed
    form, does not.  A point outside 0 <= y <= x raises InvalidParameterError.
    """
    check_scalars(nu=nu, mu=mu, positive=("nu",))
    if order < 0:
        raise InvalidParameterError(f"truncation order must be >= 0, got {order}")
    if y < 0 or y > x:
        raise InvalidParameterError(f"point (x={x}, y={y}) outside the triangle 0 <= y <= x")
    z = (x - y) * (x + y)
    q = -mu / (4.0 * nu)
    term = 1.0
    total = 1.0
    for m in range(order):
        term *= q * z / ((m + 1) * (m + 2))
        total += term
    return -(mu * y) / (2.0 * nu) * total


def upsilon_projected(kernel: Kernel, basis: ModalBasis) -> np.ndarray:
    """Dense Upsilon P_N = (Upsilon W)(dx W^T) from the closed form of Upsilon e_j.

    Upsilon e_j = sqrt(2/L) (theta sinc(r theta / pi) - sin theta) with
    theta = j pi x / L and r = sqrt(1 + mu L^2 / (nu j^2 pi^2)) taken complex,
    so one expression covers r^2 > 0 (sin), r^2 < 0 (sinh) and r = 0 (theta).
    """
    g = basis.grid
    j = np.arange(1, basis.n_modes + 1)
    theta = np.pi * g.nodes[:, None] * j / g.length
    r = np.sqrt(1.0 + kernel.mu * g.length**2 / (kernel.nu * (np.pi * j) ** 2) + 0j)
    UW = np.sqrt(2.0 / g.length) * (theta * np.sinc(r * theta / np.pi) - np.sin(theta)).real
    return g.dx * (UW @ basis.W.T)


def gain_quadrature_gap(mu: float, nx: int, n_modes: int) -> float:
    """max |r - q| / max |r| for the gain r and the direct quadrature q, nu = L = 1.

    q is the trapezoid of k(L, y), read from the kernel table, against
    P_N (I - Phi_N) with the dense Phi_N of the build.  r forms the same
    integral exactly, so the gap is the trapezoid's error: O(dx^2).
    """
    grid = make_grid(1.0, nx)
    kern = rd_kernel_table(grid, mu, 1.0)
    tset = build_transform(kern, n_modes)
    gain = feedback_gain(kern, tset)
    _, phi = dense_transform(tset)
    lead = trapezoid_weights(grid) * kern.values[-1]
    direct = lead @ tset.P.matrix @ (np.eye(nx) - phi)
    return float(np.max(np.abs(gain - direct)) / np.max(np.abs(gain)))


def discrete_m(nu: float, length: float, n_modes: int, mu: float, nx: int) -> np.ndarray:
    """M = dx W^T UW summed over the nodes i L / (nx - 1) in np.longdouble.

    W_ij = sqrt(2/L) sin(theta_j) and UW_ij = sqrt(2/L) sin(r theta_j) / r
    - W_ij, with theta_j = j pi x_i / L and r^2 = 1 + mu L^2 / (nu j^2 pi^2)
    (sinh for r^2 < 0, theta for r = 0); every sample, product and sum is
    formed in extended precision.
    """
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    L = ld(length)
    j = np.arange(1, n_modes + 1, dtype=ld)
    theta = np.outer(np.arange(nx, dtype=ld) / (nx - 1), j) * pi
    W = np.sqrt(2 / L) * np.sin(theta)
    UW = np.empty_like(W)
    for c, q in enumerate(1 + ld(mu) * L * L / (ld(nu) * (j * pi) ** 2)):
        rr = np.sqrt(abs(q))
        if q > 0:
            UW[:, c] = np.sin(rr * theta[:, c]) / rr
        elif q < 0:
            UW[:, c] = np.sinh(rr * theta[:, c]) / rr
        else:
            UW[:, c] = theta[:, c]
    UW = np.sqrt(2 / L) * UW - W
    return L / (nx - 1) * (W.T @ UW)


def longdouble_pivots(M: np.ndarray) -> np.ndarray:
    """a_j = (pivot j of I + M) - 1 by elimination without pivoting, in np.longdouble."""
    S = np.array(M, dtype=np.longdouble)
    n = len(S)
    for j in range(n - 1):
        S[j + 1:, j + 1:] -= np.outer(S[j + 1:, j] / (1 + S[j, j]), S[j, j + 1:])
    return np.diagonal(S).copy()


def _rank_n_opnorm(A: np.ndarray, B: np.ndarray) -> float:
    """Spectral norm of I + A B^T for nx x N factors, through the QR of [A, B]."""
    n_modes = A.shape[1]
    R = np.linalg.qr(np.hstack([A, B]), mode="r")
    small = np.eye(2 * n_modes) + R[:, :n_modes] @ R[:, n_modes:].T
    return max(1.0, float(np.linalg.svd(small, compute_uv=False)[0]))


def operator_norms_per_pair(tset: TransformSet) -> OperatorNorms:
    """``rdstab.operator_norms`` one (operator, metric) pair at a time."""
    g = tset.grid
    s = np.sqrt(trapezoid_weights(g))[:, None]
    ab = np.empty((2, g.nx))
    ab[0] = -1.0 / g.dx
    ab[1] = 2.0 / g.dx
    ab[1, [0, -1]] = 1.0 / g.dx
    ab[1] += trapezoid_weights(g)
    U = scipy.linalg.cholesky_banded(ab)

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
