"""Dense reference implementations of the Crank-Nicolson step, for tests only.

The marcher in ``rdstab.simulator`` solves a tridiagonal core plus a low-rank
term; these oracles assemble the full nx x nx operator and call a dense solve,
so a test can check the structured path against the plain one.  ``step_linear``
takes the boundary value as an argument; ``step_nonlinear`` imposes the
boundary law by a fixed point on the last row.
"""

from typing import Optional

import numpy as np

from rdstab.constants import DEFAULT_NEWTON_MAX_ITER, DEFAULT_NEWTON_TOL
from rdstab.controller import feedback_gain
from rdstab.errors import DimensionError, InvalidParameterError, NewtonDivergenceError
from rdstab.grid import Grid, laplacian_matrix
from rdstab.kernel import Kernel
from rdstab.simulator import CONTROL_MODES, DYNAMICS_MODES
from rdstab.spectral import ProjectionMatrix
from rdstab.transform import TransformSet


def assemble_A(
    nu: float,
    alpha: float,
    mu: float,
    grid: Grid,
    P: Optional[ProjectionMatrix],
    dynamics: str,
) -> np.ndarray:
    """Spatial operator -nu*Laplacian - alpha*I (+ mu*P), identity boundary rows."""
    if dynamics not in DYNAMICS_MODES:
        raise InvalidParameterError(f"unknown dynamics mode {dynamics!r}")
    A = -nu * laplacian_matrix(grid).to_dense() - alpha * np.eye(grid.nx)
    if dynamics in ("paper_faithful", "target"):
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


def _dirichlet_rows(C: np.ndarray) -> np.ndarray:
    C[0, :] = 0.0
    C[0, 0] = 1.0
    C[-1, :] = 0.0
    C[-1, -1] = 1.0
    return C


def step_linear(u: np.ndarray, A: np.ndarray, dt: float, boundary_value: float) -> np.ndarray:
    """One Crank-Nicolson step of the linear model (reference dense solve)."""
    n = A.shape[0]
    if u.shape != (n,):
        raise DimensionError(f"state length {u.shape} does not match operator size {n}")
    C_plus = _dirichlet_rows(np.eye(n) + 0.5 * dt * A)
    rhs = (np.eye(n) - 0.5 * dt * A) @ u
    rhs[0] = 0.0
    rhs[-1] = boundary_value
    out = np.linalg.solve(C_plus, rhs)
    out[0] = 0.0
    out[-1] = boundary_value
    return out


def step_nonlinear(
    u: np.ndarray,
    A: np.ndarray,
    dt: float,
    tset: Optional[TransformSet],
    kernel: Optional[Kernel],
    control: str,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    newton_max_iter: int = DEFAULT_NEWTON_MAX_ITER,
):
    """One step of the nonlinear model by Newton iteration (reference dense path).

    Returns (u_next, iterations).  Under feedback the boundary value of each
    new iterate is the feedback evaluated at the previous one, so the
    constraint converges together with the interior update.
    """
    if control not in CONTROL_MODES:
        raise InvalidParameterError(f"unknown control mode {control!r}")
    if control == "feedback" and (tset is None or kernel is None):
        raise InvalidParameterError("feedback control needs the kernel and transform")
    n = A.shape[0]
    if u.shape != (n,):
        raise DimensionError(f"state length {u.shape} does not match operator size {n}")
    gain = feedback_gain(kernel, tset) if control == "feedback" else None
    C_plus = _dirichlet_rows(np.eye(n) + 0.5 * dt * A)
    B = (np.eye(n) - 0.5 * dt * A) @ u - 0.5 * dt * u**3
    up = u.copy()
    history = []
    interior = np.arange(1, n - 1)
    for p in range(newton_max_iter):
        g_val = float(gain @ up) if gain is not None else 0.0
        F = B - C_plus @ up - 0.5 * dt * up**3
        F[0] = -up[0]
        F[-1] = g_val - up[-1]
        J = C_plus.copy()
        J[interior, interior] += 1.5 * dt * up[interior] ** 2
        du = np.linalg.solve(J, F)
        up = up + du
        delta = float(np.max(np.abs(du)))
        history.append(delta)
        if delta <= newton_tol:
            up[0] = 0.0
            return up, p + 1
    raise NewtonDivergenceError(0, history)
