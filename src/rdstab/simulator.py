"""Crank-Nicolson time stepping for the closed-loop reaction-diffusion model.

The semi-discrete system is u' + A u = 0 (plus the cubic term for the
nonlinear model) with A = -nu*Laplacian - alpha*I, optionally augmented by
the modal damping term mu*P_N.  Three dynamics modes are supported:

* ``paper_faithful``: A includes mu*P_N and the right boundary carries the
  lagged feedback value (both stabilizing mechanisms at once).
* ``plant``: A without mu*P_N; the closed loop acts through the boundary
  feedback only.
* ``target``: A with mu*P_N and homogeneous Dirichlet boundary; feedback
  is rejected since the target model has none.

Each step solves (I + dt/2 A) u^{n+1} = (I - dt/2 A) u^n with the first and
last rows replaced by the Dirichlet constraints.  The nonlinear model adds
-(dt/2)[(u^{n+1})^3 + (u^n)^3] to the balance and resolves each step by a
Newton iteration whose boundary value is re-imposed from the previous
iterate; convergence is max|du| <= newton_tol.

Every step, linear or Newton, uses one solver: I + dt/2 A is a tridiagonal
core plus the rank-N term mu*P_N, so a banded solve followed by an N x N
Woodbury correction costs O(nx*N).  ``assemble_A``, ``step_linear`` and
``step_nonlinear`` are dense reference implementations for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg

from .constants import DEFAULT_KERNEL_TOL, DEFAULT_NEWTON_MAX_ITER, DEFAULT_NEWTON_TOL
from .controller import feedback_gain
from .errors import (
    DimensionError,
    InvalidParameterError,
    NewtonDivergenceError,
)
from .grid import Grid, Tridiagonal, h1_norm, l2_norm, laplacian_matrix, make_grid
from .kernel import Kernel, kernel_table
from .spectral import ProjectionMatrix, modal_basis, projection_matrix
from .transform import TransformSet, build_transform, forward_transform, inverse_transform

__all__ = [
    "SimulationConfig",
    "Trajectory",
    "initial_state",
    "assemble_A",
    "step_linear",
    "step_nonlinear",
    "run_simulation",
    "run_target_consistency",
]

DYNAMICS_MODES = ("paper_faithful", "plant", "target")
MODELS = ("linear", "nonlinear")
CONTROL_MODES = ("feedback", "off")


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run.

    ``u0`` accepts a preset name ("exp1", "exp2"), a dict with
    ``sine_coeffs`` (coefficients against the normalized sine modes) and/or
    ``poly_coeffs`` (monomial coefficients, constant first), an array of
    nodal samples, or a callable of the node vector.  ``forcing``, if set,
    is a source term f(x, t) added to the linear model (used for
    manufactured-solution checks).
    """

    nu: float
    alpha: float
    mu: float = 0.0
    n_modes: int = 1
    length: float = 1.0
    nx: int = 200
    nt: int = 200
    tmax: float = 1.0
    model: str = "linear"
    dynamics: str = "paper_faithful"
    control: str = "feedback"
    u0: Union[str, dict, np.ndarray, Callable] = "exp1"
    newton_tol: float = DEFAULT_NEWTON_TOL
    newton_max_iter: int = DEFAULT_NEWTON_MAX_ITER
    forcing: Optional[Callable] = None

    @property
    def dt(self) -> float:
        return self.tmax / (self.nt - 1)

    def validate(self) -> None:
        for name in ("nu", "alpha", "mu", "length", "tmax", "newton_tol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
        if self.nu <= 0:
            raise InvalidParameterError(f"diffusion coefficient must be positive, got {self.nu}")
        if self.length <= 0:
            raise InvalidParameterError(f"domain length must be positive, got {self.length}")
        if self.nx < 3:
            raise InvalidParameterError(f"need at least 3 nodes, got {self.nx}")
        if self.nt < 2:
            raise InvalidParameterError(f"need at least 2 time levels, got {self.nt}")
        if self.tmax <= 0:
            raise InvalidParameterError(f"time horizon must be positive, got {self.tmax}")
        if self.model not in MODELS:
            raise InvalidParameterError(f"unknown model {self.model!r}")
        if self.dynamics not in DYNAMICS_MODES:
            raise InvalidParameterError(f"unknown dynamics mode {self.dynamics!r}")
        if self.control not in CONTROL_MODES:
            raise InvalidParameterError(f"unknown control mode {self.control!r}")
        if self.control == "feedback":
            if self.dynamics == "target":
                raise InvalidParameterError(
                    "the target dynamics has homogeneous boundary conditions; "
                    "combine control='feedback' with 'paper_faithful' or 'plant'"
                )
            if self.n_modes < 1:
                raise InvalidParameterError("feedback control needs at least one mode")
        if self.newton_tol <= 0:
            raise InvalidParameterError(f"Newton tolerance must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise InvalidParameterError("Newton iteration budget must be at least 1")
        if self.forcing is not None and self.model != "linear":
            raise InvalidParameterError("forcing terms are supported for the linear model only")


@dataclass(frozen=True)
class Trajectory:
    """Time history of one run.

    ``controls[n]`` is the boundary value applied to reach level n+1 (the
    lagged feedback g(u^n)); the final entry is the value that would be
    applied next.  ``newton_iters[n]`` counts the inner iterations that
    produced level n (zero for linear runs and at n = 0).
    """

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    controls: np.ndarray
    l2_norms: np.ndarray
    h1_norms: np.ndarray
    newton_iters: np.ndarray

    @property
    def nt(self) -> int:
        return self.times.shape[0]


def initial_state(config: SimulationConfig, grid: Grid) -> np.ndarray:
    """Sample the configured initial condition on the grid nodes."""
    x = grid.nodes
    spec = config.u0
    if isinstance(spec, str):
        if spec == "exp1":
            u = 10.0 * x * (x - 0.5) * (x - 1.0) ** 2
        elif spec == "exp2":
            u = np.sin(2.0 * np.pi * x) - 0.5 * np.sin(3.0 * np.pi * x)
        else:
            raise InvalidParameterError(f"unknown initial-condition preset {spec!r}")
    elif isinstance(spec, dict):
        unknown = set(spec) - {"sine_coeffs", "poly_coeffs"}
        if unknown:
            raise InvalidParameterError(f"unknown initial-condition keys {sorted(unknown)}")
        u = np.zeros_like(x)
        amp = np.sqrt(2.0 / grid.length)
        for n, c in enumerate(spec.get("sine_coeffs", ()), start=1):
            u += float(c) * amp * np.sin(n * np.pi * x / grid.length)
        poly = list(spec.get("poly_coeffs", ()))
        if poly:
            u += np.polynomial.polynomial.polyval(x, poly)
    elif callable(spec):
        u = grid.check_vector(spec(x))
    else:
        u = grid.check_vector(spec)
    if not np.all(np.isfinite(u)):
        raise InvalidParameterError("initial state has non-finite samples")
    return u


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


def _crank_pair(core: Tridiagonal, dt: float):
    """Tridiagonal factors I +/- dt/2 * core with exact identity boundary rows."""

    def shifted(sign):
        diag = 1.0 + sign * 0.5 * dt * core.diag
        sub = sign * 0.5 * dt * core.sub
        sup = sign * 0.5 * dt * core.sup
        diag[0] = diag[-1] = 1.0
        sub[-1] = 0.0
        sup[0] = 0.0
        return Tridiagonal(sub=sub, diag=diag, sup=sup)

    return shifted(+1.0), shifted(-1.0)


class _Stepper:
    """Crank-Nicolson operators of one run, applied and solved in O(nx*N).

    C_plus = I + dt/2 A is a tridiagonal core with identity constraint rows
    plus, when mu*P_N is present, the rank-N term lr_coef * U_w W^T.  Every
    step, linear or Newton, goes through ``solve``: one banded solve on
    [rhs, U_w] and an N x N capacitance correction (Woodbury identity).
    """

    def __init__(self, config: SimulationConfig, grid: Grid, P: Optional[ProjectionMatrix]):
        core = laplacian_matrix(grid)
        # _crank_pair resets the constraint rows, so the alpha shift and nu
        # scaling may touch them here
        core = Tridiagonal(
            sub=-config.nu * core.sub,
            diag=-config.nu * core.diag - config.alpha,
            sup=-config.nu * core.sup,
        )
        self.tri_plus, self.tri_minus = _crank_pair(core, config.dt)
        with_proj = config.dynamics in ("paper_faithful", "target")
        if with_proj and config.mu != 0.0:
            W = P.basis.W
            U_w = W.copy()
            U_w[0, :] = 0.0
            U_w[-1, :] = 0.0
            self.lr_coef = 0.5 * config.dt * config.mu * grid.dx
            self.W = W
            self.U_w = U_w
        else:
            self.lr_coef = 0.0
            self.W = None
            self.U_w = None

    def cplus_mv(self, v: np.ndarray) -> np.ndarray:
        out = self.tri_plus.matvec(v)
        if self.lr_coef:
            out += self.lr_coef * (self.U_w @ (self.W.T @ v))
        return out

    def cminus_mv(self, v: np.ndarray) -> np.ndarray:
        out = self.tri_minus.matvec(v)
        if self.lr_coef:
            out -= self.lr_coef * (self.U_w @ (self.W.T @ v))
        return out

    def solve(self, rhs: np.ndarray, shift: Optional[np.ndarray] = None) -> np.ndarray:
        """Solve (C_plus + diag(shift)) x = rhs; the constraint rows ignore shift."""
        ab = self.tri_plus.banded()
        if shift is not None:
            ab[1, 1:-1] += shift[1:-1]
        if not self.lr_coef:
            return scipy.linalg.solve_banded((1, 1), ab, rhs)
        Y = scipy.linalg.solve_banded((1, 1), ab, np.column_stack([rhs, self.U_w]))
        y = Y[:, 0]
        YU = Y[:, 1:]
        S = np.eye(self.W.shape[1]) / self.lr_coef + self.W.T @ YU
        return y - YU @ np.linalg.solve(S, self.W.T @ y)


def _build_feedback(config: SimulationConfig, grid: Grid):
    kern = kernel_table(grid, config.mu, config.nu, DEFAULT_KERNEL_TOL)
    tset = build_transform(kern, config.n_modes)
    return kern, tset, feedback_gain(kern, tset)


def _package(config, grid, times, states, controls, iters) -> Trajectory:
    states = np.asarray(states)
    return Trajectory(
        times=np.asarray(times),
        states=states,
        controls=np.asarray(controls),
        l2_norms=l2_norm(states, grid),
        h1_norms=h1_norm(states, grid),
        newton_iters=np.asarray(iters, dtype=int),
    )


def run_simulation(config: SimulationConfig) -> Trajectory:
    """March the configured model from t = 0 to t = tmax.

    Deterministic: identical configs produce identical trajectories.  A
    Newton failure is raised with the truncated trajectory attached as
    ``err.partial``.
    """
    config.validate()
    grid = make_grid(config.length, config.nx)
    u = initial_state(config, grid)
    with_proj = config.dynamics in ("paper_faithful", "target")
    P = None
    if with_proj or config.control == "feedback":
        basis = modal_basis(grid, config.n_modes)
        P = projection_matrix(basis)
    gain = None
    if config.control == "feedback":
        _, _, gain = _build_feedback(config, grid)
    stepper = _Stepper(config, grid, P)
    times = np.linspace(0.0, config.tmax, config.nt)
    states = np.empty((config.nt, grid.nx))
    controls = np.zeros(config.nt)
    iters = np.zeros(config.nt, dtype=int)
    states[0] = u
    dt = config.dt
    x = grid.nodes
    for n in range(config.nt - 1):
        if config.model == "linear":
            g_val = float(gain @ u) if gain is not None else 0.0
            rhs = stepper.cminus_mv(u)
            if config.forcing is not None:
                rhs += 0.5 * dt * (config.forcing(x, times[n]) + config.forcing(x, times[n + 1]))
            rhs[0] = 0.0
            rhs[-1] = g_val
            u = stepper.solve(rhs)
            u[0] = 0.0
            u[-1] = g_val
        else:
            try:
                u, k = _newton_march_step(stepper, u, gain, config, n)
            except NewtonDivergenceError as err:
                err.partial = _package(
                    config, grid, times[: n + 1], states[: n + 1],
                    controls[: n + 1], iters[: n + 1],
                )
                raise
            iters[n + 1] = k
        states[n + 1] = u
        # the value actually imposed at the right boundary for level n+1
        controls[n] = u[-1] if gain is not None else 0.0
    controls[-1] = float(gain @ u) if gain is not None else 0.0
    return _package(config, grid, times, states, controls, iters)


def _newton_march_step(stepper: _Stepper, u: np.ndarray, gain, config: SimulationConfig, n: int):
    dt = config.dt
    B = stepper.cminus_mv(u) - 0.5 * dt * u**3
    up = u.copy()
    history = []
    for p in range(config.newton_max_iter):
        g_val = float(gain @ up) if gain is not None else 0.0
        F = B - stepper.cplus_mv(up) - 0.5 * dt * up**3
        F[0] = -up[0]
        F[-1] = g_val - up[-1]
        du = stepper.solve(F, 1.5 * dt * up**2)
        up = up + du
        delta = float(np.max(np.abs(du)))
        history.append(delta)
        if delta <= config.newton_tol:
            up[0] = 0.0
            return up, p + 1
    raise NewtonDivergenceError(n, history)


def run_target_consistency(config: SimulationConfig):
    """Run the feedback plant and the homogeneous target side by side.

    Returns (plant trajectory, target trajectory, mismatch) where
    mismatch[n] = ||u^n - T w^n||_2 / ||u0||_2 with w0 = (I - Phi) u0.
    """
    config.validate()
    if config.model != "linear":
        raise InvalidParameterError("target consistency is defined for the linear model")
    grid = make_grid(config.length, config.nx)
    u0 = initial_state(config, grid)
    kern = kernel_table(grid, config.mu, config.nu, DEFAULT_KERNEL_TOL)
    tset = build_transform(kern, config.n_modes)
    w0 = inverse_transform(tset, u0)
    plant_cfg = replace(config, dynamics="plant", control="feedback", u0=u0)
    target_cfg = replace(config, dynamics="target", control="off", u0=w0)
    traj_u = run_simulation(plant_cfg)
    traj_w = run_simulation(target_cfg)
    denom = l2_norm(u0, grid)
    if denom == 0.0:
        raise InvalidParameterError("zero initial state has no relative mismatch")
    mismatch = l2_norm(traj_u.states - forward_transform(tset, traj_w.states), grid) / denom
    return traj_u, traj_w, mismatch
