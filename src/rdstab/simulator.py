"""Crank-Nicolson time stepping for the closed-loop reaction-diffusion model.

The semi-discrete system is u' + A u = 0 (plus the cubic term for the
nonlinear model) with A = -nu*Laplacian - alpha*I.  Three dynamics modes are
supported:

* ``closed_loop`` (the default): the plant with the backstepping feedback
  acting from the right boundary only.
* ``open_loop``: the same plant with u_L = 0.
* ``target``: A augmented by the modal damping term mu*P_N, with
  homogeneous Dirichlet boundary.

Each step solves (I + dt/2 A) u^{n+1} = (I - dt/2 A) u^n on the interior
rows.  The first row imposes u_0 = 0; in the closed loop the last row imposes
the boundary law implicitly, u_L^{n+1} = g(u^{n+1}), and otherwise u_L = 0.
With C = I + dt/2 A and these constraint rows, a linear step is
u^{n+1} = C^{-1} b - u^n, where b is 2 u^n (plus the forcing) on the interior
rows and C u^n on the constraint rows, so no product with C is formed.
The nonlinear model adds -(dt/2)[(u^{n+1})^3 + (u^n)^3] to the interior
balance and resolves each step by Newton's method on the same operator.
After the first update, the residual is updated from the correction du (its
product with the Newton matrix and the exact cubic remainder), so its
rounding falls with du; formed again from C u it would round at
eps ||C|| |u|.  A step stops when max|du| <= newton_tol, or one solve earlier
when a certified bound shows that the next correction would be at most
newton_tol: the residual is at hand, and ||C^{-1}||_inf is bounded once per
run from the M-matrix tridiagonal core and the Woodbury factors.

The operator is a tridiagonal core plus a low-rank term of rank k <= N: the
rank-one gain row in the closed loop, mu*P_N in the target.  Every solve goes
through the Woodbury identity in O(nx*N).  The core's two couplings of the
interior to u_0 and u_L are folded into the right-hand side, which leaves a
symmetric tridiagonal Z-matrix, positive definite whenever
1 + dt/2 (nu lambda_1 - alpha) > 0.  A run factors it once by LDL^T (LAPACK
pttrf) and folds the low-rank correction into one nx x k matrix, so a linear
step is one pttrs plus two thin products.  A Newton iteration shifts the
diagonal by 1.5 dt u^2 >= 0, so it makes one ptsv call on [rhs, U] and a
k x k capacitance solve.  A core that pttrf reports not positive definite
(dt too coarse for alpha) takes the pivoted LU instead: gttrf, gttrs, gtsv.
Row 0 is decoupled and never pivoted, so u_0 = 0 holds exactly.

The march holds O(nx) memory: levels go into a ring of one block of about
BLOCK_ENTRIES / nx levels, and the block's norms and controls are formed
when it fills.  A run that keeps its (nt, nx) state history uses that
history as the ring.  Norms and controls are per-row einsum reductions,
whose order NumPy fixes, so neither the block size nor the BLAS library or
its thread count moves their bits: both runs agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs, dptsv, dpttrf, dpttrs

from .constants import BLOCK_ENTRIES, DEFAULT_NEWTON_MAX_ITER, DEFAULT_NEWTON_TOL
from .controller import feedback_gain
from .errors import (
    InvalidParameterError,
    NewtonDivergenceError,
    NonFiniteStateError,
    SolverError,
    check_fits,
    check_scalars,
)
from .grid import Grid, Tridiagonal, h1_norm, l2_norm, laplacian_matrix, make_grid
from .kernel import kernel_table
from .spectral import ProjectionMatrix, modal_basis, projection_matrix
from .transform import build_transform, forward_transform, inverse_transform

__all__ = [
    "SimulationConfig",
    "Trajectory",
    "initial_state",
    "run_simulation",
    "run_target_consistency",
]

DYNAMICS_MODES = ("closed_loop", "open_loop", "target")
MODELS = ("linear", "nonlinear")
# dynamics modes of earlier releases, and what replaced them
_RETIRED_DYNAMICS = {
    "paper_faithful": "it was retired; use closed_loop, which leaves mu*P_N out of the plant",
    "plant": "it was retired; use closed_loop (boundary feedback) or open_loop (u_L = 0)",
}


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one simulation run.

    ``u0`` accepts a preset name ("exp1", "exp2"), a dict with
    ``sine_coeffs`` (coefficients against the normalized sine modes) and/or
    ``poly_coeffs`` (monomial coefficients, constant first), an array of
    nodal samples, or a callable of the node vector.  ``forcing``, if set,
    is a source term f(x, t) added to the linear model (used for
    manufactured-solution checks).  The field defaults are the CLI's flag
    defaults: exp1's plant and its one-mode feedback.
    """

    nu: float = 1.0
    alpha: float = 12.0
    mu: float = 6.0
    n_modes: int = 1
    length: float = 1.0
    nx: int = 200
    nt: int = 200
    tmax: float = 1.0
    model: str = "linear"
    dynamics: str = "closed_loop"
    u0: Union[str, dict, np.ndarray, Callable] = "exp1"
    newton_tol: float = DEFAULT_NEWTON_TOL
    newton_max_iter: int = DEFAULT_NEWTON_MAX_ITER
    forcing: Optional[Callable] = None

    @property
    def dt(self) -> float:
        return self.tmax / (self.nt - 1)

    def validate(self) -> None:
        for name in ("nx", "nt", "n_modes", "newton_max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        if self.forcing is not None and not callable(self.forcing):
            raise InvalidParameterError(f"forcing must be None or callable, got {self.forcing!r}")
        check_scalars(
            nu=self.nu, alpha=self.alpha, mu=self.mu, length=self.length, tmax=self.tmax,
            newton_tol=self.newton_tol, positive=("nu", "length", "tmax", "newton_tol"),
        )
        if self.nx < 3:
            raise InvalidParameterError(f"need at least 3 nodes, got {self.nx}")
        if self.nt < 2:
            raise InvalidParameterError(f"need at least 2 time levels, got {self.nt}")
        if self.model not in MODELS:
            raise InvalidParameterError(f"unknown model {self.model!r}")
        if self.dynamics not in DYNAMICS_MODES:
            # str(): a list or object from a config file is unhashable
            hint = _RETIRED_DYNAMICS.get(str(self.dynamics), "choose from " + ", ".join(DYNAMICS_MODES))
            raise InvalidParameterError(f"unknown dynamics mode {self.dynamics!r}; {hint}")
        if self.dynamics == "closed_loop" and self.n_modes < 1:
            raise InvalidParameterError("the closed loop needs at least one mode")
        if self.newton_max_iter < 1:
            raise InvalidParameterError("Newton iteration budget must be at least 1")
        if self.forcing is not None and self.model != "linear":
            raise InvalidParameterError("forcing terms are supported for the linear model only")


@dataclass(frozen=True)
class Trajectory:
    """Time history of one run.

    ``states`` is the (nt, nx) history of a run that keeps it and otherwise
    only the final level, shape (1, nx); either way ``states[-1]`` is the last
    level.  ``controls[n]`` is the feedback value g(u^n) of level n (zero outside
    the closed loop).  The boundary law is implicit, so ``states[n, -1]`` equals it
    to rounding for n >= 1; the initial state need not satisfy it.
    ``newton_iters[n]`` counts the Newton solves that produced level n (zero
    for linear runs and at n = 0); a step that the certified bound stops
    after its first update takes one.
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
        for n, c in enumerate(_u0_coeffs(spec, "sine_coeffs"), start=1):
            u += float(c) * amp * np.sin(n * np.pi * x / grid.length)
        poly = _u0_coeffs(spec, "poly_coeffs")
        if poly:
            u += np.polynomial.polynomial.polyval(x, poly)
    elif callable(spec):
        u = grid.check_vector(spec(x))
    else:
        u = grid.check_vector(spec)
    if not np.all(np.isfinite(u)):
        raise InvalidParameterError("initial state has non-finite samples")
    return u


def _u0_coeffs(spec: dict, key: str) -> list:
    """The list ``spec[key]`` (empty when absent), checked to hold finite real numbers.

    Raises InvalidParameterError naming the field otherwise.
    """
    try:
        coeffs = list(spec.get(key, ()))
    except TypeError:
        raise InvalidParameterError(
            f"u0 {key} must be a list of real numbers, got {spec[key]!r}") from None
    check_scalars(**{f"u0 {key}[{i}]": c for i, c in enumerate(coeffs)})
    return coeffs


def _interior(v: np.ndarray) -> np.ndarray:
    """Zero the two constraint rows of v in place and return it."""
    v[0] = v[-1] = 0.0
    return v


def _lapack(routine, *args, **kwargs):
    """Call a scipy LAPACK wrapper; a nonzero ``info`` (its last output) raises SolverError."""
    *out, info = routine(*args, **kwargs)
    _check_info(routine, info)
    return out


def _check_info(routine, info: int) -> None:
    if info != 0:
        raise SolverError(
            f"LAPACK {routine.__name__} returned info = {info}"
            + (" (exactly singular pivot)" if info > 0 else "")
        )


def _capacitance_solve(S: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(S, b)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"singular Woodbury capacitance matrix: {err}") from err


class _Stepper:
    """Crank-Nicolson operator C = I + dt/2 A of one run.

    C is a tridiagonal core T with identity constraint rows plus the low-rank
    term U V^T, none in the open loop.  In the closed loop U = e_L and
    V = -gain, so the last row reads u_L - g(u); in the target U holds W with
    its boundary rows zeroed and V holds dt/2 mu dx W.  ``solve`` applies the
    Woodbury identity, k = rank(U) <= N.

    T is kept in symmetric form: ``tri`` has the diagonal d with
    d[0] = d[-1] = 1 and the off-diagonal e with e[0] = e[-1] = 0, and the two
    couplings of the interior to the constraint values, c0 (row 1 <- u_0) and
    cL (row nx-2 <- u_L), are folded into the right-hand side,
    r[1] -= c0 r[0] and r[-2] -= cL r[-1].  So T^{-1} = S^{-1} F for the
    symmetric tridiagonal S and the fold F.  S is a Z-matrix, positive
    definite whenever 1 + dt/2 (nu lambda_1 - alpha) > 0, and is factored once
    by LDL^T (pttrf).  ZS = T^{-1} U (I + V^T T^{-1} U)^{-1} is formed once, so
    a linear solve is one pttrs plus ZS (V^T y), and ``step`` is one solve and
    a subtraction.  A Newton shift
    1.5 dt u^2 >= 0 keeps S positive definite and changes its diagonal, so
    each iteration is one ptsv on the Fortran-ordered block [rhs, F U] and a
    k x k capacitance solve.  When pttrf reports S not positive definite (dt
    too coarse for alpha), the same folded S goes through the pivoted LU
    instead: gttrf and gttrs, and gtsv for Newton.  Row 0 is decoupled and
    never pivoted, so a solve returns x_0 = r_0 exactly.

    ``inv_bound`` is a certified K_C >= ||C^{-1}||_inf for nonlinear runs and
    inf otherwise.  C^{-1} = T^{-1} - ZS V^T T^{-1}, so
    K_C = ||T^{-1} 1||_inf + ||ZS||_inf max_i ||T^{-T} v_i||_1 with
    T^{-T} = F^T S^{-1}.  A symmetric Z-matrix that is positive definite is
    an M-matrix, so S^{-1} >= 0; F >= 0 too, hence T^{-1} >= 0 and
    ||T^{-1}||_inf = max(T^{-1} 1).  On the pivoted-LU path K_C = inf.
    """

    def __init__(self, config: SimulationConfig, grid: Grid, P: Optional[ProjectionMatrix],
                 gain: Optional[np.ndarray]):
        lap = laplacian_matrix(grid)
        h = 0.5 * config.dt
        diag = 1.0 + h * (-config.nu * lap.diag - config.alpha)
        off = h * (-config.nu * lap.sup)  # off[0] = 0: row 0 is a constraint row
        diag[0] = diag[-1] = 1.0
        self.c0, self.cL = float(h * (-config.nu * lap.sub[0])), float(off[-1])
        off[-1] = 0.0
        self.tri = Tridiagonal(sub=off, diag=diag, sup=off)
        self.gain = gain
        self.U = self.V = self.ZS = None
        if gain is not None:
            self.U = np.zeros((grid.nx, 1))
            self.U[-1] = 1.0
            self.V = -gain[:, None]
        elif config.dynamics == "target" and config.mu != 0.0:
            W = P.basis.W
            self.U = _interior(W.copy())
            self.V = h * config.mu * grid.dx * W
        *ldl, info = dpttrf(diag, off)
        self.ldl = self.lu = None
        if info > 0:  # S is not positive definite: pivoted LU on the same matrix
            self.lu = _lapack(dgttrf, off, diag, off)
        else:
            _check_info(dpttrf, info)
            self.ldl = ldl
        columns = [np.zeros(grid.nx)]
        if self.U is not None:
            self.eye = np.eye(self.U.shape[1])
            FU = self._fold(self.U.copy())
            Z = self._core_solve(FU.copy(order="F"))
            self.ZS = _capacitance_solve((self.eye + self.V.T @ Z).T, Z.T).T
            columns.append(FU)
        # the right-hand sides [rhs, F U] of ptsv or gtsv in Fortran order; column 0 takes each rhs
        self.block = np.asfortranarray(np.column_stack(columns))
        self.inv_bound = self._inverse_bound() if config.model == "nonlinear" else math.inf

    def _fold(self, r: np.ndarray) -> np.ndarray:
        """Apply the fold F to r in place (the rows of a 2-D r) and return it."""
        r[1] -= self.c0 * r[0]
        r[-2] -= self.cL * r[-1]
        return r

    def _core_solve(self, r: np.ndarray) -> np.ndarray:
        """S^{-1} r, overwriting r."""
        if self.lu is None:
            (x,) = _lapack(dpttrs, *self.ldl, r, overwrite_b=1)
        else:
            (x,) = _lapack(dgttrs, *self.lu, r, overwrite_b=1)
        return x

    def _inverse_bound(self) -> float:
        if self.lu is not None:
            return math.inf
        t1 = self._core_solve(self._fold(np.ones(self.tri.n)))
        bound = float(t1.max())
        if self.ZS is not None:
            TV = self._core_solve(self.V.copy(order="F"))
            TV[0] -= self.c0 * TV[1]  # F^T
            TV[-1] -= self.cL * TV[-2]
            bound += float(np.abs(self.ZS).sum(axis=1).max() * np.abs(TV).sum(axis=0).max())
        return bound

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.tri.matvec(v)
        out[1] += self.c0 * v[0]
        out[-2] += self.cL * v[-1]
        if self.U is not None:
            # np.dot, not @: matmul of an (nx, 1) U and a vector is ~3x slower at nx = 2000
            out += np.dot(self.U, np.dot(v, self.V))
        return out

    def step(self, u: np.ndarray, forcing: Optional[np.ndarray] = None) -> np.ndarray:
        """The linear step u' = C^{-1} interior(2u - C u + forcing), formed as C^{-1} b - u.

        b is 2u + forcing on the interior rows and C u on the constraint rows
        (u_0, and u_L - g(u) or u_L), so b - C u = interior(2u - C u + forcing)
        and no product with C is formed.  u'_0 = u_0 - u_0 = 0 exactly.
        """
        b = 2.0 * u
        if forcing is not None:
            b += forcing
        b[0] = u[0]
        b[-1] = u[-1] if self.gain is None else u[-1] - np.dot(self.gain, u)
        y = self.solve(b)
        y -= u
        return y

    def solve(self, rhs: np.ndarray, shift: Optional[np.ndarray] = None) -> np.ndarray:
        """Solve (C + diag(shift)) x = rhs, leaving rhs as it is; the constraint rows ignore shift."""
        if shift is None:
            y = self._core_solve(self._fold(rhs.copy()))
            if self.ZS is not None:
                y -= np.dot(self.ZS, np.dot(y, self.V))
            return y
        d = self.tri.diag.copy()
        d[1:-1] += shift[1:-1]
        X = self.block.copy(order="F")
        X[:, 0] = rhs
        self._fold(X[:, 0])
        e = self.tri.sup
        if self.lu is None:
            *_, X = _lapack(dptsv, d, e, X, overwrite_d=1, overwrite_b=1)
        else:
            *_, X = _lapack(dgtsv, e, d, e, X, overwrite_d=1, overwrite_b=1)
        y = X[:, 0]
        if self.U is None:
            return y
        YU = X[:, 1:]
        S = self.eye + self.V.T @ YU
        return y - np.dot(YU, _capacitance_solve(S, np.dot(y, self.V)))


def run_simulation(config: SimulationConfig, full_state: bool = True) -> Trajectory:
    """March the configured model from t = 0 to t = tmax.

    With ``full_state`` the trajectory keeps the (nt, nx) state history, and a
    history larger than physical memory is refused before any set-up; without
    it the march holds one block of levels and ``states`` is the final level
    alone.  Norms, controls and Newton counts are the same bits either way.
    Deterministic: identical configs produce identical trajectories.  A
    solver failure (Newton budget exhausted, non-finite state) is raised with
    the truncated trajectory attached as ``err.partial``.
    """
    config.validate()
    if full_state:
        _check_history_fits(config)
    grid = make_grid(config.length, config.nx)
    u0 = initial_state(config, grid)
    gain = _feedback_row(config, grid) if config.dynamics == "closed_loop" else None
    return _march(config, grid, u0, gain, full_state)


def _check_history_fits(config: SimulationConfig) -> None:
    """Refuse an (nt, nx) state history larger than physical memory (InvalidParameterError).

    The set-up keeps only nx x N factors, so the history is what counts.
    """
    check_fits(8 * config.nt * config.nx, f"the state history of nx = {config.nx}, nt = {config.nt}")


def _feedback_row(config: SimulationConfig, grid: Grid) -> np.ndarray:
    # a function of its own, so the set-up's temporaries are freed before the march
    kern = kernel_table(grid, config.mu, config.nu)
    return feedback_gain(kern, build_transform(kern, config.n_modes))


def _block_levels(nx: int) -> int:
    """Levels per block of the march: about BLOCK_ENTRIES / nx, at least one."""
    return max(1, BLOCK_ENTRIES // nx)


def _march(config: SimulationConfig, grid: Grid, u0: np.ndarray,
           gain: Optional[np.ndarray], full_state: bool = True) -> Trajectory:
    """March from u0 under ``config.dynamics``; ``gain`` is the closed loop's feedback row.

    Level n goes into row n % len(ring) of a ring.  The ring is the (nt, nx)
    history with ``full_state`` and one block of ``_block_levels(nx)`` levels
    otherwise.  Whenever a block fills, its norms and controls are formed
    before the ring row of its first level is written again, so both cases
    form them block by block and agree bit for bit.
    """
    P = None
    if config.dynamics == "target":
        P = projection_matrix(modal_basis(grid, config.n_modes))
    stepper = _Stepper(config, grid, P, gain)
    nt = config.nt
    block = _block_levels(grid.nx)
    ring = np.empty((nt if full_state else min(block, nt), grid.nx))
    times = np.linspace(0.0, config.tmax, nt)
    controls = np.zeros(nt)
    l2 = np.empty(nt)
    h1 = np.empty(nt)
    iters = np.zeros(nt, dtype=int)
    done = 0  # levels whose norms and controls are formed

    def flush(end: int) -> None:
        # levels done .. end - 1 lie in consecutive ring rows: done is a block start
        nonlocal done
        start = done % ring.shape[0]
        rows = ring[start:start + end - done]
        l2[done:end] = l2_norm(rows, grid)
        h1[done:end] = h1_norm(rows, grid)
        if gain is not None:
            controls[done:end] = np.einsum("ij,j->i", rows, gain)
        done = end

    def package(end: int) -> Trajectory:
        flush(end)
        states = ring[:end] if full_state else ring[(end - 1) % ring.shape[0]][None].copy()
        return Trajectory(times=times[:end], states=states, controls=controls[:end],
                          l2_norms=l2[:end], h1_norms=h1[:end], newton_iters=iters[:end])

    ring[0] = u0
    u = u0
    dt = config.dt
    x = grid.nodes
    # overflow surfaces as NonFiniteStateError below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(nt - 1):
            try:
                if config.model == "linear":
                    f = config.forcing
                    u = stepper.step(u, None if f is None else
                                     0.5 * dt * (f(x, times[n]) + f(x, times[n + 1])))
                else:
                    u, iters[n + 1] = _newton_step(stepper, u, config, n)
                if not np.isfinite(u).all():
                    raise NonFiniteStateError(n)
            except SolverError as err:
                err.partial = package(n + 1)
                raise
            if (n + 1) % block == 0:
                flush(n + 1)
            ring[(n + 1) % ring.shape[0]] = u
    return package(nt)


def _newton_step(stepper: _Stepper, u: np.ndarray, config: SimulationConfig, n: int):
    """Newton iteration for C u' + dt/2 u'^3 = 2u - C u - dt/2 u^3 on the interior rows.

    The constraint rows u'_0 = 0 and u'_L = g(u') are linear and part of C, so
    they hold after the first update.  Only the first residual is formed from
    C u: an update du from v, solved from (C + J) du = F with J = 1.5 dt v^2,
    leaves F - (C + J) du - (dt/2) du^2 (3v + du) (the last two terms on the
    interior rows), whose rounding, eps ||C||_inf max|du|, falls with du.  One
    formed from C u' would round at eps ||C||_inf max|u'|, which can keep
    max|du| above newton_tol when nu dt / dx^2 is large.  An update is
    accepted when its own max|du| <= newton_tol, or when
    ``_next_correction_bound`` certifies that the following correction would
    be at most newton_tol; that saves the confirming solve, and the accepted
    iterate then lies within newton_tol of the one the |du| test alone would
    accept.  A non-finite update raises before either test.  Cubes are
    products, not powers: libm's pow takes a slow path on the tiny values of
    a decayed state.
    """
    dt = config.dt
    tol = config.newton_tol
    Cu = stepper.matvec(u)
    cube = 0.5 * dt * (u * u * u)
    F = _interior(2.0 * u - Cu - cube) - Cu - _interior(cube)  # the residual at u' = u
    up, up2 = u, u * u
    history = []
    for p in range(config.newton_max_iter):
        shift = 1.5 * dt * up2
        du = stepper.solve(F, shift)
        prev, up = up, up + du
        up2 = up * up
        delta = float(np.abs(du).max())
        if not math.isfinite(delta):
            raise NonFiniteStateError(n)
        history.append(delta)
        F -= stepper.matvec(du) + _interior(shift * du + 0.5 * dt * (du * du * (3.0 * prev + du)))
        if delta <= tol or _next_correction_bound(stepper.inv_bound, F, up2, dt) <= tol:
            return up, p + 1
    raise NewtonDivergenceError(n, history)


def _next_correction_bound(inv_bound: float, F: np.ndarray, up2: np.ndarray, dt: float) -> float:
    """Bound on max|du'| for the Newton correction du' that solves against the residual F at up.

    ``up2`` is up^2.  With K_C = ``inv_bound`` >= ||C^{-1}||_inf,
    ||(C + 1.5 dt up^2)^{-1}||_inf <= K_J = K_C / (1 - K_C 1.5 dt max up^2) when
    the denominator is positive, so max|du'| <= K_J ||F||_inf (up to rounding
    in the solve); otherwise inf.
    """
    if inv_bound == math.inf:
        return math.inf
    gap = 1.0 - inv_bound * 1.5 * dt * float(up2.max())
    return inv_bound * float(np.abs(F).max()) / gap if gap > 0.0 else math.inf


def run_target_consistency(config: SimulationConfig):
    """Run the closed loop and the homogeneous target side by side.

    Returns (plant trajectory, target trajectory, mismatch) where
    mismatch[n] = ||u^n - T w^n||_2 / ||u0||_2 with w0 = (I - Phi) u0.
    """
    config.validate()
    _check_history_fits(config)
    if config.model != "linear":
        raise InvalidParameterError("target consistency is defined for the linear model")
    grid = make_grid(config.length, config.nx)
    u0 = initial_state(config, grid)
    denom = l2_norm(u0, grid)
    if denom == 0.0:
        raise InvalidParameterError("zero initial state has no relative mismatch")
    kern = kernel_table(grid, config.mu, config.nu)
    tset = build_transform(kern, config.n_modes)
    traj_u = _march(replace(config, dynamics="closed_loop"), grid, u0, feedback_gain(kern, tset))
    traj_w = _march(replace(config, dynamics="target"), grid, inverse_transform(tset, u0), None)
    mismatch = l2_norm(traj_u.states - forward_transform(tset, traj_w.states), grid) / denom
    return traj_u, traj_w, mismatch
