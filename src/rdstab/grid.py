"""Uniform grid, composite trapezoidal quadrature, and discrete norms.

The whole package works on one uniform grid x_i = (i - 1) * dx with
dx = L / (N_x - 1), matching the discretization every other module builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidParameterError

__all__ = [
    "Grid",
    "Tridiagonal",
    "make_grid",
    "trapezoid_weights",
    "trapezoid",
    "inner_product",
    "l2_norm",
    "h1_norm",
    "laplacian_matrix",
]


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, L] into N_x nodes.

    Attributes
    ----------
    length : float
        Domain length L.
    nx : int
        Node count, at least 2.
    dx : float
        Spacing L / (nx - 1).
    nodes : ndarray
        x_i = (i - 1) * dx; nodes[0] = 0 and nodes[-1] = L.  It follows from
        the other fields, so grids compare and hash by (length, nx, dx).
    """

    length: float
    nx: int
    dx: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.length <= 0:
            raise InvalidParameterError(f"domain length must be positive, got {self.length}")
        if self.nx < 2:
            raise InvalidParameterError(f"need at least 2 nodes, got {self.nx}")
        dx = self.length / (self.nx - 1)
        nodes = np.linspace(0.0, self.length, self.nx)
        nodes.flags.writeable = False
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "nodes", nodes)

    def check_vector(self, values: np.ndarray) -> np.ndarray:
        """Validate that ``values`` is a vector on this grid."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.nx,):
            raise DimensionError(
                f"expected vector of length {self.nx}, got shape {values.shape}"
            )
        return values

    def check_stack(self, values: np.ndarray) -> np.ndarray:
        """Validate a vector on this grid or a (k, nx) stack of them."""
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != self.nx:
            raise DimensionError(
                f"expected length-{self.nx} vectors, got shape {values.shape}"
            )
        return values


def make_grid(length: float, nx: int) -> Grid:
    """Build the uniform grid on [0, length] with ``nx`` nodes."""
    return Grid(length=float(length), nx=int(nx))


def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Composite trapezoid weights: dx everywhere, halved at both ends."""
    w = np.full(grid.nx, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def trapezoid(values: np.ndarray, grid: Grid) -> float:
    """Composite trapezoidal rule for nodal values on the grid."""
    values = grid.check_vector(values)
    return float(np.dot(trapezoid_weights(grid), values))


def inner_product(u: np.ndarray, v: np.ndarray, grid: Grid) -> float:
    """Discrete L2 inner product (u, v) by the trapezoidal rule."""
    u = grid.check_vector(u)
    v = grid.check_vector(v)
    return float(np.dot(trapezoid_weights(grid) * u, v))


def l2_norm(values: np.ndarray, grid: Grid):
    """Discrete L2 norm induced by :func:`inner_product`.

    A float for one vector; an array of row norms for a (k, nx) stack.  A row
    whose squares overflow or underflow is rescaled (see :func:`_rescale`).
    """
    values = grid.check_stack(values)
    with np.errstate(over="ignore"):  # rescaled below
        out = np.sqrt(np.einsum("...i,...i,i->...", values, values, trapezoid_weights(grid)))
    out = _rescale(np.atleast_1d(out), values, lambda v: l2_norm(v, grid))
    return float(out[0]) if values.ndim == 1 else out


def h1_norm(values: np.ndarray, grid: Grid):
    """Discrete H1 norm: L2 part plus forward-difference derivative part.

    The derivative part is dx * sum_i ((v_{i+1} - v_i)/dx)^2, the cheapest
    consistent realization of the continuum seminorm.  A float for one
    vector; an array of row norms for a (k, nx) stack.  A row whose squares
    overflow or underflow is rescaled (see :func:`_rescale`).
    """
    values = grid.check_stack(values)
    with np.errstate(over="ignore", invalid="ignore"):  # rescaled below; inf - inf is nan
        diff = np.diff(np.atleast_2d(values), axis=-1)
        semi = np.einsum("ij,ij->i", diff, diff)
        out = np.sqrt(np.square(l2_norm(values, grid)) + semi / grid.dx)
    out = _rescale(out, values, lambda v: h1_norm(v, grid))
    return float(out[0]) if values.ndim == 1 else out


# a norm below this may have lost bits to underflow in its squares
_TINY_NORM = math.sqrt(np.finfo(float).tiny)


def _rescale(out: np.ndarray, values: np.ndarray, norm) -> np.ndarray:
    """Recompute the entries of ``out`` whose squares overflowed or underflowed.

    Those are the entries that are inf or below sqrt(tiny) while their rows
    are finite and nonzero; as in dnrm2, such a row v has its norm taken as
    s * norm(v / s) with s = max|v|.  Every other entry keeps its bits.
    """
    stack = np.atleast_2d(values)
    for i in np.flatnonzero(np.isinf(out) | (out < _TINY_NORM)):
        s = float(np.abs(stack[i]).max())  # NaN for a row holding NaN
        if 0.0 < s < math.inf:
            out[i] = s * norm(stack[i] / s)
    return out


@dataclass(frozen=True)
class Tridiagonal:
    """Tridiagonal matrix stored as its three diagonals.

    ``sub`` and ``sup`` have length n - 1, ``diag`` has length n.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def to_dense(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.sub, -1)
            + np.diag(self.sup, 1)
        )

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[1:] += self.sub * v[:-1]
        out[:-1] += self.sup * v[1:]
        return out


def laplacian_matrix(grid: Grid) -> Tridiagonal:
    """Central-difference Laplacian with identity boundary rows.

    Interior rows implement (v_{i-1} - 2 v_i + v_{i+1}) / dx^2.  The first
    and last rows are identity rows; boundary values are imposed
    algebraically by the simulator.
    """
    if grid.nx < 3:
        raise InvalidParameterError("Laplacian needs at least 3 nodes")
    inv = 1.0 / grid.dx**2
    diag = np.full(grid.nx, -2.0 * inv)
    sub = np.full(grid.nx - 1, inv)
    sup = np.full(grid.nx - 1, inv)
    diag[0] = diag[-1] = 1.0
    sup[0] = 0.0
    sub[-1] = 0.0
    return Tridiagonal(sub=sub, diag=diag, sup=sup)
