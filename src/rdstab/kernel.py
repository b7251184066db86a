"""Gain kernel k(x, y) of the boundary feedback transform.

The kernel solves the hyperbolic boundary-value problem

    nu * (k_xx - k_yy) + mu * k = 0   on the triangle 0 <= y <= x <= L,
    k(x, 0) = 0,   k(x, x) = -mu * x / (2 * nu),

and has the explicit power series

    k(x, y) = -(mu * y) / (2 * nu)
              * sum_{m >= 0} (-mu / (4 nu))^m (x^2 - y^2)^m / (m! (m+1)!).

``kernel_series`` sums the series at one point, term by term.
``kernel_table`` only checks mu and nu and returns a ``Kernel``, a handle of
(mu, nu, grid).  The set-up needs the kernel only through Upsilon W, which
``transform`` forms in closed form from mu and nu, so no design, scan or
simulation forms the series.  It is formed on first read, as coefficients in
zeta = (x^2 - y^2) / L^2, which lies in [0, 1] on the triangle:
c_m = (-mu L^2 / (4 nu))^m / (m! (m+1)!).  The c_m are built recursively,
since explicit factorials overflow doubles near m = 85; because zeta <= 1,
a coefficient can only underflow once its term is already negligible.  The
same recurrence picks the truncation order M, in O(nx M): it stops at the
first M whose next term on the x = L row is below DEFAULT_KERNEL_TOL, and
reports that term as the achieved gap.  The nx x nx table is formed from
the coefficients by Horner's scheme in zeta only when ``Kernel.values`` is
read (the kernel dump, the PDE residual check and dense reference code).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import BLOCK_ENTRIES, DEFAULT_KERNEL_TOL, KERNEL_MAX_ORDER
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    InvalidParameterError,
    check_fits,
    check_scalars,
)
from .grid import Grid

__all__ = [
    "Kernel",
    "kernel_series",
    "kernel_table",
    "kernel_pde_residual",
]


def kernel_series(x: float, y: float, mu: float, nu: float, order: int) -> float:
    """Partial sum of the kernel series at a single point.

    Parameters
    ----------
    x, y : float
        Evaluation point with 0 <= y <= x.
    mu, nu : float
        Damping coefficient and diffusivity.
    order : int
        Number of series terms beyond the leading one (M >= 0).

    Returns
    -------
    float
        k^M(x, y).
    """
    check_scalars(nu=nu, mu=mu, positive=("nu",))
    if order < 0:
        raise InvalidParameterError(f"truncation order must be >= 0, got {order}")
    if y < 0 or y > x:
        raise DomainError(f"point (x={x}, y={y}) outside the triangle 0 <= y <= x")
    z = (x - y) * (x + y)
    q = -mu / (4.0 * nu)
    term = 1.0
    total = 1.0
    for m in range(order):
        term *= q * z / ((m + 1) * (m + 2))
        total += term
    return -(mu * y) / (2.0 * nu) * total


@dataclass(frozen=True)
class Kernel:
    """The kernel of one (mu, nu) on the grid's lower triangle: a handle of mu, nu and grid.

    The truncated series (``coeffs``, ``order``, ``achieved_delta``) is formed
    together on the first read of any of them, and the nx x nx table on the
    first read of ``values``; a series that does not reach DEFAULT_KERNEL_TOL
    within KERNEL_MAX_ORDER terms raises ConvergenceError there.

    Attributes
    ----------
    coeffs : ndarray
        c_0..c_M, so that k^M(x_i, y_j) = -(mu y_j / (2 nu)) sum_m c_m zeta_ij^m
        with zeta_ij = (x_i^2 - y_j^2) / L^2; read-only.
    order : int
        Truncation order M.
    achieved_delta : float
        max |k^{M+1} - k^M| actually reached over the triangle, below
        DEFAULT_KERNEL_TOL.
    """

    mu: float
    nu: float
    grid: Grid

    @cached_property
    def _series(self) -> tuple[np.ndarray, int, float]:
        """(coeffs, order, achieved_delta) to the smallest order that meets DEFAULT_KERNEL_TOL.

        One recurrence forms c_0, c_1, ... and the next series term on the
        x = L row, where the gap max |k^{M+1} - k^M| over the triangle is
        attained (the term grows with x at fixed y).
        """
        L2 = self.grid.length**2
        q = -self.mu * L2 / (4.0 * self.nu)
        y = self.grid.nodes
        prefactor = -(self.mu * y) / (2.0 * self.nu)
        zeta_top = (L2 - y * y) / L2
        coeffs = [1.0]
        # overflow for absurd mu/nu just keeps the loop running into the cap error
        with np.errstate(over="ignore", invalid="ignore"):
            for order in range(KERNEL_MAX_ORDER + 1):
                c_next = coeffs[-1] * q / ((order + 1) * (order + 2))
                gap = float(np.max(np.abs(prefactor * c_next * zeta_top ** (order + 1))))
                if gap < DEFAULT_KERNEL_TOL:
                    break
                coeffs.append(c_next)
            else:
                raise ConvergenceError(
                    f"kernel series did not reach tol={DEFAULT_KERNEL_TOL:.1e} "
                    f"within {KERNEL_MAX_ORDER} terms"
                )
        kept = np.array(coeffs)
        kept.flags.writeable = False
        return kept, order, gap

    coeffs = property(lambda self: self._series[0])
    order = property(lambda self: self._series[1])
    achieved_delta = property(lambda self: self._series[2])

    def _horner(self, zeta: np.ndarray) -> np.ndarray:
        """sum_m c_m zeta^m by Horner's scheme, elementwise."""
        out = np.full_like(zeta, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out *= zeta
            out += c
        return out

    @cached_property
    def values(self) -> np.ndarray:
        """N_x x N_x table of k^M(x_i, y_j), 0 above the diagonal; read-only.

        Formed on first access, by Horner's scheme over the lower triangle in
        row blocks of about BLOCK_ENTRIES entries.  Only the kernel dump, the
        PDE residual and the dense reference operators read it.  A table
        larger than physical memory is refused with InvalidParameterError.
        """
        g = self.grid
        check_table_fits(g.nx)
        y = g.nodes
        L2 = g.length**2
        prefactor = -(self.mu * y) / (2.0 * self.nu)
        values = np.zeros((g.nx, g.nx))
        rows = max(1, BLOCK_ENTRIES // g.nx)
        for start in range(0, g.nx, rows):
            stop = min(start + rows, g.nx)
            x = y[start:stop, None]
            block = self._horner((x - y[:stop]) * (x + y[:stop]) / L2)
            block *= prefactor[:stop]
            values[start:stop, :stop] = np.tril(block, start)
        values.flags.writeable = False
        return values


def check_table_fits(nx: int) -> None:
    """Refuse an nx x nx kernel table larger than physical memory (InvalidParameterError)."""
    check_fits(8 * nx * nx, f"a {nx} x {nx} kernel table")


def kernel_table(grid: Grid, mu: float, nu: float) -> Kernel:
    """The kernel of (mu, nu) on ``grid``: checks the scalars and builds the handle, no series."""
    check_scalars(nu=nu, mu=mu, positive=("nu",))
    return Kernel(mu=float(mu), nu=float(nu), grid=grid)


def kernel_pde_residual(kernel: Kernel) -> float:
    """Max residual |nu (k_xx - k_yy) + mu k| at interior triangle nodes.

    Second derivatives are central differences.  Only nodes at least two
    indices below the diagonal and one away from the outer edges are used,
    so the stencil never leaves the tabulated triangle.
    """
    g = kernel.grid
    if g.nx < 5:
        raise DimensionError("residual needs at least 5 nodes")
    k = kernel.values
    inv = 1.0 / g.dx**2
    kxx = (k[2:, 1:-1] - 2.0 * k[1:-1, 1:-1] + k[:-2, 1:-1]) * inv
    kyy = (k[1:-1, 2:] - 2.0 * k[1:-1, 1:-1] + k[1:-1, :-2]) * inv
    res = kernel.nu * (kxx - kyy) + kernel.mu * k[1:-1, 1:-1]
    # center (i, j) with 1 <= j <= i - 2 in 0-based full-table indices
    i_idx = np.arange(1, g.nx - 1)[:, None]
    j_idx = np.arange(1, g.nx - 1)[None, :]
    mask = j_idx <= i_idx - 2
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(res[mask])))
