"""Gain kernel k(x, y) of the boundary feedback transform.

The kernel solves the hyperbolic boundary-value problem

    nu * (k_xx - k_yy) + mu * k = 0   on the triangle 0 <= y <= x <= L,
    k(x, 0) = 0,   k(x, x) = -mu * x / (2 * nu),

and has the closed form (Smyshlyaev & Krstic, IEEE TAC 49(12), 2004)

    k(x, y) = -(mu * y) / (2 * nu) * 2 J_1(w) / w,   w^2 = (mu / nu) (x^2 - y^2),

with I_1 and |mu| in w for mu < 0, and -(mu * y) / (2 * nu) where w = 0.
``kernel_table`` only checks mu and nu and returns a ``Kernel``, a handle of
(mu, nu, grid).  The set-up needs the kernel only through Upsilon W, which
``transform`` forms in closed form from mu and nu, so no design, scan or
simulation reads the kernel.  The nx x nx table is formed from the closed
form only when ``Kernel.values`` is read (the kernel dump, the PDE residual
check and dense reference code).  The handle also reports the truncation
order M of the paper's power series, formed by one O(nx M) recurrence that
nothing in the package reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import BLOCK_ENTRIES, DEFAULT_KERNEL_TOL, KERNEL_MAX_ORDER
from .errors import (
    ConvergenceError,
    DimensionError,
    InvalidParameterError,
    check_fits,
    check_scalars,
)
from .grid import Grid

__all__ = [
    "Kernel",
    "kernel_table",
    "kernel_pde_residual",
]


@dataclass(frozen=True)
class Kernel:
    """The kernel of one (mu, nu) on the grid's lower triangle: a handle of mu, nu and grid.

    The nx x nx table is formed on the first read of ``values``, and the
    series' order on the first read of ``order``; a series that does not
    reach DEFAULT_KERNEL_TOL within KERNEL_MAX_ORDER terms raises
    ConvergenceError there, and only there.
    """

    mu: float
    nu: float
    grid: Grid

    @cached_property
    def order(self) -> int:
        """Truncation order M of the series: the smallest that meets DEFAULT_KERNEL_TOL.

        One recurrence forms c_m = (-mu L^2 / (4 nu))^m / (m! (m+1)!), the
        coefficient of zeta^m with zeta = (x^2 - y^2) / L^2 (explicit
        factorials overflow near m = 85), and the next term on the x = L row,
        where the gap max |k^{M+1} - k^M| is attained.
        """
        L2 = self.grid.length**2
        q = -self.mu * L2 / (4.0 * self.nu)
        y = self.grid.nodes
        prefactor = -(self.mu * y) / (2.0 * self.nu)
        zeta_top = (L2 - y * y) / L2
        c_m = 1.0
        # overflow for absurd mu/nu just keeps the loop running into the cap error
        with np.errstate(over="ignore", invalid="ignore"):
            for order in range(KERNEL_MAX_ORDER + 1):
                c_m = c_m * q / ((order + 1) * (order + 2))
                if np.max(np.abs(prefactor * c_m * zeta_top ** (order + 1))) < DEFAULT_KERNEL_TOL:
                    return order
        raise ConvergenceError(
            f"kernel series did not reach tol={DEFAULT_KERNEL_TOL:.1e} "
            f"within {KERNEL_MAX_ORDER} terms"
        )

    @cached_property
    def values(self) -> np.ndarray:
        """N_x x N_x table of k(x_i, y_j), 0 above the diagonal; read-only.

        Formed on first access from the closed form over the lower triangle,
        in row blocks of about BLOCK_ENTRIES entries.  A table larger than
        physical memory, or one that overflows a double (large mu < 0), is
        refused with InvalidParameterError.
        """
        # imported here alone: ``import rdstab`` does not load scipy.special,
        # which would add about 2.5 MB to the peak memory of every run
        from scipy.special import i1, j1

        g = self.grid
        check_table_fits(g.nx)
        y = g.nodes
        scale = abs(self.mu) / self.nu
        bessel = j1 if self.mu > 0 else i1
        prefactor = -(self.mu * y) / (2.0 * self.nu)
        values = np.zeros((g.nx, g.nx))
        rows = max(1, BLOCK_ENTRIES // g.nx)
        # w is NaN above the diagonal (tril drops it) and 2 J_1(w) / w is 0/0 on
        # it (set to 1); an entry that overflows is refused below
        with np.errstate(invalid="ignore", over="ignore"):
            for start in range(0, g.nx, rows):
                stop = min(start + rows, g.nx)
                x = y[start:stop, None]
                w = np.sqrt(scale * ((x - y[:stop]) * (x + y[:stop])))
                ratio = 2.0 * bessel(w) / w
                ratio[w == 0.0] = 1.0
                values[start:stop, :stop] = np.tril(prefactor[:stop] * ratio, start)
                if not np.isfinite(values[start:stop, :stop]).all():
                    raise InvalidParameterError(
                        f"the kernel of mu={self.mu}, nu={self.nu} on length {g.length} "
                        "overflows a double"
                    )
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
