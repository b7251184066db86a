"""Dirichlet sine modes, eigenvalues, and the discrete modal projection.

The eigenpairs of -d^2/dx^2 on (0, L) with zero boundary values are
lambda_n = (n pi / L)^2 and e_n = sqrt(2/L) sin(n pi x / L).  The discrete
projection onto the first N modes is P = dx * W @ W.T where W samples the
modes on the grid.  P has rank N and is applied in that factored form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import MAX_MODE_FRACTION
from .errors import InvalidParameterError, ResolutionError, check_integers
from .grid import Grid

__all__ = [
    "ModalBasis",
    "ProjectionMatrix",
    "eigenvalue",
    "modal_basis",
    "projection_matrix",
]


def eigenvalue(j: int, length: float) -> float:
    """Dirichlet eigenvalue lambda_j = (j pi / L)^2."""
    if j < 1:
        raise InvalidParameterError(f"mode index must be >= 1, got {j}")
    if not 0.0 < length < math.inf:
        raise InvalidParameterError(f"domain length must be finite and positive, got {length}")
    return (j * np.pi / length) ** 2


@dataclass(frozen=True)
class ModalBasis:
    """First N sine modes sampled on a grid.

    Attributes
    ----------
    W : ndarray
        N_x x N matrix, column n-1 holds sqrt(2/L) sin(n pi x / L).
    eigenvalues : ndarray
        lambda_1 .. lambda_N.
    """

    grid: Grid
    n_modes: int
    W: np.ndarray = field(init=False, repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lam = mode_eigenvalues(self.grid, self.n_modes)
        L = self.grid.length
        n = np.arange(1, self.n_modes + 1)
        W = np.sqrt(2.0 / L) * np.sin(np.outer(self.grid.nodes, n) * np.pi / L)
        W.flags.writeable = False
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "eigenvalues", lam)

    def mode(self, n: int) -> np.ndarray:
        """Samples of e_n on the grid, 1-based."""
        if not 1 <= n <= self.n_modes:
            raise InvalidParameterError(f"mode {n} outside 1..{self.n_modes}")
        return self.W[:, n - 1]


def mode_eigenvalues(grid: Grid, n_modes: int) -> np.ndarray:
    """lambda_1 .. lambda_N of the first ``n_modes`` modes, without sampling them.

    Refuses a count below one or more than the grid resolves, as
    ``modal_basis`` does.
    """
    if n_modes < 1:
        raise InvalidParameterError(f"need at least one mode, got {n_modes}")
    if n_modes > MAX_MODE_FRACTION * grid.nx:
        raise ResolutionError(
            f"{n_modes} modes under-resolved on {grid.nx} nodes "
            f"(limit {int(MAX_MODE_FRACTION * grid.nx)})"
        )
    lam = (np.arange(1, n_modes + 1) * np.pi / grid.length) ** 2
    lam.flags.writeable = False
    return lam


def modal_basis(grid: Grid, n_modes: int) -> ModalBasis:
    """Build the modal matrix for the first ``n_modes`` sine modes; ``n_modes`` must be an integer."""
    check_integers(n_modes=n_modes)
    return ModalBasis(grid=grid, n_modes=int(n_modes))


@dataclass(frozen=True)
class ProjectionMatrix:
    """Discrete projection P = dx * W @ W.T onto the retained modes.

    ``apply`` works on the factors in O(nx N); ``matrix`` is the dense
    nx x nx array, formed on first access for dense reference operators.
    """

    basis: ModalBasis

    @cached_property
    def matrix(self) -> np.ndarray:
        P = self.basis.grid.dx * (self.basis.W @ self.basis.W.T)
        # force exact symmetry; BLAS products are not bit-symmetric
        P = np.triu(P) + np.triu(P, 1).T
        P.flags.writeable = False
        return P

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = self.basis.grid.check_vector(v)
        W = self.basis.W
        return self.basis.grid.dx * (W @ (W.T @ v))


def projection_matrix(basis: ModalBasis) -> ProjectionMatrix:
    """Projection onto the modes of a basis; the dense matrix is formed lazily."""
    return ProjectionMatrix(basis=basis)
