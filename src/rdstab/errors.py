"""Exception hierarchy for the package.

Errors fall into two families: parameter/usage errors (subclasses of
``InvalidParameterError``, which is a ``ValueError``) and runtime failures of
the numerical machinery (subclasses of ``SolverError``).  Each class carries
the process exit code the CLI returns for it as ``exit_code``: 2 for invalid
parameters, 3 for an inadmissible (mu, N) pair, 4 for every other package
error (solver, Newton, non-finite state, fit).
"""

import math
import numbers
import os
from typing import Optional

__all__ = [
    "RdstabError",
    "InvalidParameterError",
    "DimensionError",
    "ResolutionError",
    "InfeasibleRateError",
    "DegenerateSpectrumError",
    "InadmissiblePairError",
    "SolverError",
    "ConvergenceError",
    "NewtonDivergenceError",
    "NonFiniteStateError",
    "FitError",
]


class RdstabError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 4


class InvalidParameterError(RdstabError, ValueError):
    """A scalar or configuration argument is outside its documented range."""

    exit_code = 2


class DimensionError(InvalidParameterError):
    """Array arguments do not match the grid or each other in shape."""


class ResolutionError(InvalidParameterError):
    """The grid is too coarse for the requested number of modes."""


class InfeasibleRateError(InvalidParameterError):
    """No mode count / damping coefficient can meet the requested rate."""


class DegenerateSpectrumError(InvalidParameterError):
    """alpha/nu coincides with a Dirichlet eigenvalue; the minimal-mode
    design is not defined there."""


class InadmissiblePairError(RdstabError):
    """The damping/mode-count pair makes the transform non-invertible.

    Raised when a recursion scalar a_j comes within ``admissibility_floor``
    of -1.  Carries the offending index and value.
    """

    exit_code = 3

    def __init__(self, index: int, value: float, floor: float):
        self.index = index
        self.value = value
        self.floor = floor
        super().__init__(
            f"inadmissible pair: |1 + a_{index}| = {abs(1.0 + value):.3e} "
            f"<= floor {floor:.1e} (a_{index} = {value!r})"
        )


class SolverError(RdstabError):
    """A linear or nonlinear solve failed at run time."""


class ConvergenceError(SolverError):
    """An iterative computation did not converge within its guard limit."""


class NewtonDivergenceError(SolverError):
    """The per-step Newton iteration exceeded its iteration budget.

    Carries the history of max|du| values for diagnosis.
    """

    def __init__(self, step: int, history):
        self.step = step
        self.history = list(history)
        tail = ", ".join(f"{h:.3e}" for h in self.history[-4:])
        super().__init__(
            f"Newton iteration did not converge at time step {step} "
            f"(last corrections: {tail})"
        )


class NonFiniteStateError(SolverError):
    """A time step produced a non-finite state (overflow or NaN)."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"state became non-finite at time step {step}")


class FitError(SolverError):
    """Decay-rate fitting failed (window too short or norms at machine zero)."""


def check_integers(**values: int) -> None:
    """Reject sizes and counts that are not integers (NumPy's included), and bools.

    Raises :class:`InvalidParameterError` naming the first offending value.
    """
    for name, value in values.items():
        # a plain int skips the slower abstract-class check
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


def check_scalars(positive=(), **values: float) -> None:
    """Reject values that are not real numbers (bools included) or not finite,
    and non-positive ones among ``positive``; a plain float skips the type checks.

    Raises :class:`InvalidParameterError` naming the first offending value.
    """
    for name, value in values.items():
        if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value}")
    for name in positive:
        if values[name] <= 0:
            raise InvalidParameterError(f"{name} must be positive, got {values[name]}")


def _physical_memory() -> Optional[int]:
    """Physical memory in bytes, or None where sysconf does not report it."""
    try:
        size = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return size if size > 0 else None


def check_fits(need: int, what: str) -> None:
    """Refuse ``need`` bytes above physical memory, before anything is allocated.

    Raises :class:`InvalidParameterError`; the check is skipped where the
    platform does not report its memory.
    """
    have = _physical_memory()
    if have is not None and need > have:
        raise InvalidParameterError(
            f"{what} needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def check_run_fits(nx: int, n_modes: int, nt: int = 0, histories: int = 0) -> None:
    """Refuse a set-up, scan or march larger than physical memory, before anything is allocated.

    Counts 8-byte entries: the nt-long records of a march (times, controls,
    two norms, Newton counts), the ``histories`` (nt, nx) arrays held at once
    (one for a run that keeps its state history), and a working set of
    8 N + 32 vectors of nx (the nx x N factors and the march's vectors;
    8 N + 17 measured under tracemalloc).
    """
    need = 8 * (5 * nt + nx * (8 * n_modes + 32) + histories * nt * nx)
    check_fits(need, f"a problem of nx = {nx}, N = {n_modes}" + (f", nt = {nt}" if nt else "")
               + (f" holding {histories} (nt, nx) arrays" if histories else ""))
