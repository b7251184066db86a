"""Design formulas and the boundary feedback law.

Closed-form pieces: the rapid decay rate gamma, the minimal-mode rate rho,
the mode-count condition, the minimal-mode mu-interval, the nonlinear
smallness threshold, and the Bernoulli decay envelope.

``design_fixed``, ``design_rapid`` and ``design_minimal`` only differ in the
(mu, N) candidates they propose.  One search builds each candidate's
transform in turn and reports the first admissible one, with the smallness
bound at margin SMALLNESS_MARGIN and constant GN_CONSTANT_DEFAULT if asked.
A pair is admissible when every |1 + a_j| exceeds ADMISSIBILITY_FLOOR;
the floor is fixed.  No design forms the kernel series: the transform
reads the kernel for mu, nu and the grid alone.

The feedback value applied at the right boundary is

    g(u) = integral_0^L k(L, y) [P_N (I - Phi_N) u](y) dy = (Phi_N u)(L),

the last row of Phi_N, since (T - I)(I - Phi_N) = Phi_N.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Optional

import numpy as np

from .constants import GN_CONSTANT_DEFAULT, MODE_SEARCH_CAP, SMALLNESS_MARGIN
from .errors import (
    DegenerateSpectrumError,
    DimensionError,
    InadmissiblePairError,
    InfeasibleRateError,
    InvalidParameterError,
    check_integers,
    check_scalars,
)
from .grid import make_grid
from .kernel import Kernel, kernel_table
from .spectral import eigenvalue
from .transform import TransformSet, build_transform, operator_norms

__all__ = [
    "DesignReport",
    "gamma_rate",
    "rho_rate",
    "min_modes_rapid",
    "instability_level",
    "minimal_mode_setup",
    "smallness_threshold",
    "c1_constant",
    "bernoulli_envelope",
    "feedback_gain",
    "design_fixed",
    "design_rapid",
    "design_minimal",
]

# perturbation factors tried when the first (mu, N) candidate is inadmissible
RETRY_FACTORS = (1.0, 1.05, 0.95, 1.10, 0.90, 1.15)


def _check_coeffs(nu: float, alpha: float, length: float, **more: float) -> None:
    check_scalars(nu=nu, alpha=alpha, length=length, positive=("nu", "length"), **more)


def _check_modes(n_modes: int) -> None:
    check_integers(n_modes=n_modes)
    if n_modes < 1:
        raise InvalidParameterError(f"need at least one mode, got {n_modes}")


def gamma_rate(nu: float, alpha: float, mu: float, n_modes: int, length: float = 1.0) -> float:
    """Guaranteed decay rate of the rapid design: nu*lam1 - alpha + mu*(1 - 1/(N+1)).

    A negative return means the chosen (mu, N) does not stabilize.
    """
    _check_coeffs(nu, alpha, length, mu=mu)
    _check_modes(n_modes)
    lam1 = eigenvalue(1, length)
    return nu * lam1 - alpha + mu * (1.0 - 1.0 / (n_modes + 1))


def rho_rate(nu: float, alpha: float, mu: float, n_modes: int, length: float = 1.0) -> float:
    """Decay rate of the minimal-mode design: nu*lam1 - alpha + (mu/2)(1 - 1/(N+1)^2)."""
    _check_coeffs(nu, alpha, length, mu=mu)
    _check_modes(n_modes)
    lam1 = eigenvalue(1, length)
    return nu * lam1 - alpha + 0.5 * mu * (1.0 - 1.0 / (n_modes + 1) ** 2)


def min_modes_rapid(nu: float, alpha: float, mu: float, length: float = 1.0) -> int:
    """Smallest mode count satisfying the rapid-design condition.

    The condition is N > max{mu/(2 nu lam1) - 1, mu/(mu + nu lam1 - alpha) - 1},
    floored at 1.  The second expression requires mu > alpha - nu lam1.
    """
    _check_coeffs(nu, alpha, length, mu=mu)
    if mu < 0:
        raise InvalidParameterError(f"negative feedback gain {mu}")
    lam1 = eigenvalue(1, length)
    denom = mu + nu * lam1 - alpha
    if denom <= 0:
        raise InfeasibleRateError(
            f"mu = {mu} does not exceed alpha - nu*lambda_1 = {alpha - nu * lam1}; "
            "no mode count can certify decay"
        )
    bound = max(mu / (2.0 * nu * lam1) - 1.0, mu / denom - 1.0)
    n = max(1, math.floor(bound) + 1)
    if n > MODE_SEARCH_CAP:
        raise InfeasibleRateError(
            f"mode-count condition needs N = {n} > cap {MODE_SEARCH_CAP}; "
            "the requested rate sits too close to the feasibility boundary"
        )
    return n


def instability_level(nu: float, alpha: float, length: float = 1.0) -> int:
    """Number of modes j with nu*lambda_j < alpha (the open-loop unstable ones)."""
    _check_coeffs(nu, alpha, length)
    if alpha <= 0:
        return 0
    m = int(math.floor(length * math.sqrt(alpha / nu) / math.pi))
    # fix up floating-point boundary wobble; the inequality is strict
    while m >= 1 and not (nu * eigenvalue(m, length) < alpha):
        m -= 1
    while nu * eigenvalue(m + 1, length) < alpha:
        m += 1
    return m


def minimal_mode_setup(nu: float, alpha: float, length: float = 1.0):
    """Mode count and mu-interval for the minimal-mode design.

    Returns (N, (mu_lo, mu_hi), rho at the interval midpoint).  N is the
    instability level; N = 0 means the plant is already stable and the
    interval degenerates to (0, 2 nu lam1) with the plant's own rate.

    Raises
    ------
    DegenerateSpectrumError
        If alpha/nu coincides with an eigenvalue within 1e-12 relative;
        the instability level is then ill-defined.
    """
    _check_coeffs(nu, alpha, length)
    ratio = alpha / nu
    if ratio > 0:
        j_near = max(1, int(round(length * math.sqrt(ratio) / math.pi)))
        for j in (j_near - 1, j_near, j_near + 1):
            if j < 1:
                continue
            lam = eigenvalue(j, length)
            if abs(ratio - lam) <= 1e-12 * max(1.0, abs(lam)):
                raise DegenerateSpectrumError(
                    f"alpha/nu = {ratio} coincides with eigenvalue {j} "
                    f"(lambda_{j} = {lam}); instability level undefined"
                )
    n = instability_level(nu, alpha, length)
    lam1 = eigenvalue(1, length)
    if n == 0:
        # stable plant: any mu below the spectral gap keeps the pair admissible
        interval = (0.0, 2.0 * nu * lam1)
        return 0, interval, nu * lam1 - alpha
    lo = 2.0 * (alpha - nu * lam1) / (1.0 - 1.0 / (n + 1) ** 2)
    hi = 2.0 * nu * eigenvalue(n + 1, length)
    lo = max(lo, 0.0)
    if not (lo < hi):
        raise InfeasibleRateError(
            f"empty mu-interval ({lo}, {hi}) at instability level {n}"
        )
    mid = 0.5 * (lo + hi)
    return n, (lo, hi), rho_rate(nu, alpha, mid, n, length)


def smallness_threshold(
    nu: float,
    alpha: float,
    mu: float,
    n_modes: int,
    deriv_order: int,
    d: float,
    c0: float,
    c1: float,
    norm_tinv: float,
    length: float = 1.0,
):
    """Domain-of-attraction radius for the nonlinear closed loop.

    Returns (eps, bound) where the guarantee holds whenever the squared
    norm of the initial state (deriv_order = 0) or its derivative
    (deriv_order = 1) is at most ``bound``.  eps maximizes
    eps*(2*gamma - eps*lam1) subject to eps*lam1 <= max{nu - mu/(N+1), 2*gamma}.
    """
    if deriv_order not in (0, 1):
        raise InvalidParameterError(f"derivative order must be 0 or 1, got {deriv_order}")
    if not (0.0 < d < 1.0):
        raise InvalidParameterError(f"margin d must lie in (0, 1), got {d}")
    check_scalars(c0=c0, c1=c1, norm_tinv=norm_tinv)
    if c0 <= 0 or c1 <= 0 or norm_tinv <= 0:
        raise InvalidParameterError("operator-norm constants must be positive")
    gamma = gamma_rate(nu, alpha, mu, n_modes, length)
    if gamma <= 0:
        raise InfeasibleRateError(
            f"gamma = {gamma} is not positive; no attraction radius exists"
        )
    lam1 = eigenvalue(1, length)
    cap = max(nu - mu / (n_modes + 1), 2.0 * gamma)
    if cap <= 0:
        raise InfeasibleRateError("empty constraint window for eps")
    eps = min(gamma / lam1, cap / lam1)
    val = eps * (2.0 * gamma - eps * lam1)
    bound = d * math.sqrt(val) * lam1 ** deriv_order / (c0 * c1 * norm_tinv ** 2)
    return eps, bound


def c1_constant(norms, c_star: float = GN_CONSTANT_DEFAULT) -> float:
    """c1 = c* * ||T||_H1 * ||T||_2^2 from computed operator norms.

    c* is the interpolation-inequality constant; it is configuration, not
    computed, and defaults to 1 (reported bounds are parametric in it).
    """
    check_scalars(c_star=c_star)
    if c_star <= 0:
        raise InvalidParameterError(f"interpolation constant must be positive, got {c_star}")
    return c_star * norms.normT_h1 * norms.normT_l2 ** 2


def bernoulli_envelope(a: float, b: float, d: float, y0: float, t):
    """Decay envelope for y' <= -a*y + b*y^3.

    Returns (admissible, bound).  The envelope y0*exp(-a*t)/sqrt(1-d^2)
    dominates the solution iff y0 <= d*sqrt(a/b); otherwise ``admissible``
    is False and the bound carries no guarantee.
    """
    check_scalars(a=a, b=b, y0=y0)
    if a <= 0 or b <= 0:
        raise InvalidParameterError(f"need positive coefficients, got a={a}, b={b}")
    if not (0.0 < d < 1.0):
        raise InvalidParameterError(f"margin d must lie in (0, 1), got {d}")
    if y0 < 0:
        raise InvalidParameterError(f"initial value must be nonnegative, got {y0}")
    admissible = bool(y0 <= d * math.sqrt(a / b))
    t_arr = np.asarray(t, dtype=float)
    bound = y0 * np.exp(-a * t_arr) / math.sqrt(1.0 - d * d)
    if np.ndim(t) == 0:
        return admissible, float(bound)
    return admissible, bound


def feedback_gain(kernel: Kernel, tset: TransformSet) -> np.ndarray:
    """Row vector r with g(u) = r @ u, precomputed for time stepping, in O(nx N).

    g(u) = (Upsilon P_N (I - Phi_N) u)(L) = ((T - I)(I - Phi_N) u)(L), and
    T (I - Phi_N) = I makes that (Phi_N u)(L): r = dx X[-1] W^T, the last
    row of Phi_N = X (dx W^T).  The kernel is read for its grid alone.
    """
    if kernel.grid != tset.grid:
        raise DimensionError(f"kernel grid {kernel.grid} does not match transform grid {tset.grid}")
    return tset.grid.dx * (tset.X[-1] @ tset.basis.W.T)


@dataclass(frozen=True)
class DesignReport:
    """Outcome of a controller design run.

    ``mu_interval`` is the admissible open interval for the minimal-mode
    scheme (None for rapid designs); ``admissibility`` holds the scalars a_j
    of the verified transform, the pivots of I + M less one; ``decaying``
    flags gamma > 0.
    """

    nu: float
    alpha: float
    mu: float
    n_modes: int
    length: float
    lambda1: float
    gamma: float
    rho: float
    n_min_rapid: Optional[int]
    instability_level: int
    mu_interval: Optional[tuple]
    admissibility: tuple
    decaying: bool
    scheme: str
    smallness_eps: Optional[float] = None
    smallness_bound: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


def _report(
    nu: float,
    alpha: float,
    length: float,
    mu: float,
    n_modes: int,
    tset: Optional[TransformSet],
    scheme: str,
    mu_interval=None,
    smallness=None,
) -> DesignReport:
    lam1 = eigenvalue(1, length)
    gamma = gamma_rate(nu, alpha, mu, n_modes, length) if n_modes >= 1 else nu * lam1 - alpha
    rho = rho_rate(nu, alpha, mu, n_modes, length) if n_modes >= 1 else nu * lam1 - alpha
    try:
        n_min = min_modes_rapid(nu, alpha, mu, length) if n_modes >= 1 else None
    except InfeasibleRateError:
        n_min = None
    eps, bound = smallness if smallness else (None, None)
    return DesignReport(
        nu=nu,
        alpha=alpha,
        mu=mu,
        n_modes=n_modes,
        length=length,
        lambda1=lam1,
        gamma=gamma,
        rho=rho,
        n_min_rapid=n_min,
        instability_level=instability_level(nu, alpha, length),
        mu_interval=tuple(mu_interval) if mu_interval else None,
        admissibility=tuple(tset.admissibility) if tset is not None else (),
        decaying=bool(gamma > 0),
        scheme=scheme,
        smallness_eps=eps,
        smallness_bound=bound,
    )


def _design(
    nu: float,
    alpha: float,
    length: float,
    nx: int,
    candidates: Iterable[tuple[float, int]],
    scheme: str,
    smallness: bool,
    mu_interval=None,
) -> DesignReport:
    """Report on the first (mu, N) of ``candidates`` whose transform is admissible.

    All candidates share one grid.  When every one is inadmissible the last
    InadmissiblePairError is raised.  The smallness pair is left out where
    ``smallness_threshold`` finds none (gamma <= 0).
    """
    g = make_grid(length, nx)
    last_err = None
    for mu, n_modes in candidates:
        try:
            tset = build_transform(kernel_table(g, mu, nu), n_modes)
        except InadmissiblePairError as err:
            last_err = err
            continue
        sm = None
        if smallness:
            norms = operator_norms(tset)
            c1 = c1_constant(norms)
            try:
                sm = smallness_threshold(
                    nu, alpha, mu, n_modes, 0, SMALLNESS_MARGIN, norms.c0, c1, norms.c0, length
                )
            except InfeasibleRateError:
                pass
        return _report(nu, alpha, length, mu, n_modes, tset, scheme, mu_interval, sm)
    raise last_err if last_err is not None else InfeasibleRateError(
        f"no {scheme} design candidate to try"
    )


def design_fixed(
    nu: float,
    alpha: float,
    mu: float,
    n_modes: int,
    length: float = 1.0,
    nx: int = 200,
    smallness: bool = False,
) -> DesignReport:
    """Report for a caller-chosen (mu, N) pair, admissibility verified.

    No search: the pair is taken as given (the experiment presets use
    this), and an inadmissible pair raises InadmissiblePairError.  The
    smallness bound is attached only when gamma > 0.
    """
    _check_coeffs(nu, alpha, length)
    _check_modes(n_modes)
    return _design(nu, alpha, length, nx, [(mu, n_modes)], "fixed", smallness)


def design_rapid(
    nu: float,
    alpha: float,
    length: float,
    rate_target: float,
    nx: int = 200,
    smallness: bool = False,
) -> DesignReport:
    """Search (mu, N) achieving gamma >= rate_target, admissibility verified.

    mu starts just above the feasibility threshold and grows geometrically
    with N = min_modes_rapid(mu) until the rate is met.  The candidates are
    that mu times each of RETRY_FACTORS that still meets the rate, tried in
    order until one is admissible.
    """
    _check_coeffs(nu, alpha, length)
    check_scalars(rate=rate_target, positive=("rate",))
    lam1 = eigenvalue(1, length)
    mu = max(alpha - nu * lam1, 0.0) + max(rate_target, 1.0)
    for _ in range(200):
        n = min_modes_rapid(nu, alpha, mu, length)
        if gamma_rate(nu, alpha, mu, n, length) >= rate_target:
            break
        mu *= 1.5
    else:
        raise InfeasibleRateError(
            f"mu search did not reach gamma >= {rate_target}"
        )
    pairs = ((mu * f, min_modes_rapid(nu, alpha, mu * f, length)) for f in RETRY_FACTORS)
    candidates = ((m, n) for m, n in pairs if gamma_rate(nu, alpha, m, n, length) >= rate_target)
    return _design(nu, alpha, length, nx, candidates, "rapid", smallness)


def design_minimal(
    nu: float,
    alpha: float,
    length: float,
    nx: int = 200,
    smallness: bool = False,
) -> DesignReport:
    """Minimal-mode design: N = instability level, mu at the interval midpoint.

    N = 0 reports a stable plant with no feedback; otherwise the candidates
    are the midpoint times each of RETRY_FACTORS that stays strictly inside
    the interval, tried in order until one is admissible.
    """
    n, interval, _ = minimal_mode_setup(nu, alpha, length)
    if n == 0:
        return _report(nu, alpha, length, 0.0, 0, None, "stable", mu_interval=interval)
    lo, hi = interval
    mid = 0.5 * (lo + hi)
    candidates = ((mid * f, n) for f in RETRY_FACTORS if lo < mid * f < hi)
    return _design(nu, alpha, length, nx, candidates, "minimal", smallness, interval)
