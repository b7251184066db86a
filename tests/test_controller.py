import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rdstab as r
import rdstab.controller as ctl
from rdstab.cli import main
from rdstab.constants import ADMISSIBILITY_FLOOR
from rdstab.errors import (
    DegenerateSpectrumError,
    DimensionError,
    InadmissiblePairError,
    InfeasibleRateError,
    InvalidParameterError,
)
from oracles import gain_quadrature_gap

LAM1 = math.pi**2


class TestRates:
    def test_gamma_named_case(self):
        assert r.gamma_rate(1.0, 12.0, 6.0, 1) == pytest.approx(LAM1 - 9.0, abs=1e-12)

    def test_rho_named_case(self):
        # nu*lam1 - alpha + (mu/2)(1 - 1/(N+1)^2)
        assert r.rho_rate(1.0, 12.0, 6.0, 1) == pytest.approx(LAM1 - 9.75, abs=1e-12)

    def test_gamma_increases_with_modes_and_mu(self):
        vals = [r.gamma_rate(1.0, 12.0, 6.0, n) for n in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert r.gamma_rate(1.0, 12.0, 9.0, 1) > r.gamma_rate(1.0, 12.0, 6.0, 1)

    def test_length_dependence(self):
        # lam1 scales as 1/L^2
        assert r.gamma_rate(1.0, 0.0, 0.0, 1, length=2.0) == pytest.approx(LAM1 / 4.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            r.gamma_rate(0.0, 12.0, 6.0, 1)
        with pytest.raises(InvalidParameterError):
            r.gamma_rate(1.0, 12.0, 6.0, 0)
        with pytest.raises(InvalidParameterError):
            r.rho_rate(1.0, 12.0, 6.0, -1)
        with pytest.raises(InvalidParameterError):
            r.gamma_rate(1.0, 12.0, 6.0, 1, length=-1.0)


class TestMinModes:
    def test_named_cases(self):
        assert r.min_modes_rapid(1.0, 15.0, 15.0) == 1
        assert r.min_modes_rapid(1.0, 12.0, 6.0) == 1

    def test_infeasible_mu(self):
        # mu must exceed alpha - nu*lam1 (~2.13 here)
        with pytest.raises(InfeasibleRateError):
            r.min_modes_rapid(1.0, 12.0, 2.0)
        with pytest.raises(InvalidParameterError):
            r.min_modes_rapid(1.0, 12.0, -1.0)

    def test_returned_count_is_least(self):
        lam1 = LAM1
        for mu in (3.0, 6.0, 25.0, 80.0, 300.0):
            for alpha in (0.0, 5.0, 12.0):
                n = r.min_modes_rapid(1.0, alpha, mu)
                bound = max(mu / (2 * lam1) - 1, mu / (mu + lam1 - alpha) - 1)
                assert n > bound
                assert n == 1 or n - 1 <= bound

    def test_grows_with_mu(self):
        counts = [r.min_modes_rapid(1.0, 0.0, mu) for mu in (10.0, 50.0, 200.0, 800.0)]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_near_threshold_hits_cap(self):
        # just above feasibility the second branch explodes past the cap
        with pytest.raises(InfeasibleRateError):
            r.min_modes_rapid(1.0, 12.0, 12.0 - LAM1 + 1e-9)


class TestInstabilityLevel:
    def test_stable_plants(self):
        assert r.instability_level(1.0, 0.0) == 0
        assert r.instability_level(1.0, -3.0) == 0
        assert r.instability_level(1.0, 9.0) == 0

    def test_known_levels(self):
        assert r.instability_level(1.0, 12.0) == 1
        assert r.instability_level(1.0, 50.0) == 2
        assert r.instability_level(1.0, 120.0) == 3

    def test_boundary_lattice(self):
        for j in range(1, 6):
            lam = r.eigenvalue(j, 1.0)
            assert r.instability_level(1.0, lam * (1 + 1e-9)) == j
            assert r.instability_level(1.0, lam * (1 - 1e-9)) == j - 1

    def test_length_scaling(self):
        # doubling L scales every eigenvalue down by 4
        assert r.instability_level(1.0, 12.0, length=2.0) == r.instability_level(0.25, 12.0)
        assert r.instability_level(1.0, 12.0, length=2.0) == 2


class TestMinimalModeSetup:
    def test_stable_branch(self):
        n, interval, rho = r.minimal_mode_setup(1.0, 5.0)
        assert n == 0
        assert interval == (0.0, 2.0 * LAM1)
        assert rho == pytest.approx(LAM1 - 5.0)

    def test_single_unstable_mode(self):
        n, (lo, hi), rho = r.minimal_mode_setup(1.0, 12.0)
        assert n == 1
        assert lo == pytest.approx(2.0 * (12.0 - LAM1) / 0.75)
        assert hi == pytest.approx(2.0 * r.eigenvalue(2, 1.0))
        assert rho == pytest.approx(r.rho_rate(1.0, 12.0, 0.5 * (lo + hi), 1))
        assert rho > 0

    def test_two_unstable_modes(self):
        n, (lo, hi), rho = r.minimal_mode_setup(1.0, 50.0)
        assert n == 2
        assert lo == pytest.approx(2.0 * (50.0 - LAM1) / (1.0 - 1.0 / 9.0))
        assert hi == pytest.approx(2.0 * r.eigenvalue(3, 1.0))
        assert lo < hi

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            r.minimal_mode_setup(1.0, LAM1)
        with pytest.raises(DegenerateSpectrumError):
            r.minimal_mode_setup(2.0, 2.0 * r.eigenvalue(3, 1.0))

    @settings(max_examples=200, deadline=None)
    @given(
        nu=st.floats(0.05, 5.0),
        length=st.floats(0.2, 5.0),
        excess=st.floats(1.001, 200.0),
    )
    def test_rapid_rate_positive_at_interval_start(self, nu, length, excess):
        # gamma(lo) = (alpha - nu lam1) N/(N + 2) > 0 for an unstable plant, and gamma
        # grows with mu, so a minimal design never reports a non-positive gamma
        lam1 = r.eigenvalue(1, length)
        alpha = excess * nu * lam1
        try:
            n, (lo, hi), _ = r.minimal_mode_setup(nu, alpha, length)
        except DegenerateSpectrumError:
            assume(False)
        assert n >= 1 and 0.0 < lo < hi
        gamma = r.gamma_rate(nu, alpha, lo, n, length)
        assert gamma > 0.0
        assert gamma == pytest.approx((alpha - nu * lam1) * n / (n + 2), rel=1e-9)


class TestSmallness:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            r.smallness_threshold(1.0, 12.0, 6.0, 1, 2, 0.9, 1.0, 1.0, 1.0)
        for d in (0.0, 1.0, -0.5):
            with pytest.raises(InvalidParameterError):
                r.smallness_threshold(1.0, 12.0, 6.0, 1, 0, d, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            r.smallness_threshold(1.0, 12.0, 6.0, 1, 0, 0.9, 0.0, 1.0, 1.0)

    def test_nonpositive_gamma_infeasible(self):
        with pytest.raises(InfeasibleRateError):
            r.smallness_threshold(1.0, 12.0, 0.0, 1, 0, 0.9, 1.0, 1.0, 1.0)

    def test_unit_constants_value(self):
        # with the eps cap inactive the maximizer gives d*gamma/sqrt(lam1)
        gamma = r.gamma_rate(1.0, 12.0, 6.0, 1)
        eps, bound = r.smallness_threshold(1.0, 12.0, 6.0, 1, 0, 0.9, 1.0, 1.0, 1.0)
        assert eps == pytest.approx(gamma / LAM1, abs=1e-12)
        assert bound == pytest.approx(0.9 * gamma / math.sqrt(LAM1), abs=1e-12)

    def test_linear_in_d_and_constants(self):
        _, b1 = r.smallness_threshold(1.0, 12.0, 6.0, 1, 0, 0.9, 1.0, 1.0, 1.0)
        _, b2 = r.smallness_threshold(1.0, 12.0, 6.0, 1, 0, 0.45, 1.0, 1.0, 1.0)
        assert b2 == pytest.approx(0.5 * b1)
        _, b3 = r.smallness_threshold(1.0, 12.0, 6.0, 1, 0, 0.9, 2.0, 1.0, 1.0)
        assert b3 == pytest.approx(0.5 * b1)
        _, b4 = r.smallness_threshold(1.0, 12.0, 6.0, 1, 0, 0.9, 1.0, 1.0, 2.0)
        assert b4 == pytest.approx(0.25 * b1)

    def test_derivative_order_scaling(self):
        _, b0 = r.smallness_threshold(1.0, 12.0, 6.0, 1, 0, 0.9, 1.0, 1.0, 1.0)
        _, b1 = r.smallness_threshold(1.0, 12.0, 6.0, 1, 1, 0.9, 1.0, 1.0, 1.0)
        assert b1 == pytest.approx(LAM1 * b0)

    def test_c1_constant(self):
        norms = r.OperatorNorms(c0=1.5, normT_l2=2.0, normTinv_h1=1.0, normT_h1=3.0)
        assert r.c1_constant(norms) == pytest.approx(3.0 * 4.0)
        assert r.c1_constant(norms, c_star=0.5) == pytest.approx(6.0)
        with pytest.raises(InvalidParameterError):
            r.c1_constant(norms, c_star=0.0)


class TestBernoulliEnvelope:
    def test_initial_value(self):
        ok, bound = r.bernoulli_envelope(2.0, 1.0, 0.5, 0.7, 0.0)
        assert ok
        assert bound == pytest.approx(0.7 / math.sqrt(0.75))

    def test_admissibility_flag(self):
        thresh = 0.5 * math.sqrt(2.0)  # d*sqrt(a/b) for a=2, b=1, d=0.5
        ok, _ = r.bernoulli_envelope(2.0, 1.0, 0.5, thresh * 0.999, 0.0)
        assert ok
        bad, _ = r.bernoulli_envelope(2.0, 1.0, 0.5, thresh * 1.001, 0.0)
        assert not bad

    def test_dominates_exact_solution(self):
        # closed form of y' = -a y + b y^3 via v = 1/y^2
        a, b, d, y0 = 2.0, 1.0, 0.5, 0.7
        t = np.linspace(0.0, 3.0, 61)
        v = (1.0 / y0**2 - b / a) * np.exp(2 * a * t) + b / a
        exact = 1.0 / np.sqrt(v)
        ok, bound = r.bernoulli_envelope(a, b, d, y0, t)
        assert ok
        assert bound.shape == t.shape
        assert np.all(exact <= bound + 1e-14)
        # and the envelope is not vacuous: within a factor sqrt(1/(1-d^2))
        assert np.all(bound <= exact / math.sqrt(1 - d * d) + 1e-14)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            r.bernoulli_envelope(0.0, 1.0, 0.5, 0.1, 0.0)
        with pytest.raises(InvalidParameterError):
            r.bernoulli_envelope(2.0, 1.0, 1.5, 0.1, 0.0)
        with pytest.raises(InvalidParameterError):
            r.bernoulli_envelope(2.0, 1.0, 0.5, -0.1, 0.0)


# a valid call of each public formula; each case below spoils one argument
_NORMS = r.OperatorNorms(c0=1.5, normT_l2=2.0, normTinv_h1=1.0, normT_h1=3.0)
_FORMULAS = {
    "gamma_rate": (r.gamma_rate, dict(nu=1.0, alpha=12.0, mu=6.0, n_modes=2)),
    "rho_rate": (r.rho_rate, dict(nu=1.0, alpha=12.0, mu=6.0, n_modes=2)),
    "min_modes_rapid": (r.min_modes_rapid, dict(nu=1.0, alpha=12.0, mu=6.0)),
    "smallness_threshold": (r.smallness_threshold, dict(
        nu=1.0, alpha=12.0, mu=6.0, n_modes=1, deriv_order=0, d=0.9, c0=1.0, c1=1.0, norm_tinv=1.0)),
    "c1_constant": (r.c1_constant, dict(norms=_NORMS, c_star=1.0)),
    "bernoulli_envelope": (r.bernoulli_envelope, dict(a=2.0, b=1.0, d=0.5, y0=0.7, t=0.0)),
}
_REAL_ARGS = [
    ("gamma_rate", "mu"), ("rho_rate", "mu"), ("min_modes_rapid", "mu"),
    ("smallness_threshold", "mu"), ("smallness_threshold", "c0"), ("smallness_threshold", "c1"),
    ("smallness_threshold", "norm_tinv"), ("c1_constant", "c_star"),
    ("bernoulli_envelope", "a"), ("bernoulli_envelope", "b"), ("bernoulli_envelope", "y0"),
]
_MODE_FUNCS = ["gamma_rate", "rho_rate", "smallness_threshold"]


@pytest.mark.parametrize(
    "name, arg, bad",
    [(f, a, v) for f, a in _REAL_ARGS for v in (math.nan, math.inf, -math.inf)]
    + [(f, a, v) for f, a in _REAL_ARGS for v in (np.float64(np.nan), True, "1", None)]
    + [(f, "n_modes", v) for f in _MODE_FUNCS for v in (1.5, 2.0, True, "2", np.nan)],
)
def test_formulas_refuse_non_finite_non_real_and_fractional_arguments(name, arg, bad):
    # these once returned nan or inf, a bare ValueError or OverflowError, or ran on 1.5 modes
    fn, kwargs = _FORMULAS[name]
    fn(**kwargs)
    with pytest.raises(InvalidParameterError, match=f"^{arg} must be (finite|a real number|an integer), got "):
        fn(**{**kwargs, arg: bad})


@pytest.mark.parametrize(
    "name, arg, bad, message",
    [
        ("gamma_rate", "n_modes", 0, "need at least one mode, got 0"),
        ("rho_rate", "n_modes", -1, "need at least one mode, got -1"),
        ("min_modes_rapid", "mu", -1.0, "negative feedback gain -1.0"),
        ("smallness_threshold", "c0", 0.0, "operator-norm constants must be positive"),
        ("smallness_threshold", "norm_tinv", -2.0, "operator-norm constants must be positive"),
        ("c1_constant", "c_star", 0.0, "interpolation constant must be positive, got 0.0"),
        ("bernoulli_envelope", "b", 0.0, "need positive coefficients, got a=2.0, b=0.0"),
        ("bernoulli_envelope", "y0", -0.1, "initial value must be nonnegative, got -0.1"),
    ],
)
def test_formulas_keep_their_range_messages(name, arg, bad, message):
    fn, kwargs = _FORMULAS[name]
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
        fn(**{**kwargs, arg: bad})


class TestFeedback:
    def test_zero_state(self, exp1_kernel, exp1_tset):
        z = np.zeros(exp1_tset.grid.nx)
        assert r.feedback_gain(exp1_kernel, exp1_tset) @ z == 0.0

    def test_linearity(self, exp1_kernel, exp1_tset):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(exp1_tset.grid.nx)
        v = rng.standard_normal(exp1_tset.grid.nx)
        gain = r.feedback_gain(exp1_kernel, exp1_tset)
        lhs = gain @ (2.5 * u - 0.5 * v)
        rhs = 2.5 * (gain @ u) - 0.5 * (gain @ v)
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_vanishes_outside_projected_modes(self, exp1_kernel, exp1_tset):
        # N = 1 here, so the second mode draws no feedback
        basis2 = r.modal_basis(exp1_tset.grid, 2)
        g = r.feedback_gain(exp1_kernel, exp1_tset) @ basis2.mode(2)
        assert abs(g) < 1e-10

    def test_gain_is_last_row_of_phi(self, exp1_kernel, exp1_tset, exp2_kernel, exp2_tset):
        # g(u) = (Phi_N u)(L), since (T - I)(I - Phi_N) = Phi_N
        rng = np.random.default_rng(11)
        for kern, tset in ((exp1_kernel, exp1_tset), (exp2_kernel, exp2_tset)):
            gain = r.feedback_gain(kern, tset)
            assert gain.shape == (tset.grid.nx,)
            for _ in range(4):
                u = rng.standard_normal(tset.grid.nx)
                phi_u = u - r.inverse_transform(tset, u)
                assert abs(float(gain @ u) - phi_u[-1]) <= 1e-12 * max(1.0, abs(phi_u[-1]))

    def test_gain_row_matches_direct(self):
        # the trapezoid of k(L, y) against P_N (I - Phi_N) converges to the
        # gain at second order
        ratio = gain_quadrature_gap(15.0, 200, 2) / gain_quadrature_gap(15.0, 399, 2)
        assert 3.5 <= ratio <= 4.5

    def test_grid_mismatch(self, exp1_tset):
        other = r.kernel_table(r.make_grid(1.0, 100), 0.0, 1.0)
        with pytest.raises(DimensionError):
            r.feedback_gain(other, exp1_tset)
        # the same node count on another length is another grid
        tset = r.build_transform(r.kernel_table(r.make_grid(2.0, 50), 6.0, 1.0), 1)
        with pytest.raises(DimensionError):
            r.feedback_gain(r.kernel_table(r.make_grid(1.0, 50), 6.0, 1.0), tset)


class TestDesignReports:
    def test_fixed_design(self):
        rep = r.design_fixed(1.0, 12.0, 6.0, 1)
        assert rep.scheme == "fixed"
        assert rep.gamma == pytest.approx(LAM1 - 9.0)
        assert rep.rho == pytest.approx(LAM1 - 9.75)
        assert rep.decaying
        assert rep.n_min_rapid == 1
        assert rep.instability_level == 1
        assert rep.mu_interval is None
        assert rep.smallness_bound is None
        assert len(rep.admissibility) == 1
        assert 1.0 + rep.admissibility[0] == pytest.approx(0.616, abs=2e-3)

    def test_fixed_design_smallness(self):
        rep = r.design_fixed(1.0, 12.0, 6.0, 1, smallness=True)
        assert rep.smallness_eps is not None and rep.smallness_eps > 0
        assert rep.smallness_bound is not None and rep.smallness_bound > 0

    def test_fixed_design_nondecaying(self):
        # gamma < 0: report still produced, flag cleared, smallness skipped
        rep = r.design_fixed(1.0, 12.0, 1.0, 1, smallness=True)
        assert not rep.decaying
        assert rep.smallness_bound is None

    def test_fixed_design_refuses_non_integer_modes(self):
        with pytest.raises(InvalidParameterError, match="n_modes must be an integer, got 1.5"):
            r.design_fixed(1.0, 15.0, 15.0, 1.5)

    def test_report_serializes(self):
        rep = r.design_fixed(1.0, 15.0, 15.0, 2)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["scheme"] == "fixed"
        assert back["n_modes"] == 2
        assert len(back["admissibility"]) == 2

    def test_rapid_design_meets_rate(self):
        rep = r.design_rapid(1.0, 12.0, 1.0, 2.0)
        assert rep.scheme == "rapid"
        assert rep.gamma >= 2.0
        assert rep.n_modes == r.min_modes_rapid(1.0, 12.0, rep.mu)
        assert rep.decaying
        assert len(rep.admissibility) == rep.n_modes
        with pytest.raises(InvalidParameterError):
            r.design_rapid(1.0, 12.0, 1.0, -1.0)

    def test_minimal_design_unstable_plant(self):
        rep = r.design_minimal(1.0, 12.0, 1.0)
        assert rep.scheme == "minimal"
        assert rep.n_modes == 1
        lo, hi = rep.mu_interval
        assert lo < rep.mu < hi
        assert rep.rho == pytest.approx(r.rho_rate(1.0, 12.0, rep.mu, 1))
        assert rep.rho > 0

    def test_minimal_design_stable_plant(self):
        rep = r.design_minimal(1.0, 2.0, 1.0)
        assert rep.scheme == "stable"
        assert rep.n_modes == 0
        assert rep.mu == 0.0
        assert rep.admissibility == ()
        assert rep.decaying


def _fail_first(monkeypatch, k):
    """Make the design layer's first k transform builds inadmissible.

    Returns the list of mu values tried.  The error of attempt i carries
    index i, so a propagated error names the attempt it came from.
    """
    real = ctl.build_transform
    tried = []

    def fake(kern, n_modes):
        tried.append(kern.mu)
        if len(tried) <= k:
            raise InadmissiblePairError(len(tried), -1.0, ADMISSIBILITY_FLOOR)
        return real(kern, n_modes)

    monkeypatch.setattr(ctl, "build_transform", fake)
    return tried


class TestDesignRetries:
    """An inadmissible candidate moves the search to the next RETRY_FACTORS one."""

    NX = 60

    @staticmethod
    def _rapid_candidates(alpha, rate, base):
        mus = [base * f for f in ctl.RETRY_FACTORS]
        return [
            mu for mu in mus
            if r.gamma_rate(1.0, alpha, mu, r.min_modes_rapid(1.0, alpha, mu)) >= rate
        ]

    @staticmethod
    def _minimal_candidates(interval):
        lo, hi = interval
        mid = 0.5 * (lo + hi)
        return [mid * f for f in ctl.RETRY_FACTORS if lo < mid * f < hi]

    # at rate 30 the 0.95 and 0.90 perturbations miss the rate and are skipped
    @pytest.mark.parametrize("rate", [2.0, 30.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rapid_takes_next_candidate(self, monkeypatch, rate, k):
        base = r.design_rapid(1.0, 12.0, 1.0, rate, nx=self.NX).mu
        cands = self._rapid_candidates(12.0, rate, base)
        tried = _fail_first(monkeypatch, k)
        rep = r.design_rapid(1.0, 12.0, 1.0, rate, nx=self.NX)
        assert tried == cands[: k + 1]
        assert rep.mu == cands[k]
        assert rep.n_modes == r.min_modes_rapid(1.0, 12.0, rep.mu)
        assert rep.gamma >= rate
        assert len(rep.admissibility) == rep.n_modes

    # at alpha 35 only the 1.00, 1.05 and 0.95 perturbations stay inside the interval
    @pytest.mark.parametrize("alpha", [12.0, 35.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_minimal_takes_next_candidate(self, monkeypatch, alpha, k):
        interval = r.design_minimal(1.0, alpha, 1.0, nx=self.NX).mu_interval
        cands = self._minimal_candidates(interval)
        tried = _fail_first(monkeypatch, k)
        rep = r.design_minimal(1.0, alpha, 1.0, nx=self.NX, smallness=True)
        assert tried == cands[: k + 1]
        assert rep.mu == cands[k]
        assert rep.mu_interval == interval
        assert rep.scheme == "minimal"
        assert rep.smallness_bound is not None and rep.smallness_bound > 0

    def test_rapid_all_inadmissible_raises_last(self, monkeypatch):
        base = r.design_rapid(1.0, 12.0, 1.0, 30.0, nx=self.NX).mu
        cands = self._rapid_candidates(12.0, 30.0, base)
        tried = _fail_first(monkeypatch, len(ctl.RETRY_FACTORS))
        with pytest.raises(InadmissiblePairError) as info:
            r.design_rapid(1.0, 12.0, 1.0, 30.0, nx=self.NX)
        assert tried == cands
        assert info.value.index == len(cands)

    def test_minimal_all_inadmissible_raises_last(self, monkeypatch):
        interval = r.design_minimal(1.0, 35.0, 1.0, nx=self.NX).mu_interval
        cands = self._minimal_candidates(interval)
        tried = _fail_first(monkeypatch, len(ctl.RETRY_FACTORS))
        with pytest.raises(InadmissiblePairError) as info:
            r.design_minimal(1.0, 35.0, 1.0, nx=self.NX)
        assert tried == cands
        assert info.value.index == len(cands)

    def test_cli_design_all_inadmissible_exit_3(self, monkeypatch, capsys):
        tried = _fail_first(monkeypatch, len(ctl.RETRY_FACTORS))
        assert main(["design", "--rate", "2"]) == 3
        assert len(tried) == len(ctl.RETRY_FACTORS)
        assert "inadmissible pair" in capsys.readouterr().err

    def test_fixed_raises_on_its_one_pair(self, monkeypatch):
        tried = _fail_first(monkeypatch, 1)
        with pytest.raises(InadmissiblePairError) as info:
            r.design_fixed(1.0, 12.0, 6.0, 1, nx=self.NX, smallness=True)
        assert tried == [6.0]
        assert info.value.index == 1
