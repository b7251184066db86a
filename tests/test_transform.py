import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import i1, j1

import rdstab as r
from rdstab.constants import ADMISSIBILITY_FLOOR, REFERENCE_SCALAR_TOL
from rdstab.errors import DimensionError, InadmissiblePairError, InvalidParameterError, SolverError
from oracles import (
    dense_transform,
    discrete_m,
    gain_quadrature_gap,
    longdouble_pivots,
    phi_apply_recursive,
    phi_recursion,
    upsilon_projected,
)

# continuum values of the admissibility scalars, computed independently from
# the Bessel closed form of the kernel with adaptive double quadrature
REF_1B1_MU6 = 0.616097606682
REF_1A1_MU15 = 0.253995242581
REF_1A2_MU15 = 0.854035349279


def closed_form(x, y, mu, nu=1.0):
    """Bessel closed form of the kernel: J1 for mu > 0, I1 for mu < 0."""
    z = (mu / nu) * (x * x - y * y)
    if z == 0.0:
        return -mu * y / (2.0 * nu)
    w = math.sqrt(abs(z))
    return -(mu * y / (2.0 * nu)) * 2.0 * (j1(w) if z > 0.0 else i1(w)) / w


def test_upsilon_three_case_weighting(grid200, exp1_kernel):
    U = r.upsilon_matrix(exp1_kernel)
    assert np.all(np.triu(U, 1) == 0.0)
    # diagonal: dx/2 * k(x_i, x_i) = dx/2 * (-3 x_i) for mu=6, nu=1
    expect_diag = 0.5 * grid200.dx * (-3.0 * grid200.nodes)
    assert np.max(np.abs(np.diag(U) - expect_diag)) < 1e-14
    i, j = 100, 40
    assert U[i, j] == pytest.approx(grid200.dx * exp1_kernel.values[i, j])


def _upsilon_e_quad(x, mu, nu, length, j):
    """(Upsilon e_j)(x) by adaptive quadrature of the Bessel kernel."""
    ref, _ = quad(
        lambda y: closed_form(x, y, mu, nu) * math.sqrt(2.0 / length) * math.sin(j * math.pi * y / length),
        0.0,
        x,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return ref


# (mu, nu, L) of the closed-form checks; for j = 1, mu = -12 takes the sinh
# branch (r^2 < 0) and mu = -lambda_1 the r = 0 one
UPSILON_CASES = [
    (6.0, 1.0, 1.0),
    (6.0, 0.5, 2.0),
    (-12.0, 1.0, 1.0),
    (-r.eigenvalue(1, 1.0), 1.0, 1.0),
    (60.0, 1.0, 1.0),
]


def test_upsilon_against_adaptive_quadrature():
    # (Upsilon e_j)(x_i) vs adaptive quadrature of the Bessel kernel, 1000
    # nodes: the trapezoidal table to discretization error, the closed-form
    # UW of the build to rounding
    for mu, nu, length in UPSILON_CASES:
        g = r.make_grid(length, 1000)
        kern = r.kernel_table(g, mu, nu)
        tset = r.build_transform(kern, 3)
        trapezoid = r.upsilon_matrix(kern) @ tset.basis.W
        scale = np.max(np.abs(tset.UW))
        for i in (333, 666, 999):
            for j in (1, 2, 3):
                ref = _upsilon_e_quad(g.nodes[i], mu, nu, length, j)
                assert abs(trapezoid[i, j - 1] - ref) / scale < 1e-4
                assert abs(tset.UW[i, j - 1] - ref) / scale <= 1e-12


# mu = 2000 only with mu > 0: at mu = -2000 both gaps are rounding of entries near 1e18
@pytest.mark.parametrize(
    "mu, nu, length", UPSILON_CASES + [(150.0, 1.0, 1.0), (1e-6, 1.0, 1.0), (2000.0, 1.0, 1.0)]
)
def test_trapezoidal_upsilon_converges_to_closed_form(mu, nu, length):
    # the gap between the dense trapezoidal table and the closed form falls
    # at second order: by a factor of about 4 per halving of dx
    gaps = []
    for nx in (101, 201, 401):
        g = r.make_grid(length, nx)
        kern = r.kernel_table(g, mu, nu)
        basis = r.modal_basis(g, 3)
        UW = r.transform._upsilon_modes(kern, basis)
        gaps.append(np.max(np.abs(r.upsilon_matrix(kern) @ basis.W - UW)))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_phi_zero_for_zero_kernel(grid200):
    kern0 = r.kernel_table(grid200, 0.0, 1.0)
    tset = r.build_transform(kern0, 3)
    T, phi = dense_transform(tset)
    assert np.max(np.abs(phi)) == 0.0
    assert np.max(np.abs(tset.admissibility)) == 0.0
    assert np.max(np.abs(T - np.eye(grid200.nx))) == 0.0


def test_admissibility_scalars_match_continuum_oracle(fine_builds):
    t6, t15 = fine_builds["t6"], fine_builds["t15"]
    assert 1.0 + t6.admissibility[0] == pytest.approx(REF_1B1_MU6, abs=REFERENCE_SCALAR_TOL)
    assert 1.0 + t15.admissibility[0] == pytest.approx(REF_1A1_MU15, abs=REFERENCE_SCALAR_TOL)
    assert 1.0 + t15.admissibility[1] == pytest.approx(REF_1A2_MU15, abs=REFERENCE_SCALAR_TOL)


def test_forward_component_matches_scalar(exp1_tset, grid200):
    # the first-mode coefficient of Upsilon e_1 is the first scalar
    basis = exp1_tset.basis
    e1 = basis.mode(1)
    extra = r.forward_transform(exp1_tset, e1) - e1
    coeff = r.inner_product(extra, e1, grid200)
    assert coeff == pytest.approx(exp1_tset.admissibility[0], abs=1e-12)


def test_inverse_identity_two_sided(exp1_tset, exp2_tset):
    for tset in (exp1_tset, exp2_tset):
        n = tset.grid.nx
        eye = np.eye(n)
        T, phi = dense_transform(tset)
        left = (eye - phi) @ T - eye
        right = T @ (eye - phi) - eye
        assert np.max(np.abs(left)) < 1e-8
        assert np.max(np.abs(right)) < 1e-8


def test_round_trip_on_random_vectors(exp2_tset):
    rng = np.random.default_rng(12)
    for _ in range(5):
        v = rng.standard_normal(exp2_tset.grid.nx)
        w = r.inverse_transform(exp2_tset, r.forward_transform(exp2_tset, v))
        assert np.max(np.abs(w - v)) / np.max(np.abs(v)) < 1e-10


def test_phi_ignores_unprojected_directions(exp2_tset):
    # Phi u = Phi P_N u, so Phi (I - P) vanishes
    n = exp2_tset.grid.nx
    resid = dense_transform(exp2_tset)[1] @ (np.eye(n) - exp2_tset.P.matrix)
    assert np.max(np.abs(resid)) < 1e-10


def test_per_vector_path_matches_matrix(exp2_kernel):
    rng = np.random.default_rng(3)
    for n_modes in (1, 2, 3):
        tset = r.build_transform(exp2_kernel, n_modes)
        U = upsilon_projected(exp2_kernel, tset.basis)
        phi = dense_transform(tset)[1]
        v = rng.standard_normal(tset.grid.nx)
        assert np.max(np.abs(phi @ v - phi_apply_recursive(U, tset.basis, v))) < 1e-10


def test_synthetic_inadmissible_scalar_raises(a1_root):
    # at a root of 1 + a_1 the production build and the per-vector oracle
    # both refuse the pair, at the first scalar
    kern = r.kernel_table(r.make_grid(1.0, 80), a1_root, 1.0)
    with pytest.raises(InadmissiblePairError) as exc:
        r.build_transform(kern, 1)
    assert exc.value.index == 1
    assert abs(1.0 + exc.value.value) <= ADMISSIBILITY_FLOOR
    basis = r.modal_basis(kern.grid, 1)
    with pytest.raises(InadmissiblePairError):
        phi_apply_recursive(upsilon_projected(kern, basis), basis, basis.mode(1))


def test_scan_reports_experiment_value():
    rows = r.scan_admissibility(1.0, 1.0, 1, (1.0, 10.0), 10)
    by_mu = {round(row.mu, 6): row for row in rows}
    assert 6.0 in by_mu
    assert 1.0 + by_mu[6.0].scalars[0] == pytest.approx(0.616, abs=2e-3)
    assert all(row.admissible for row in rows)
    # small mu end: scalars head to zero with the kernel
    assert abs(rows[0].scalars[0]) < abs(rows[-1].scalars[0])


def test_scan_brackets_sign_change():
    rows = r.scan_admissibility(1.0, 1.0, 1, (25.0, 35.0), 11, nx=120)
    brackets = r.sign_change_brackets(rows)
    assert len(brackets) == 1
    j, lo, hi = brackets[0]
    assert j == 1
    assert 25.0 <= lo < hi <= 35.0


TENS = (10.0,) * 399  # their product, 1e399, overflows a double


@pytest.mark.parametrize(
    "pivots, expect",
    [
        # 1 + a_1 and 1 + a_2 both flip, but D_2 = (1 + a_1)(1 + a_2) keeps its sign
        (((0.5, 2.0), (-0.5, -2.0)), [(1, 0.0, 1.0)]),
        (((0.5, 1.0), (0.5, -1.0), (0.4, -1.5)), [(2, 0.0, 1.0)]),
        # signs, not products: D_400 flips at the first pair; the pairs with a NaN row are skipped
        (((*TENS, 1.0), (*TENS, -1.0), (math.nan,) * 400, (*TENS, 1.0)), [(400, 0.0, 1.0)]),
        (((0.5,),), []),
    ],
    ids=["pole", "zero", "no-overflow-nan-skipped", "one-row"],
)
def test_brackets_hold_zeros_of_the_leading_minors(pivots, expect):
    # hand-built rows at mu = 0, 1, ... whose 1 + a_j are ``pivots``
    rows = [r.ScanRow(mu=float(n), scalars=tuple(p - 1.0 for p in row), admissible=True)
            for n, row in enumerate(pivots)]
    assert r.sign_change_brackets(rows) == expect


def test_scan_marks_inadmissible_row_with_nan(a1_root):
    # scan straddling a root of 1 + a_1(mu) with N = 2: the a_2 entry of the
    # inadmissible row cannot be computed
    rows = r.scan_admissibility(1.0, 1.0, 2, (a1_root - 1e-9, a1_root + 1e-9), 3, nx=80)
    mid = rows[1]
    assert not mid.admissible
    assert math.isfinite(mid.scalars[0])
    assert abs(1.0 + mid.scalars[0]) <= ADMISSIBILITY_FLOOR
    assert math.isnan(mid.scalars[1])
    # and the build raises at that mu, with the scalar the scan recorded to
    # rounding (4.4e-16 apart): the scan sums M in closed form, the build
    # forms it from the sampled factors
    with pytest.raises(InadmissiblePairError) as exc:
        r.build_transform(r.kernel_table(r.make_grid(1.0, 80), mid.mu, 1.0), 2)
    assert exc.value.index == 1
    assert exc.value.value == pytest.approx(mid.scalars[0], abs=1e-13)


def test_scan_marks_non_finite_row_inadmissible():
    # at mu = -1e6 the sinh of Upsilon e_1 overflows: the scan reports the
    # rows inadmissible, and the build refuses the pair through its residual
    rows = r.scan_admissibility(1, 1, 1, (-1.2e6, -1e6), 2, nx=80)
    assert len(rows) == 2
    for row in rows:
        assert not math.isfinite(row.scalars[0])
        assert not row.admissible
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="inverse identity residual nan"):
        r.build_transform(r.kernel_table(r.make_grid(1.0, 80), -1e6, 1.0), 1)


def test_scan_argument_validation():
    with pytest.raises(InvalidParameterError):
        r.scan_admissibility(1.0, 1.0, 1, (1.0, 10.0), 1)
    with pytest.raises(InvalidParameterError):
        r.scan_admissibility(1.0, 1.0, 1, (10.0, 1.0), 5)
    # the arguments are checked before any numerics run
    with pytest.raises(InvalidParameterError, match="mu_max must be finite"):
        r.scan_admissibility(1.0, 1.0, 1, (1.0, math.inf), 3)
    with pytest.raises(InvalidParameterError, match="mu_min must be finite"):
        r.scan_admissibility(1.0, 1.0, 1, (math.nan, 2.0), 3)
    with pytest.raises(InvalidParameterError, match="nu must be positive"):
        r.scan_admissibility(0.0, 1.0, 1, (1.0, 2.0), 3)
    with pytest.raises(InvalidParameterError, match="steps must be an integer"):
        r.scan_admissibility(1.0, 1.0, 1, (1.0, 2.0), 2.5)
    with pytest.raises(InvalidParameterError, match="steps must be an integer"):
        r.scan_admissibility(1.0, 1.0, 1, (1.0, 2.0), True)
    # a non-integer size is refused, not truncated
    with pytest.raises(InvalidParameterError, match="nx must be an integer"):
        r.scan_admissibility(1.0, 1.0, 1, (1.0, 2.0), 3, nx=50.5)
    with pytest.raises(InvalidParameterError, match="n_modes must be an integer"):
        r.scan_admissibility(1.0, 1.0, 1.5, (1.0, 2.0), 3)


def test_build_refuses_non_integer_modes(exp1_kernel):
    with pytest.raises(InvalidParameterError, match="n_modes must be an integer, got 1.5"):
        r.build_transform(exp1_kernel, 1.5)


def test_operator_norms_identity_for_zero_kernel(grid200):
    tset = r.build_transform(r.kernel_table(grid200, 0.0, 1.0), 2)
    norms = r.operator_norms(tset)
    assert norms.c0 == pytest.approx(1.0, abs=1e-12)
    assert norms.normT_l2 == pytest.approx(1.0, abs=1e-12)
    assert norms.normTinv_h1 == pytest.approx(1.0, abs=1e-9)
    assert norms.normT_h1 == pytest.approx(1.0, abs=1e-9)


def test_operator_norm_duality(exp1_tset):
    norms = r.operator_norms(exp1_tset)
    assert norms.c0 * norms.normT_l2 >= 1.0


def test_c0_against_power_iteration(exp1_tset):
    # power iteration on the weighted normal operator, independent of the
    # spectral-norm call used inside operator_norms
    wq = r.trapezoid_weights(exp1_tset.grid)
    Tinv = np.eye(exp1_tset.grid.nx) - dense_transform(exp1_tset)[1]
    s = np.sqrt(wq)
    B = (Tinv * s[:, None]) / s[None, :]
    v = np.full(exp1_tset.grid.nx, 1.0)
    lam = 0.0
    for _ in range(600):
        v = B.T @ (B @ v)
        lam = np.linalg.norm(v)
        v /= lam
    assert math.sqrt(lam) == pytest.approx(r.operator_norms(exp1_tset).c0, abs=1e-6)


def test_build_transform_records_residual(exp2_tset):
    assert 0.0 <= exp2_tset.inverse_residual < 1e-8


def test_stacked_transforms_match_rows(exp2_tset):
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((3, exp2_tset.grid.nx))
    fwd = r.forward_transform(exp2_tset, stack)
    inv = r.inverse_transform(exp2_tset, stack)
    for k in range(3):
        assert np.max(np.abs(fwd[k] - r.forward_transform(exp2_tset, stack[k]))) < 1e-14
        assert np.max(np.abs(inv[k] - r.inverse_transform(exp2_tset, stack[k]))) < 1e-14
    with pytest.raises(DimensionError):
        r.forward_transform(exp2_tset, np.zeros((2, 3, exp2_tset.grid.nx)))


# dense oracles of the operator norms: the weighted spectral norm by a full
# SVD, the H1 norm by a generalized symmetric eigenproblem
def _weighted_l2_opnorm(A, wq):
    s = np.sqrt(wq)
    return float(np.linalg.norm((A * s[:, None]) / s[None, :], 2))


def _h1_gram(grid):
    n = grid.nx
    D = (np.eye(n, k=1) - np.eye(n))[:-1, :] / grid.dx
    return np.diag(r.trapezoid_weights(grid)) + grid.dx * (D.T @ D)


def _h1_opnorm(A, S):
    vals = scipy.linalg.eigh(A.T @ S @ A, S, eigvals_only=True)
    return float(np.sqrt(max(vals[-1], 0.0)))


def _recursion(kern, basis):
    """(X, scalars, bad) of the paper's recursion, the oracle of the elimination."""
    return phi_recursion(r.transform._upsilon_modes(kern, basis), basis)


def _assert_matches_recursion(tset, X, scalars):
    # the pivots of I + M less one are the recursion's a_j, and UW (I + M)^-1
    # is its factor X
    assert np.max(np.abs(tset.admissibility - scalars)) <= 1e-12
    assert np.max(np.abs(tset.X - X)) <= 1e-12 * np.max(np.abs(X))


@settings(max_examples=25, deadline=None)
@given(
    mu=st.floats(-20.0, 60.0),
    n_modes=st.integers(1, 6),
    nx=st.integers(40, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_paths_match_dense_oracles(mu, n_modes, nx, seed):
    g = r.make_grid(1.0, nx)
    kern = r.kernel_table(g, mu, 1.0)
    basis = r.modal_basis(g, n_modes)
    X, scalars, _ = _recursion(kern, basis)
    assume(np.all(np.abs(1.0 + scalars) >= 0.04))
    tset = r.build_transform(kern, n_modes)
    _assert_matches_recursion(tset, X, scalars)
    U = upsilon_projected(kern, basis)
    eye = np.eye(nx)
    T = eye + U
    Phi = np.column_stack([phi_apply_recursive(U, basis, e) for e in eye])
    v = np.random.default_rng(seed).standard_normal(nx)
    scale = np.max(np.abs(v))

    inv = r.inverse_transform(tset, v)
    assert np.max(np.abs(inv - (v - phi_apply_recursive(U, basis, v)))) <= 1e-12 * scale
    assert np.max(np.abs(r.forward_transform(tset, v) - T @ v)) <= 1e-12 * scale
    assert np.max(np.abs(dense_transform(tset)[1] - Phi)) <= 1e-12 * max(1.0, np.max(np.abs(Phi)))

    # the gain is the last row of Phi_N, and the trapezoid of k(L, y) against
    # P_N (I - Phi_N) converges to it at second order
    gain = r.feedback_gain(kern, tset)
    assert np.max(np.abs(gain - Phi[-1])) <= 1e-12 * max(1.0, np.max(np.abs(Phi[-1])))
    # UW's closed form cancels as mu -> 0 (to rounding of about 1e-16 lambda_j / |mu|,
    # and to exactly zero at mu = 0), so the order is checked away from 0
    if abs(mu) >= 1e-6:
        ratio = gain_quadrature_gap(mu, nx, n_modes) / gain_quadrature_gap(mu, 2 * nx - 1, n_modes)
        assert 3.5 <= ratio <= 4.5

    assert np.max(np.abs((eye - Phi) @ T - eye)) < 1e-10
    assert np.max(np.abs(T @ (eye - Phi) - eye)) < 1e-10
    assert tset.inverse_residual < 1e-10

    norms = r.operator_norms(tset)
    wq = r.trapezoid_weights(g)
    S = _h1_gram(g)
    assert norms.c0 == pytest.approx(_weighted_l2_opnorm(eye - Phi, wq), rel=1e-9)
    assert norms.normT_l2 == pytest.approx(_weighted_l2_opnorm(T, wq), rel=1e-9)
    assert norms.normTinv_h1 == pytest.approx(_h1_opnorm(eye - Phi, S), rel=1e-9)
    assert norms.normT_h1 == pytest.approx(_h1_opnorm(T, S), rel=1e-9)


@pytest.mark.parametrize(
    "mu, n_modes", [(6.0, 1), (15.0, 2), (60.0, 3), (40.0, 8), (40.0, 64), (-20.0, 4)]
)
def test_build_matches_recursion_oracle(mu, n_modes):
    # nx = 2000; at N = 64 the oracle's O(nx N^3) recursion is the slow side
    kern = r.kernel_table(r.make_grid(1.0, 2000), mu, 1.0)
    tset = r.build_transform(kern, n_modes)
    X, scalars, bad = _recursion(kern, tset.basis)
    assert bad == 0
    _assert_matches_recursion(tset, X, scalars)


def test_factored_build_allocates_no_dense_matrix():
    # one 2000 x 2000 float64 array is 32 MB; kernel, build, gain and norms
    # together must stay below a quarter of that, and no kernel table is formed
    g = r.make_grid(1.0, 2000)
    tracemalloc.start()
    try:
        kern = r.kernel_table(g, 15.0, 1.0)
        tset = r.build_transform(kern, 2)
        r.feedback_gain(kern, tset)
        r.operator_norms(tset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert "values" not in vars(kern)
    assert max(getattr(v, "size", 0) for v in vars(tset).values()) < g.nx**2
    assert "matrix" not in vars(tset.P)


def test_scan_rows_match_builds_against_oracle():
    # each admissible scan row and the build from that sample's own kernel
    # against the a_j of the discrete M summed and eliminated in long double:
    # the scan's worst error is no larger than the build's (1.1e-13 against
    # 2.6e-12 when this test was written)
    nx = 150
    g = r.make_grid(1.0, nx)
    rows = r.scan_admissibility(1.0, 1.0, 3, (-10.0, 62.0), 13, nx=nx)
    orders = set()
    scan_err, build_err = [], []
    for row in rows:
        kern = r.kernel_table(g, row.mu, 1.0)
        orders.add(kern.order)
        if row.admissible:
            ref = longdouble_pivots(discrete_m(1.0, 1.0, 3, row.mu, nx))
            scan_err.append(float(np.max(np.abs(np.array(row.scalars) - ref))))
            build = r.build_transform(kern, 3).admissibility
            build_err.append(float(np.max(np.abs(build - ref))))
    assert max(scan_err) <= max(build_err)
    assert max(scan_err) <= 1e-12
    assert sum(row.admissible for row in rows) >= 10
    assert len(orders) > 3


# (mu, N, nx) pinned besides the drawn ones: the sinh branch at the low end,
# r_1 = 0 (mu = -lambda_1), r_2 = 0, mu = 0, r_1 = 2 (t = k for k = 2, j = 1)
# and the high end
@settings(max_examples=40, deadline=None)
@given(mu=st.floats(-60.0, 2000.0), n_modes=st.integers(1, 4), nx=st.integers(40, 2000))
@example(mu=-60.0, n_modes=4, nx=2000)
@example(mu=-r.eigenvalue(1, 1.0), n_modes=3, nx=300)
@example(mu=-r.eigenvalue(2, 1.0), n_modes=4, nx=1999)
@example(mu=0.0, n_modes=4, nx=40)
@example(mu=3.0 * r.eigenvalue(1, 1.0), n_modes=2, nx=1000)
@example(mu=2000.0, n_modes=4, nx=2000)
def test_scan_m_matches_longdouble_sums(mu, n_modes, nx):
    g = r.make_grid(1.0, nx)
    basis = r.modal_basis(g, n_modes)
    M = r.transform._scan_m(g, basis.eigenvalues, 1.0, np.array([mu]))[0]
    ref = discrete_m(1.0, 1.0, n_modes, mu, nx)
    assert np.max(np.abs(M - ref)) <= 2e-15 * max(1.0, float(np.max(np.abs(ref))))
    if mu == 0.0:
        assert np.max(np.abs(M)) == 0.0


def test_scan_zero_for_zero_kernel():
    # the sample at mu = 0 is exactly zero, as the build's is
    # (test_phi_zero_for_zero_kernel)
    rows = r.scan_admissibility(1.0, 1.0, 3, (-1.0, 1.0), 3)
    assert rows[1].mu == 0.0
    assert rows[1].scalars == (0.0, 0.0, 0.0)
    assert rows[1].admissible
    g = r.make_grid(1.0, 200)
    M = r.transform._scan_m(g, r.modal_basis(g, 3).eigenvalues, 1.0, np.array([0.0, -0.0]))
    assert np.max(np.abs(M)) == 0.0


def test_scan_forms_no_upsilon_modes(monkeypatch):
    # the scan sums M in closed form; it samples neither Upsilon W nor the
    # modes W on the grid
    def refuse(*args):
        raise AssertionError("sampled on the grid")

    monkeypatch.setattr(r.transform, "_upsilon_modes", refuse)
    monkeypatch.setattr(r.transform, "modal_basis", refuse)
    rows = r.scan_admissibility(1.0, 1.0, 2, (1.0, 40.0), 40, nx=1000)
    assert len(rows) == 40
    with pytest.raises(AssertionError, match="sampled on the grid"):
        r.build_transform(r.kernel_table(r.make_grid(1.0, 50), 6.0, 1.0), 1)


@pytest.mark.parametrize("row", [0, 14, 199])
def test_inverse_residual_matches_dense(exp2_kernel, row):
    # a wrong inverse factor in one row puts the residual far above roundoff;
    # the bound never reads below the dense residual, and for N = 1 it is the
    # dense residual itself
    for n_modes in (1, 2, 3):
        tset = r.build_transform(exp2_kernel, n_modes)
        nx = tset.grid.nx
        X = tset.X.copy()
        X[row] += 1e-3
        eye = np.eye(nx)
        T = dense_transform(tset)[0]
        dense = np.max(np.abs((eye - tset.grid.dx * X @ tset.basis.W.T) @ T - eye))
        assert dense > 1e-6
        M = tset.grid.dx * (tset.basis.W.T @ tset.UW)
        got = r.transform._inverse_residual(tset.UW, X, M, tset.basis)
        assert got >= dense * (1.0 - 1e-10)
        if n_modes == 1:
            assert got == pytest.approx(dense, rel=1e-10)


def test_setup_memory_linear_in_nx():
    # kernel, build and gain at nx = 64000 allocate at most ten nx x N arrays
    # (10 MB here): no nx x nx array, and nothing that grows with the kernel's
    # order
    nx, n_modes = 64000, 2
    g = r.make_grid(1.0, nx)
    tracemalloc.start()
    try:
        kern = r.kernel_table(g, 15.0, 1.0)
        tset = r.build_transform(kern, n_modes)
        r.feedback_gain(kern, tset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * nx * n_modes
