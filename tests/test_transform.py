import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import j1

import rdstab as r
from rdstab.constants import ADMISSIBILITY_FLOOR, KERNEL_MAX_ORDER, REFERENCE_SCALAR_TOL
from rdstab.errors import DimensionError, InadmissiblePairError, InvalidParameterError
from oracles import dense_transform, phi_apply_recursive, volterra_moments

# continuum values of the admissibility scalars, computed independently from
# the Bessel closed form of the kernel with adaptive double quadrature
REF_1B1_MU6 = 0.616097606682
REF_1A1_MU15 = 0.253995242581
REF_1A2_MU15 = 0.854035349279


def closed_form(x, y, mu):
    z = mu * (x * x - y * y)
    if z == 0.0:
        return -mu * y / 2.0
    w = math.sqrt(z)
    return -(mu * y / 2.0) * 2.0 * j1(w) / w


def test_upsilon_three_case_weighting(grid200, exp1_kernel):
    U = r.upsilon_matrix(exp1_kernel)
    assert np.all(np.triu(U, 1) == 0.0)
    # diagonal: dx/2 * k(x_i, x_i) = dx/2 * (-3 x_i) for mu=6, nu=1
    expect_diag = 0.5 * grid200.dx * (-3.0 * grid200.nodes)
    assert np.max(np.abs(np.diag(U) - expect_diag)) < 1e-14
    i, j = 100, 40
    assert U[i, j] == pytest.approx(grid200.dx * exp1_kernel.values[i, j])


def test_upsilon_against_adaptive_quadrature(fine_builds):
    # (Upsilon e_1)(x_i) vs adaptive quadrature of the integral, 1000 nodes
    g = fine_builds["grid"]
    U = r.upsilon_matrix(fine_builds["k6"])
    e1 = np.sqrt(2.0) * np.sin(np.pi * g.nodes)
    Ue1 = U @ e1
    scale = np.max(np.abs(Ue1))
    for i in (333, 666, 999):
        x = g.nodes[i]
        ref, _ = quad(
            lambda y: closed_form(x, y, 6.0) * math.sqrt(2.0) * math.sin(math.pi * y),
            0.0,
            x,
            epsabs=1e-12,
            limit=200,
        )
        assert abs(Ue1[i] - ref) / scale < 1e-4


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
    U = r.upsilon_matrix(exp2_kernel)
    rng = np.random.default_rng(3)
    for n_modes in (1, 2, 3):
        tset = r.build_transform(exp2_kernel, n_modes)
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
        phi_apply_recursive(r.upsilon_matrix(kern), basis, basis.mode(1))


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


def test_scan_marks_inadmissible_row_with_nan(a1_root):
    # scan straddling a root of 1 + a_1(mu) with N = 2: the a_2 entry of the
    # inadmissible row cannot be computed
    rows = r.scan_admissibility(1.0, 1.0, 2, (a1_root - 1e-9, a1_root + 1e-9), 3, nx=80)
    mid = rows[1]
    assert not mid.admissible
    assert math.isfinite(mid.scalars[0])
    assert abs(1.0 + mid.scalars[0]) <= ADMISSIBILITY_FLOOR
    assert math.isnan(mid.scalars[1])
    # and the build raises at that mu, with the scalar the scan recorded
    with pytest.raises(InadmissiblePairError) as exc:
        r.build_transform(r.kernel_table(r.make_grid(1.0, 80), mid.mu, 1.0), 2)
    assert exc.value.index == 1
    assert exc.value.value == mid.scalars[0]


def test_scan_argument_validation():
    with pytest.raises(InvalidParameterError):
        r.scan_admissibility(1.0, 1.0, 1, (1.0, 10.0), 1)
    with pytest.raises(InvalidParameterError):
        r.scan_admissibility(1.0, 1.0, 1, (10.0, 1.0), 5)


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


@settings(max_examples=25, deadline=None)
@given(
    mu=st.floats(1.0, 25.0),
    n_modes=st.integers(1, 3),
    nx=st.integers(40, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_paths_match_dense_oracles(mu, n_modes, nx, seed):
    # every (mu, N) here is admissible with |1 + a_j| >= 0.04
    g = r.make_grid(1.0, nx)
    kern = r.kernel_table(g, mu, 1.0)
    tset = r.build_transform(kern, n_modes)
    basis = tset.basis
    U = r.upsilon_matrix(kern)
    eye = np.eye(nx)
    T = eye + U @ r.projection_matrix(basis).matrix
    Phi = np.column_stack([phi_apply_recursive(U, basis, e) for e in eye])
    v = np.random.default_rng(seed).standard_normal(nx)
    scale = np.max(np.abs(v))

    inv = r.inverse_transform(tset, v)
    assert np.max(np.abs(inv - (v - phi_apply_recursive(U, basis, v)))) <= 1e-12 * scale
    assert np.max(np.abs(r.forward_transform(tset, v) - T @ v)) <= 1e-12 * scale
    assert np.max(np.abs(dense_transform(tset)[1] - Phi)) <= 1e-12 * max(1.0, np.max(np.abs(Phi)))

    # gain against the direct quadrature of k(L, y) against P_N (I - Phi_N)
    lead = r.trapezoid_weights(g) * kern.boundary_row()
    direct = lead @ r.projection_matrix(basis).matrix @ (eye - Phi)
    gain = r.feedback_gain(kern, tset)
    assert np.max(np.abs(gain - direct)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))

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


def _moment_upsilon_gap(mu, nx, n_modes):
    """max |UW - Upsilon W| of the moment-built UW against the dense oracle, and its bound.

    The bound is 1e-12 sum |c_m| max |Upsilon W|, the cancellation of the
    alternating series, plus the smallest normal double for the subnormal
    kernels of a tiny mu.
    """
    kern = r.kernel_table(r.make_grid(1.0, nx), mu, 1.0)
    basis = r.modal_basis(kern.grid, n_modes)
    UW = r.transform._upsilon_modes(kern, r.transform._volterra_moments(basis, kern.order))
    dense = r.upsilon_matrix(kern) @ basis.W
    bound = 1e-12 * np.sum(np.abs(kern.coeffs)) * np.max(np.abs(dense)) + np.finfo(float).tiny
    return np.max(np.abs(UW - dense)), bound


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(0.0, 60.0), nx=st.integers(40, 300), n_modes=st.integers(1, 3))
def test_moment_upsilon_matches_dense_oracle(mu, nx, n_modes):
    gap, bound = _moment_upsilon_gap(mu, nx, n_modes)
    assert gap <= bound


def test_moment_upsilon_matches_dense_oracle_at_large_mu(monkeypatch):
    # mu = 150 has alternating coefficients up to ~800 (order 25); 7-row
    # blocks with a ragged tail exercise the blocking
    monkeypatch.setattr(r.transform, "MOMENT_BLOCK", 7)
    gap, bound = _moment_upsilon_gap(150.0, 300, 3)
    assert gap <= bound
    kern = r.kernel_table(r.make_grid(1.0, 300), 150.0, 1.0)
    tset = r.build_transform(kern, 1)
    assert np.max(np.abs(tset.UW - r.upsilon_matrix(kern) @ tset.basis.W)) <= bound


def test_scan_rows_equal_builds_bit_for_bit():
    # the scan forms its moments once, to its largest order; each admissible
    # row must still equal a build from that sample's own kernel
    nx = 150
    g = r.make_grid(1.0, nx)
    rows = r.scan_admissibility(1.0, 1.0, 3, (-10.0, 62.0), 13, nx=nx)
    orders = set()
    for row in rows:
        kern = r.kernel_table(g, row.mu, 1.0)
        orders.add(kern.order)
        if row.admissible:
            assert row.scalars == tuple(r.build_transform(kern, 3).admissibility)
    assert sum(row.admissible for row in rows) >= 10
    assert len(orders) > 3


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
        got = r.transform._inverse_residual(tset.UW, X, tset.basis)
        assert got >= dense * (1.0 - 1e-10)
        if n_modes == 1:
            assert got == pytest.approx(dense, rel=1e-10)


def _moment_gap(nx, mu, n_modes):
    """Largest gap of the shifted moments to the direct sums, relative to each moment's max."""
    basis = r.modal_basis(r.make_grid(1.0, nx), n_modes)
    order = r.kernel_table(basis.grid, mu, 1.0).order
    got = r.transform._volterra_moments(basis, order)
    ref = volterra_moments(basis, order)
    return max(np.max(np.abs(got[m] - ref[m])) / np.max(np.abs(ref[m])) for m in range(order + 1))


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(12, 300),
    mu=st.floats(0.0, 150.0),
    n_modes=st.integers(1, 3),
    block=st.sampled_from([1, 2, 7, 64, 128, 1000]),
)
# always: one row per block, a ragged tail, exact blocks, one block, at the
# largest mu
@example(nx=60, mu=150.0, n_modes=3, block=1)
@example(nx=300, mu=150.0, n_modes=3, block=7)
@example(nx=256, mu=150.0, n_modes=3, block=128)
@example(nx=300, mu=150.0, n_modes=3, block=1000)
def test_shifted_moments_match_direct_sums(nx, mu, n_modes, block):
    # block 1 leaves nothing to the direct triangle, 7 and 64 leave a ragged
    # tail for most nx, and 1000 >= nx sums everything directly
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(r.transform, "MOMENT_BLOCK", block)
        assert _moment_gap(nx, mu, n_modes) <= 1e-13


def test_moment_m_independent_of_order(monkeypatch):
    # the scan forms its moments to its largest order, a build to its own:
    # moment m must not depend on which
    monkeypatch.setattr(r.transform, "MOMENT_BLOCK", 16)
    basis = r.modal_basis(r.make_grid(1.0, 150), 3)
    full = r.transform._volterra_moments(basis, KERNEL_MAX_ORDER)
    assert np.all(np.isfinite(full))
    for m in (0, 1, 2, 3, 5, 8, 12, 19, 25, 40, 77, 150, KERNEL_MAX_ORDER):
        assert np.array_equal(r.transform._volterra_moments(basis, m)[m], full[m])


def test_setup_memory_linear_in_nx():
    # kernel, build and gain at nx = 64000 allocate at most twice the
    # moments' 8 nx N (M + 1) bytes: no nx x nx array, and no nx x MOMENT_BLOCK
    # one (65 MB here)
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
    assert peak < 16 * nx * n_modes * (kern.order + 1)
