import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import j1

import oracles
import rdstab as r
from rdstab.errors import ConvergenceError, DimensionError, InvalidParameterError


def closed_form(x, y, mu, nu):
    """Bessel closed form of the series, point by point, apart from ``Kernel.values``."""
    z = (mu / nu) * (x * x - y * y)
    if z == 0.0:
        return -mu * y / (2.0 * nu)
    w = math.sqrt(z)
    return -(mu * y / (2.0 * nu)) * 2.0 * j1(w) / w


def test_series_matches_bessel_closed_form():
    for mu, nu in ((6.0, 1.0), (15.0, 1.0), (3.0, 0.5)):
        for x, y in ((0.3, 0.1), (0.7, 0.7), (1.0, 0.45), (1.0, 1.0), (0.2, 0.0)):
            got = oracles.kernel_series(x, y, mu, nu, 60)
            assert got == pytest.approx(closed_form(x, y, mu, nu), abs=1e-12)


def test_series_longdouble_resummation():
    # re-sum the series in extended precision with explicit factorials
    mu, nu, x, y = 15.0, 1.0, 1.0, 0.6
    q = np.longdouble(-mu / (4.0 * nu))
    z = np.longdouble(x * x - y * y)
    total = np.longdouble(0.0)
    for m in range(40):
        total += q**m * z**m / (
            np.longdouble(math.factorial(m)) * np.longdouble(math.factorial(m + 1))
        )
    expected = float(np.longdouble(-mu * y / (2.0 * nu)) * total)
    assert oracles.kernel_series(x, y, mu, nu, 40) == pytest.approx(expected, rel=1e-13)


def test_series_domain_checks():
    with pytest.raises(InvalidParameterError, match="outside the triangle"):
        oracles.kernel_series(0.5, 0.6, 6.0, 1.0, 10)
    with pytest.raises(InvalidParameterError, match="outside the triangle"):
        oracles.kernel_series(0.5, -0.1, 6.0, 1.0, 10)
    with pytest.raises(InvalidParameterError, match="nu must be positive"):
        oracles.kernel_series(0.5, 0.2, 6.0, 0.0, 10)


def test_truncation_orders_frozen():
    # brute-force oracle: smallest M with max increment below 1e-12 on the
    # top grid row gave 9 (mu=6) and 12 (mu=15)
    g = r.make_grid(1.0, 200)
    assert r.kernel_table(g, 6.0, 1.0).order == 9
    assert r.kernel_table(g, 15.0, 1.0).order == 12


def test_truncation_raises_past_cap():
    # the handle is built; the series raises where its order is read, and the
    # table, formed from the closed form, does not read it
    g = r.make_grid(1.0, 50)
    kern = r.kernel_table(g, 1e6, 1e-3)
    with pytest.raises(ConvergenceError):
        kern.order
    with pytest.raises(ConvergenceError):
        oracles.truncate_order(1e6, 1e-3, g)
    assert np.all(np.isfinite(kern.values))
    scale = np.max(np.abs(kern.values))
    for i, j in ((49, 0), (49, 20), (30, 29), (10, 3), (49, 49)):
        expect = closed_form(g.nodes[i], g.nodes[j], 1e6, 1e-3)
        assert kern.values[i, j] == pytest.approx(expect, abs=1e-12 * scale)


# k(1, 0.5) at mu = 2000, nu = 1: -(mu y / (2 nu)) 2 J_1(w) / w with w = sqrt(1500),
# J_1 to 50 digits; a series table in doubles read -3.26 here (kernel_series at order 70: -2.48)
PINNED_MU2000 = -0.83513039108281368


def test_table_right_at_large_mu(tmp_path):
    g = r.make_grid(1.0, 401)
    got = r.kernel_table(g, 2000.0, 1.0).values[400, 200]
    assert got == pytest.approx(PINNED_MU2000, rel=1e-13, abs=0.0)
    assert r.cli.main(["kernel-dump", "--mu", "2000", "--nx", "401", "--out", str(tmp_path)]) == 0
    row = (tmp_path / "kernel.csv").read_text().splitlines()[400].split(",")
    assert float(row[0]) == 1.0 and float(row[1 + 200]) == got


def test_table_that_overflows_refused(tmp_path):
    # I_1 grows like e^w / sqrt(w): at mu = -1e6 the table overflows a double,
    # at mu = -3e5 it does not (the series never converges there)
    g = r.make_grid(1.0, 50)
    kern = r.kernel_table(g, -1e6, 1.0)
    with pytest.raises(InvalidParameterError, match=r"mu=-1000000.0, nu=1.0 on length 1.0"):
        kern.values
    assert np.all(np.isfinite(r.kernel_table(g, -3e5, 1.0).values))
    # the dump forms the table before it writes anything
    out = tmp_path / "kernel"
    assert r.cli.main(["kernel-dump", "--mu=-1e6", "--nx", "50", "--out", str(out)]) == 2
    assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(-10.0, 150.0),
    nu=st.floats(0.1, 5.0),
    length=st.floats(0.3, 3.0),
    nx=st.integers(10, 3000),
)
def test_one_pass_table_matches_two_pass_oracle(mu, nu, length, nx):
    # the order comes from one recurrence over the coefficients; the oracle
    # finds it by a loop over the x = L row's terms of its own
    g = r.make_grid(length, nx)
    assert r.kernel_table(g, mu, nu).order == oracles.truncate_order(mu, nu, g)


def test_table_boundary_conditions_exact(grid200, exp1_kernel, exp2_kernel):
    for kern, mu in ((exp1_kernel, 6.0), (exp2_kernel, 15.0)):
        diag = np.diag(kern.values)
        assert np.max(np.abs(diag + mu * grid200.nodes / 2.0)) == 0.0
        assert np.all(kern.values[:, 0] == 0.0)


def test_table_strictly_lower_triangular(exp1_kernel):
    assert np.all(np.triu(exp1_kernel.values, 1) == 0.0)


def test_pde_residual_second_order(grid200):
    g400 = r.make_grid(1.0, 400)
    for mu in (6.0, 15.0):
        coarse = r.kernel_pde_residual(r.kernel_table(grid200, mu, 1.0))
        fine = r.kernel_pde_residual(r.kernel_table(g400, mu, 1.0))
        assert 3.0 <= coarse / fine <= 5.0


def test_pde_residual_needs_enough_nodes():
    k = r.kernel_table(r.make_grid(1.0, 4), 6.0, 1.0)
    with pytest.raises(DimensionError):
        r.kernel_pde_residual(k)


def test_table_values_read_only(exp1_kernel):
    with pytest.raises(ValueError):
        exp1_kernel.values[0, 0] = 1.0
    with pytest.raises(AttributeError):
        exp1_kernel.values = np.zeros((200, 200))


def test_table_formed_only_when_read(grid200):
    kern = r.kernel_table(grid200, 6.0, 1.0)
    assert "values" not in vars(kern)
    assert kern.values.shape == (grid200.nx, grid200.nx)
    assert "values" in vars(kern)


def test_table_larger_than_memory_refused(grid200, monkeypatch):
    kern = r.kernel_table(grid200, 6.0, 1.0)
    monkeypatch.setattr(r.errors, "_physical_memory", lambda: 8 * 200 * 200 - 1)
    with pytest.raises(InvalidParameterError, match="physical memory"):
        kern.values
    assert "values" not in vars(kern)
    r.feedback_gain(kern, r.build_transform(kern, 1))  # the set-up needs no table


@pytest.mark.parametrize(
    "mu, nu, length",
    [(6.0, 1.0, 1.0), (15.0, 1.0, 1.0), (3.0, 0.5, 2.0), (6.0, 1.0, 4.0), (-8.0, 1.0, 1.0), (-2.0, 0.7, 4.0)],
)
def test_table_matches_series_at_sampled_nodes(mu, nu, length, monkeypatch):
    # 7-row blocks with a ragged tail, so the blocking is exercised
    g = r.make_grid(length, 120)
    monkeypatch.setattr(r.kernel, "BLOCK_ENTRIES", 7 * g.nx)
    kern = r.kernel_table(g, mu, nu)
    assert np.all(np.triu(kern.values, 1) == 0.0)
    assert np.array_equal(np.diag(kern.values), -(mu * g.nodes) / (2.0 * nu))
    scale = np.max(np.abs(kern.values))
    rng = np.random.default_rng(7)
    rows = rng.integers(0, g.nx, 60)
    pairs = [(i, int(rng.integers(0, i + 1))) for i in rows] + [(g.nx - 1, g.nx - 1), (g.nx - 1, 0)]
    for i, j in pairs:
        expect = oracles.kernel_series(g.nodes[i], g.nodes[j], mu, nu, kern.order)
        assert kern.values[i, j] == pytest.approx(expect, rel=1e-13, abs=1e-13 * scale)


def test_non_finite_diffusivity_rejected(grid200):
    for nu in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="nu must be finite"):
            r.kernel_table(grid200, 6.0, nu)


def test_series_formed_only_where_read(monkeypatch, tmp_path):
    # nothing in the package reads the series: with its order made to raise,
    # every design, scan, simulation and kernel dump still runs
    def formed(kern):
        raise ConvergenceError("series formed")

    monkeypatch.setattr(r.kernel.Kernel, "order", property(formed))
    g = r.make_grid(1.0, 60)
    kern = r.kernel_table(g, 15.0, 1.0)
    r.feedback_gain(kern, r.build_transform(kern, 2))
    assert len(r.scan_admissibility(1.0, 1.0, 2, (1.0, 40.0), 5, nx=60)) == 5
    r.design_fixed(1.0, 15.0, 15.0, 2, nx=60, smallness=True)
    r.design_rapid(1.0, 12.0, 1.0, 2.0, nx=60, smallness=True)
    r.design_minimal(1.0, 12.0, 1.0, nx=60, smallness=True)
    r.run_simulation(r.SimulationConfig(nx=60, nt=20, model="nonlinear"), full_state=False)
    # the table comes from the closed form, so its readers need no series
    assert kern.values.shape == (60, 60)
    r.upsilon_matrix(kern)
    r.kernel_pde_residual(kern)
    assert r.cli.main(["kernel-dump", "--mu", "6", "--nx", "60", "--out", str(tmp_path)]) == 0
    assert np.loadtxt(tmp_path / "kernel.csv", delimiter=",").shape == (60, 61)
    with pytest.raises(ConvergenceError, match="series formed"):
        kern.order


def test_series_formed_once():
    kern = r.kernel_table(r.make_grid(1.0, 200), 6.0, 1.0)
    assert vars(kern) == {"mu": 6.0, "nu": 1.0, "grid": kern.grid}
    assert kern.order == 9
    assert vars(kern) == {"mu": 6.0, "nu": 1.0, "grid": kern.grid, "order": 9}
