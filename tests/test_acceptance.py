"""Acceptance gate: one test per release criterion.

Each test prints a single ``ACCEPTANCE CRITERION n: PASS/FAIL`` line on the
real stdout (bypassing capture) so the gate can be read off a plain pytest
run, then asserts the same condition.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import dblquad, solve_ivp
from scipy.special import j1

import rdstab as r
from rdstab.cli import run_experiment
from rdstab.constants import ADMISSIBILITY_FLOOR, REFERENCE_SCALAR_TOL
from rdstab.errors import InadmissiblePairError
from oracles import dense_transform, phi_apply_recursive, upsilon_projected

LAM1 = math.pi**2


def _record(capsys, num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {num}: {status} - {detail}", flush=True)


def test_criterion_01_kernel_correctness(capsys):
    t0 = time.perf_counter()
    diag_errs, col0_exact, ratios = [], [], []
    for mu in (6.0, 15.0):
        res = {}
        for nx in (200, 400):
            g = r.make_grid(1.0, nx)
            kern = r.kernel_table(g, mu, 1.0)
            if nx == 200:
                diag = np.diagonal(kern.values)
                diag_errs.append(float(np.max(np.abs(diag + mu * g.nodes / 2.0))))
                col0_exact.append(bool(np.all(kern.values[:, 0] == 0.0)))
            res[nx] = r.kernel_pde_residual(kern)
        ratios.append(res[200] / res[400])
    elapsed = time.perf_counter() - t0
    ok = (
        max(diag_errs) <= 1e-10
        and all(col0_exact)
        and all(3.0 <= q <= 5.0 for q in ratios)
        and elapsed <= 5.0
    )
    detail = (
        f"diag err {max(diag_errs):.2e} <= 1e-10, k(x,0) exact zero: {all(col0_exact)}, "
        f"residual ratios {ratios[0]:.3f}/{ratios[1]:.3f} in [3,5], {elapsed:.2f}s <= 5s"
    )
    _record(capsys, 1, ok, detail)
    assert ok, detail


def _bessel_kernel(x: float, y: float, mu: float) -> float:
    """Closed-form backstepping kernel for nu = 1: -mu y J1(w)/w, w = sqrt(mu(x^2-y^2))."""
    z = mu * (x * x - y * y)
    if z <= 0.0:
        return -mu * y / 2.0
    w = math.sqrt(z)
    return -mu * y * j1(w) / w


def _continuum_scalars(mu: float, n_modes: int) -> np.ndarray:
    """1 + a_j, j = 1..n_modes, from adaptive quadrature of the continuum integrals.

    With c_ij = int_0^1 e_i(x) int_0^x k(x,y) e_j(y) dy dx and the sine modes
    e_n = sqrt(2) sin(n pi x) on [0, 1], the recursion gives 1 + a_j as the ratio of
    consecutive leading principal minors of I + C.  Independent of rdstab.
    """

    def mode(n, x):
        return math.sqrt(2.0) * math.sin(n * math.pi * x)

    C = np.empty((n_modes, n_modes))
    for i in range(n_modes):
        for j in range(n_modes):
            C[i, j], _ = dblquad(
                lambda y, x: mode(i + 1, x) * _bessel_kernel(x, y, mu) * mode(j + 1, y),
                0.0, 1.0, 0.0, lambda x: x, epsabs=1e-13, epsrel=1e-13,
            )
    minors = [1.0] + [np.linalg.det(np.eye(m) + C[:m, :m]) for m in range(1, n_modes + 1)]
    return np.array([minors[m] / minors[m - 1] for m in range(1, n_modes + 1)])


def test_criterion_02_reference_scalars(capsys):
    """Admissibility scalars 1 + a_j against an independent continuum oracle.

    The oracle evaluates the continuum integrals with the Bessel closed form
    of the kernel (Smyshlyaev & Krstic, IEEE TAC 49(12), 2004); the discrete
    scalars must lie within REFERENCE_SCALAR_TOL of it at nx = 1000 and
    approach it at second order (gap ratio in [3.5, 4.5] from nx = 500).

    Earlier this criterion compared against three quoted constants,
    0.632 / 1.746 / 0.845 (tolerance 5e-3), which no convention reproduces.
    The computed values are 0.616098 / 0.253996 / 0.854036 at nx = 1000,
    within 1.1e-6 of the oracle.  A J1 and an I1 kernel, either kernel sign,
    series orders 0-4 and grids from nx = 5 to 1000 were tried.  1.746 equals
    1 - a_1 at mu = 15 to every quoted digit; 0.845 looks like 0.854 with two
    digits transposed; 0.632 would need mu ~ 5.703 (J1) or ~ 4.278 (I1).
    """
    t0 = time.perf_counter()
    oracle = np.concatenate([_continuum_scalars(6.0, 1), _continuum_scalars(15.0, 2)])
    gaps = {}
    for nx in (500, 1000):
        g = r.make_grid(1.0, nx)
        t6 = r.build_transform(r.kernel_table(g, 6.0, 1.0), 1)
        t15 = r.build_transform(r.kernel_table(g, 15.0, 1.0), 2)
        got = 1.0 + np.concatenate([t6.admissibility, t15.admissibility])
        gaps[nx] = np.abs(got - oracle)
    elapsed = time.perf_counter() - t0
    ratios = gaps[500] / gaps[1000]
    ok = (
        bool(np.all(gaps[1000] <= REFERENCE_SCALAR_TOL))
        and all(3.5 <= q <= 4.5 for q in ratios)
        and elapsed <= 30.0
    )
    detail = (
        f"computed 1+a = {got[0]:.6f}/{got[1]:.6f}/{got[2]:.6f} at nx=1000 vs continuum "
        f"oracle {oracle[0]:.10f}/{oracle[1]:.10f}/{oracle[2]:.10f}: gaps "
        f"{gaps[1000][0]:.1e}/{gaps[1000][1]:.1e}/{gaps[1000][2]:.1e} <= {REFERENCE_SCALAR_TOL}, "
        f"nx 500->1000 gap ratios {ratios[0]:.3f}/{ratios[1]:.3f}/{ratios[2]:.3f} in [3.5,4.5], "
        f"{elapsed:.1f}s <= 30s"
    )
    _record(capsys, 2, ok, detail)
    assert ok, detail


def test_criterion_03_inverse_identity(capsys, fine_builds):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for key in ("t6", "t15"):
        tset = fine_builds[key]
        eye = np.eye(tset.grid.nx)
        T, phi = dense_transform(tset)
        left = (eye - phi) @ T
        right = T @ (eye - phi)
        for _ in range(10):
            v = rng.standard_normal(tset.grid.nx)
            scale = float(np.max(np.abs(v)))
            worst = max(
                worst,
                float(np.max(np.abs(left @ v - v))) / scale,
                float(np.max(np.abs(right @ v - v))) / scale,
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 30.0
    detail = f"worst relative residual {worst:.2e} <= 1e-8 over 10 vectors x 2 parameter sets, {elapsed:.1f}s <= 30s"
    _record(capsys, 3, ok, detail)
    assert ok, detail


def test_criterion_04_recursion_paths_agree(capsys, grid200, exp2_kernel):
    worst = 0.0
    for n_modes in (1, 2, 3):
        tset = r.build_transform(exp2_kernel, n_modes)
        U = upsilon_projected(exp2_kernel, tset.basis)
        phi = dense_transform(tset)[1]
        cols = np.empty_like(phi)
        for j in range(grid200.nx):
            e = np.zeros(grid200.nx)
            e[j] = 1.0
            cols[:, j] = phi_apply_recursive(U, tset.basis, e)
        worst = max(worst, float(np.max(np.abs(phi - cols))))
    ok = worst <= 1e-10
    detail = f"built vs per-vector recursion, max entrywise gap {worst:.2e} <= 1e-10 for N in {{1,2,3}}"
    _record(capsys, 4, ok, detail)
    assert ok, detail


def test_criterion_05_experiment_1(capsys):
    t0 = time.perf_counter()
    traj, report, fit = run_experiment("exp1")
    _, _, fit_unc = run_experiment("exp1_uncontrolled")
    elapsed = time.perf_counter() - t0
    rho = LAM1 - 12.0 + 3.0 * 0.75
    decayed = traj.l2_norms[-1] < traj.l2_norms[0]
    ok = (
        abs(report.rho - rho) < 1e-12
        and fit.rate >= 0.9 * rho
        and decayed
        and fit_unc.rate < 0.0
        and elapsed <= 180.0
    )
    detail = (
        f"controlled rate {fit.rate:.4f} >= 0.9*rho = {0.9 * rho:.4f}, final<initial: {decayed}, "
        f"uncontrolled rate {fit_unc.rate:.4f} < 0, {elapsed:.1f}s <= 180s"
    )
    _record(capsys, 5, ok, detail)
    assert ok, detail


def test_criterion_06_experiment_2(capsys):
    t0 = time.perf_counter()
    traj_u, _, _ = run_experiment("exp2_uncontrolled", full_state=True)  # reads states[-2]
    traj_c, _, fit_c = run_experiment("exp2")
    elapsed = time.perf_counter() - t0
    dt = traj_u.times[1] - traj_u.times[0]
    drift = float(np.max(np.abs(traj_u.states[-1] - traj_u.states[-2]))) / dt
    final_ratio = traj_c.l2_norms[-1] / traj_c.l2_norms[0]
    ok = (
        traj_u.l2_norms[-1] >= 0.5
        and drift <= 1e-3
        and fit_c.rate > 0.0
        and final_ratio <= 1e-2
        and elapsed <= 480.0
    )
    detail = (
        f"uncontrolled settles at ||u|| = {traj_u.l2_norms[-1]:.3f} >= 0.5 with drift {drift:.1e} <= 1e-3; "
        f"controlled rate {fit_c.rate:.4f} > 0 and final/initial {final_ratio:.1e} <= 1e-2, {elapsed:.1f}s <= 480s"
    )
    _record(capsys, 6, ok, detail)
    assert ok, detail


def test_criterion_07_target_plant_consistency(capsys):
    t0 = time.perf_counter()

    def worst_mismatch(n):
        c = r.SimulationConfig(
            nu=1.0, alpha=12.0, mu=6.0, n_modes=1, nx=n, nt=n, tmax=1.5,
            model="linear", dynamics="closed_loop", u0="exp1",
        )
        _, _, mismatch = r.run_target_consistency(c)
        return float(np.max(mismatch))

    coarse, fine = worst_mismatch(250), worst_mismatch(500)
    elapsed = time.perf_counter() - t0
    ratio = coarse / fine
    ok = fine <= 0.05 and ratio >= 1.8
    detail = (
        f"max mismatch {fine:.5f} <= 0.05 at 500x500, refinement ratio {ratio:.3f} >= 1.8, {elapsed:.1f}s"
    )
    _record(capsys, 7, ok, detail)
    assert ok, detail


def test_criterion_08_second_order_convergence(capsys):
    t0 = time.perf_counter()

    def mms_error(n):
        c = r.SimulationConfig(
            nu=1.0, alpha=2.0, mu=0.0, nx=n, nt=n, tmax=1.0,
            model="linear", dynamics="open_loop",
            u0=lambda x: np.sin(np.pi * x),
            forcing=lambda x, t: (np.pi**2 - 3.0) * np.exp(-t) * np.sin(np.pi * x),
        )
        traj = r.run_simulation(c)
        exact = math.exp(-1.0) * np.sin(np.pi * r.make_grid(1.0, n).nodes)
        return float(np.max(np.abs(traj.states[-1] - exact)))

    errs = [mms_error(n) for n in (100, 200, 400)]
    elapsed = time.perf_counter() - t0
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = all(3.5 <= q <= 4.5 for q in ratios) and elapsed <= 60.0
    detail = (
        f"manufactured-solution error ratios {ratios[0]:.3f}/{ratios[1]:.3f} in [3.5,4.5] "
        f"per combined halving, {elapsed:.1f}s <= 60s"
    )
    _record(capsys, 8, ok, detail)
    assert ok, detail


def test_criterion_09_design_formulas(capsys):
    lam = r.eigenvalue
    checked = 0
    exact = True
    for nu in (0.5, 1.0, 2.0, 3.0, 4.0):
        for alpha in (0.0, 2.0, 5.0, 12.0, 25.0):
            for mu in (1.0, 3.0, 8.0, 20.0, 60.0):
                denom = mu + nu * lam(1, 1.0) - alpha
                if denom <= 0:
                    continue
                n = r.min_modes_rapid(nu, alpha, mu)
                bound = max(mu / (2 * nu * lam(1, 1.0)) - 1, mu / denom - 1)
                exact &= n > bound and (n == 1 or n - 1 <= bound)
                checked += 1
    _, interval, _ = r.minimal_mode_setup(1.0, 12.0)
    want = (8.0 * (12.0 - LAM1) / 3.0, 8.0 * LAM1)
    rel = max(
        abs(interval[0] - want[0]) / want[0], abs(interval[1] - want[1]) / want[1]
    )
    ok = exact and checked >= 100 and rel <= 1e-9
    detail = (
        f"mode-count minimality exact at {checked} lattice points (>= 100); "
        f"single-mode interval matches (8(12-pi^2)/3, 8pi^2) to {rel:.1e} <= 1e-9"
    )
    _record(capsys, 9, ok, detail)
    assert ok, detail


def test_criterion_10_bernoulli_envelope(capsys):
    rng = np.random.default_rng(10)
    t_eval = np.linspace(0.0, 2.0, 41)
    dominated = True
    flagged = True
    for _ in range(50):
        a = rng.uniform(0.5, 5.0)
        b = rng.uniform(0.1, 2.0)
        d = rng.uniform(0.1, 0.9)
        y0 = rng.uniform(0.05, 0.999) * d * math.sqrt(a / b)
        ok_flag, bound = r.bernoulli_envelope(a, b, d, y0, t_eval)
        dominated &= ok_flag
        sol = solve_ivp(
            lambda t, y: -a * y + b * y**3, (0.0, t_eval[-1]), [y0],
            t_eval=t_eval, rtol=1e-10, atol=1e-12,
        )
        dominated &= bool(np.all(sol.y[0] <= bound + 1e-8))
        bad_flag, _ = r.bernoulli_envelope(a, b, d, 1.5 * d * math.sqrt(a / b), 0.0)
        flagged &= not bad_flag
    ok = dominated and flagged
    detail = (
        f"integrated solutions stay below the envelope for 50 admissible draws: {dominated}; "
        f"every y0 = 1.5*d*sqrt(a/b) flagged inadmissible: {flagged}"
    )
    _record(capsys, 10, ok, detail)
    assert ok, detail


def test_criterion_11_inadmissibility_handling(capsys, a1_root):
    rows = r.scan_admissibility(1.0, 1.0, 1, (1.0, 40.0), 40, nx=120)
    brackets = r.sign_change_brackets(rows)
    found = any(j == 1 and 20.0 < lo < hi < 40.0 for j, lo, hi in brackets)
    # at the root of 1 + a_1 the scan records a_1 and NaN after it, and the
    # build refuses the pair at index 1
    mid = r.scan_admissibility(1.0, 1.0, 2, (a1_root - 1e-9, a1_root + 1e-9), 3, nx=80)[1]
    marked = (not mid.admissible and math.isfinite(mid.scalars[0])
              and math.isnan(mid.scalars[1]))
    raised = False
    try:
        r.build_transform(r.kernel_table(r.make_grid(1.0, 80), a1_root, 1.0), 2)
    except InadmissiblePairError as err:
        raised = err.index == 1 and abs(1.0 + err.value) <= ADMISSIBILITY_FLOOR
    ok = found and marked and raised
    bs = ", ".join(f"({lo:.2f}, {hi:.2f})" for _, lo, hi in brackets)
    detail = (
        f"scan brackets a sign change of 1+a_1 at {bs or 'none'}; "
        f"at mu = {a1_root:.10f} the scan row is (finite a_1, NaN): {marked}, "
        f"and building the pair raises the inadmissible-pair error at j = 1: {raised}"
    )
    _record(capsys, 11, ok, detail)
    assert ok, detail
