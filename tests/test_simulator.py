import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rdstab as r
import rdstab.simulator
from rdstab.cli import EXPERIMENT_PRESETS
from rdstab.errors import (
    DimensionError,
    InadmissiblePairError,
    InvalidParameterError,
    NewtonDivergenceError,
    NonFiniteStateError,
    SolverError,
    check_run_fits,
)
from rdstab.simulator import DYNAMICS_MODES
from oracles import (
    assemble_A,
    closed_loop_matrix,
    dense_newton_step,
    newton_step_tol,
    reference_march,
)


def cfg(**kw):
    base = dict(nu=1.0, alpha=0.0, mu=0.0, n_modes=1, nx=60, nt=40, tmax=0.5,
                model="linear", dynamics="open_loop")
    base.update(kw)
    return r.SimulationConfig(**base)


class TestConfig:
    def test_dt(self):
        assert cfg(nt=101, tmax=1.0).dt == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(nu=0.0),
            dict(length=-1.0),
            dict(nx=2),
            dict(nt=1),
            dict(tmax=0.0),
            dict(model="cubic"),
            dict(dynamics="rolled"),
            dict(dynamics="paper_faithful"),
            dict(newton_tol=0.0),
            dict(newton_max_iter=0),
            dict(dynamics="plant"),
            dict(n_modes=0, dynamics="closed_loop"),
            dict(model="nonlinear", forcing=lambda x, t: x),
            dict(nu=math.nan),
            dict(alpha=math.nan),
            dict(mu=math.nan),
            dict(length=math.inf),
            dict(tmax=math.inf),
            dict(newton_tol=math.nan),
            dict(forcing=1),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            cfg(**bad).validate()

    @pytest.mark.parametrize(
        "name, value",
        [("nx", 100.5), ("nt", "abc"), ("n_modes", 1.5), ("newton_max_iter", 2.5),
         ("nt", True), ("n_modes", np.float64(2.0))],
    )
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
            cfg(**{name: value}).validate()

    @pytest.mark.parametrize(
        "name, value",
        [("nu", "1"), ("alpha", None), ("mu", [6.0]), ("length", True), ("tmax", "abc"),
         ("newton_tol", "x")],
    )
    def test_rejects_non_real_scalars(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"{name} must be a real number"):
            cfg(**{name: value}).validate()

    def test_accepts_integer_and_numpy_scalars(self):
        cfg(nu=1, alpha=np.float32(2.0), mu=np.int64(6), tmax=np.float64(0.5)).validate()

    def test_accepts_numpy_integer_counts(self):
        cfg(nx=np.int64(60), nt=np.int32(40), n_modes=np.int16(2),
            newton_max_iter=np.int64(5)).validate()

    def test_accepts_defaults(self):
        c = r.SimulationConfig(nu=1.0, alpha=12.0, mu=6.0)
        c.validate()
        assert c.dynamics == "closed_loop"

    def test_open_loop_needs_no_mode(self):
        assert r.run_simulation(cfg(n_modes=0, nt=5)).nt == 5

    @pytest.mark.parametrize("dynamics", ["closed_loop", "open_loop"], ids=["feedback", "off"])
    def test_refuses_run_larger_than_memory(self, dynamics):
        # 8 * 1e14 bytes of state history, refused before any set-up; a run
        # without the history is never started at these sizes (1e14 node-steps)
        c = cfg(nx=10**7, nt=10**7, alpha=12.0, mu=6.0, dynamics=dynamics)
        c.validate()
        with pytest.raises(InvalidParameterError, match="physical memory"):
            check_run_fits(c.nx, c.n_modes, c.nt, histories=1)
        with pytest.raises(InvalidParameterError, match="physical memory"):
            r.run_simulation(c)

    def test_states_alone_count_against_memory(self, monkeypatch):
        # set-up keeps only nx x N factors: a history that fits passes even where
        # it plus an nx x nx kernel table would not
        c = cfg(nx=10**6, nt=10, mu=6.0, dynamics="closed_loop")
        states = 8 * c.nt * c.nx
        monkeypatch.setattr(rdstab.errors, "_physical_memory", lambda: states + 4 * c.nx**2)
        check_run_fits(c.nx, c.n_modes, c.nt, histories=1)
        monkeypatch.setattr(rdstab.errors, "_physical_memory", lambda: states - 1)
        with pytest.raises(InvalidParameterError, match="physical memory"):
            check_run_fits(c.nx, c.n_modes, c.nt, histories=1)

    def test_history_counts_only_where_kept(self, monkeypatch):
        # nt = 400 levels, so that the history outweighs the records and the
        # working set of 8 N + 32 vectors of nx, which count either way
        c = cfg(alpha=12.0, mu=6.0, dynamics="closed_loop", nt=400)
        monkeypatch.setattr(rdstab.errors, "_physical_memory", lambda: 8 * c.nt * c.nx - 1)
        assert r.run_simulation(c, full_state=False).nt == c.nt
        with pytest.raises(InvalidParameterError, match="physical memory"):
            r.run_simulation(c)

    def test_memory_check_skipped_without_sysconf(self, monkeypatch):
        def unsupported(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(rdstab.errors.os, "sysconf", unsupported)
        check_run_fits(10**7, 1, 10**7, histories=1)


class TestInitialState:
    def test_presets(self):
        g = r.make_grid(1.0, 101)
        x = g.nodes
        u1 = r.initial_state(cfg(u0="exp1"), g)
        assert np.allclose(u1, 10.0 * x * (x - 0.5) * (x - 1.0) ** 2)
        assert u1[0] == 0.0 and u1[-1] == 0.0
        u2 = r.initial_state(cfg(u0="exp2"), g)
        assert np.allclose(u2, np.sin(2 * np.pi * x) - 0.5 * np.sin(3 * np.pi * x))
        with pytest.raises(InvalidParameterError):
            r.initial_state(cfg(u0="exp9"), g)

    def test_dict_spec(self):
        g = r.make_grid(1.0, 101)
        x = g.nodes
        u = r.initial_state(cfg(u0={"sine_coeffs": [0.0, 2.0]}), g)
        assert np.allclose(u, 2.0 * math.sqrt(2.0) * np.sin(2 * np.pi * x))
        u = r.initial_state(cfg(u0={"poly_coeffs": [1.0, 0.0, -1.0]}), g)
        assert np.allclose(u, 1.0 - x**2)
        u = r.initial_state(cfg(u0={"sine_coeffs": [1.0], "poly_coeffs": [0.5]}), g)
        assert np.allclose(u, math.sqrt(2.0) * np.sin(np.pi * x) + 0.5)
        with pytest.raises(InvalidParameterError):
            r.initial_state(cfg(u0={"fourier": [1.0]}), g)

    def test_callable_and_array(self):
        g = r.make_grid(1.0, 31)
        u = r.initial_state(cfg(u0=lambda x: x * (1 - x)), g)
        assert np.allclose(u, g.nodes * (1 - g.nodes))
        samples = np.linspace(0, 1, 31) ** 2
        assert np.array_equal(r.initial_state(cfg(u0=samples), g), samples)
        with pytest.raises(DimensionError):
            r.initial_state(cfg(u0=np.zeros(30)), g)
        with pytest.raises(InvalidParameterError):
            r.initial_state(cfg(u0=np.full(31, np.nan)), g)
        with pytest.raises(InvalidParameterError):
            r.initial_state(cfg(u0=lambda x: np.full_like(x, np.inf)), g)


def discrete_eigenvalue(j, grid):
    # exact eigenvalue of the 3-point Dirichlet Laplacian for mode j
    th = j * np.pi * grid.dx / grid.length
    return (2.0 - 2.0 * math.cos(th)) / grid.dx**2


class TestAssembleA:
    def test_plant_eigenstructure(self):
        g = r.make_grid(1.0, 80)
        A = assemble_A(2.0, 5.0, 0.0, g, None, "open_loop")
        e2 = r.modal_basis(g, 2).mode(2)
        want = (2.0 * discrete_eigenvalue(2, g) - 5.0) * e2
        assert np.max(np.abs((A @ e2)[1:-1] - want[1:-1])) < 1e-10

    def test_projected_shift_on_low_modes_only(self):
        g = r.make_grid(1.0, 80)
        P = r.projection_matrix(r.modal_basis(g, 1))
        A = assemble_A(1.0, 12.0, 6.0, g, P, "target")
        basis2 = r.modal_basis(g, 2)
        e1, e2 = basis2.mode(1), basis2.mode(2)
        lam1h = discrete_eigenvalue(1, g)
        lam2h = discrete_eigenvalue(2, g)
        assert np.max(np.abs((A @ e1)[1:-1] - (lam1h - 12.0 + 6.0) * e1[1:-1])) < 1e-9
        assert np.max(np.abs((A @ e2)[1:-1] - (lam2h - 12.0) * e2[1:-1])) < 1e-9

    def test_boundary_rows_identity(self):
        g = r.make_grid(1.0, 40)
        A = assemble_A(1.0, 3.0, 0.0, g, None, "closed_loop")
        eye_row = np.zeros(40)
        eye_row[0] = 1.0
        assert np.array_equal(A[0], eye_row)
        assert A[-1, -1] == 1.0 and np.all(A[-1, :-1] == 0.0)

    def test_mu_zero_modes_coincide(self):
        g = r.make_grid(1.0, 40)
        P = r.projection_matrix(r.modal_basis(g, 1))
        A1 = assemble_A(1.0, 3.0, 0.0, g, P, "target")
        A2 = assemble_A(1.0, 3.0, 0.0, g, None, "open_loop")
        assert np.array_equal(A1, A2)
        # the closed loop has no mu*P_N whatever mu
        assert np.array_equal(assemble_A(1.0, 3.0, 6.0, g, None, "closed_loop"), A2)

    def test_needs_projection(self):
        g = r.make_grid(1.0, 40)
        with pytest.raises(InvalidParameterError):
            assemble_A(1.0, 3.0, 6.0, g, None, "target")
        P_small = r.projection_matrix(r.modal_basis(r.make_grid(1.0, 30), 1))
        with pytest.raises(DimensionError):
            assemble_A(1.0, 3.0, 6.0, g, P_small, "target")
        with pytest.raises(InvalidParameterError):
            assemble_A(1.0, 3.0, 6.0, g, None, "rolled")


class TestStepLinear:
    def setup_method(self):
        # the exp1 closed loop on 30 nodes: the gain row sits inside C
        self.c, self.g, _, self.gain = _stepper_case("closed_loop", nx=30, alpha=12.0, mu=6.0,
                                                     n_modes=1, nt=11, tmax=0.1)
        self.stepper = rdstab.simulator._Stepper(self.c, self.g, None, self.gain)

    def test_zero_fixed_point(self):
        u = np.zeros(self.g.nx)
        out = self.stepper.solve(rdstab.simulator._interior(2.0 * u - self.stepper.matvec(u)))
        assert np.all(out == 0.0)

    def test_boundary_imposed_exactly(self):
        # any interior right-hand side: the solution meets u_0 = 0 and u_L = g(u)
        rhs = rdstab.simulator._interior(np.random.default_rng(3).standard_normal(self.g.nx))
        out = self.stepper.solve(rhs)
        scale = np.max(np.abs(out))
        assert abs(out[0]) <= 1e-14 * scale
        assert abs(out[-1] - self.gain @ out) <= 1e-13 * scale
        assert self.gain @ out != 0.0

    def test_heat_decay_rate(self):
        # pure heat mode decays like exp(-pi^2 t)
        c = cfg(nx=400, nt=400, tmax=0.1, u0={"sine_coeffs": [1.0]})
        traj = r.run_simulation(c)
        ratio = traj.l2_norms[-1] / traj.l2_norms[0]
        assert ratio == pytest.approx(math.exp(-math.pi**2 * 0.1), rel=1e-4)

    def test_matches_hand_built_crank_nicolson(self):
        # independent dense reference assembled from scratch
        nu, alpha, nx, nt, tmax = 1.3, 2.0, 20, 6, 0.3
        g = r.make_grid(1.0, nx)
        dx, dt = g.dx, tmax / (nt - 1)
        main = np.full(nx, 2.0 * nu / dx**2 - alpha)
        off = np.full(nx - 1, -nu / dx**2)
        A = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
        A[0, :] = 0.0
        A[0, 0] = 1.0
        A[-1, :] = 0.0
        A[-1, -1] = 1.0
        u = r.initial_state(cfg(u0="exp1"), g)
        states = [u]
        for _ in range(nt - 1):
            rhs = (np.eye(nx) - 0.5 * dt * A) @ u
            rhs[0] = 0.0
            rhs[-1] = 0.0
            u = np.linalg.solve(np.eye(nx) + 0.5 * dt * A * _mask(nx), rhs)
            u[0] = 0.0
            u[-1] = 0.0
            states.append(u)
        traj = r.run_simulation(cfg(nu=nu, alpha=alpha, nx=nx, nt=nt, tmax=tmax))
        assert np.max(np.abs(np.asarray(states) - traj.states)) < 1e-11

    def test_run_matches_public_step_with_feedback(self, exp1_kernel, exp1_tset, grid200):
        # the gain is designed at mu = 6; the plant operator has no mu*P_N
        c = cfg(nu=1.0, alpha=12.0, mu=6.0, n_modes=1, nx=200, nt=30, tmax=0.2,
                dynamics="closed_loop", u0="exp1")
        traj = r.run_simulation(c)
        A = assemble_A(1.0, 12.0, 0.0, grid200, None, "open_loop")
        gain = r.feedback_gain(exp1_kernel, exp1_tset)
        # dense implicit closed loop: the last row is the boundary law u_L - g(u) = 0
        n = grid200.nx
        C_plus = np.eye(n) + 0.5 * c.dt * A
        C_minus = np.eye(n) - 0.5 * c.dt * A
        C_plus[0] = np.eye(n)[0]
        C_plus[-1] = np.eye(n)[-1] - gain
        u = r.initial_state(c, grid200)
        for k in range(c.nt - 1):
            rhs = C_minus @ u
            rhs[0] = rhs[-1] = 0.0
            u = np.linalg.solve(C_plus, rhs)
            assert np.max(np.abs(u - traj.states[k + 1])) < 1e-9


def _mask(nx):
    # zero the dt*A contribution out of the constraint rows
    m = np.ones((nx, nx))
    m[0, :] = 0.0
    m[-1, :] = 0.0
    return m


class TestStepNonlinear:
    """``_newton_step`` on the exp1 closed loop against dense solves of ``closed_loop_matrix``."""

    def setup_method(self):
        self.c, self.g, _, self.gain = _stepper_case("closed_loop", nx=60, alpha=12.0, mu=6.0,
                                                     n_modes=1, nt=11, tmax=0.1,
                                                     model="nonlinear")
        self.stepper = rdstab.simulator._Stepper(self.c, self.g, None, self.gain)
        self.C = closed_loop_matrix(self.c, self.g, None, self.gain)

    def step(self, u, config=None):
        return rdstab.simulator._newton_step(self.stepper, u, config or self.c, 0)

    def linear_step(self, u):
        return np.linalg.solve(self.C, rdstab.simulator._interior(2.0 * u - self.C @ u))

    def test_zero_state_takes_no_solve(self):
        # the predictor is exact at u = 0, and the certified bound accepts it
        out, iters = self.step(np.zeros(60))
        assert np.all(out == 0.0)
        assert iters == 0

    def test_small_amplitude_matches_linear(self):
        u0 = 1e-4 * math.sqrt(2.0) * np.sin(np.pi * self.g.nodes)
        nl, iters = self.step(u0)
        assert np.max(np.abs(nl - self.linear_step(u0))) < 1e-12
        assert iters <= 3

    def test_cubic_term_damps(self):
        u0 = 2.0 * np.sin(np.pi * self.g.nodes)
        nl, _ = self.step(u0)
        assert r.l2_norm(nl, self.g) < r.l2_norm(self.linear_step(u0), self.g)
        assert np.max(np.abs(nl - dense_newton_step(self.C, u0, self.c)[0])) < 1e-12

    def test_quadratic_convergence_budget(self):
        u0 = 0.1 * np.sin(np.pi * self.g.nodes)
        _, iters = self.step(u0)
        assert iters <= 5

    def test_budget_exhaustion(self):
        u0 = 2.0 * np.sin(np.pi * self.g.nodes)
        with pytest.raises(NewtonDivergenceError) as exc:
            self.step(u0, replace(self.c, newton_max_iter=1))
        assert len(exc.value.history) == 1

    def test_feedback_requires_operators(self):
        # the closed loop needs a mode to design its gain from; sizes and modes are checked
        with pytest.raises(InvalidParameterError):
            r.run_simulation(replace(self.c, n_modes=0))
        with pytest.raises(InvalidParameterError):
            r.run_simulation(replace(self.c, dynamics="sliding"))
        with pytest.raises(DimensionError):
            r.run_simulation(replace(self.c, u0=np.zeros(59)))


def _stepper_case(dynamics, nx=50, mu=15.0, n_modes=2, **kw):
    c = cfg(**{**dict(nu=1.0, alpha=15.0, mu=mu, n_modes=n_modes, nx=nx, nt=40, tmax=0.5,
                      dynamics=dynamics), **kw})
    g = r.make_grid(1.0, nx)
    P = r.projection_matrix(r.modal_basis(g, n_modes)) if dynamics == "target" else None
    gain = rdstab.simulator._feedback_row(c, g) if dynamics == "closed_loop" else None
    return c, g, P, gain


# a core that pttrf refuses, so it takes the pivoted LU: 1 + dt/2 (nu pi^2 - alpha) < 0
PIVOTED_CORE = dict(alpha=2000.0, nt=5, tmax=1.0)
LU_CORE = dict(PIVOTED_CORE, mu=15.0, n_modes=2, nx=20, u0={"sine_coeffs": [0.1, 0.05]})


class TestStepper:
    # dynamics -> rank k of the low-rank term at N = 2, on a positive definite core
    # and on the pivoted one
    CASES = [
        pytest.param(dynamics, k, core, id=f"{dynamics}-{k}" + ("-pivoted" if core else ""))
        for core in ({}, PIVOTED_CORE)
        for dynamics, k in (("open_loop", 0), ("closed_loop", 1), ("target", 2))
    ]

    @pytest.mark.parametrize("dynamics, k, core", CASES)
    def test_solve_matches_dense(self, dynamics, k, core):
        c, g, P, gain = _stepper_case(dynamics, **core)
        stepper = rdstab.simulator._Stepper(c, g, P, gain)
        assert (0 if stepper.U is None else stepper.U.shape[1]) == k
        assert (stepper.lu is None) == (not core)
        # the closed-loop operator assembled densely from the reference A
        C = closed_loop_matrix(c, g, P, gain)
        rng = np.random.default_rng(k)
        for _ in range(3):
            rhs = rng.standard_normal(g.nx)
            kept = rhs.copy()
            shift = rng.uniform(0.0, 10.0, g.nx)
            C_shift = C + np.diag(np.r_[0.0, shift[1:-1], 0.0])
            for x, want in ((stepper.solve(rhs), np.linalg.solve(C, rhs)),
                            (stepper.solve(rhs, shift), np.linalg.solve(C_shift, rhs))):
                assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
            assert np.array_equal(rhs, kept)
        v = rng.standard_normal(g.nx)
        assert np.max(np.abs(stepper.matvec(v) - C @ v)) <= 1e-12 * np.max(np.abs(C @ v))

    def test_solve_leaves_rhs_and_operator_alone(self):
        c, g, P, gain = _stepper_case("target")
        stepper = rdstab.simulator._Stepper(c, g, P, gain)
        rhs, shift = np.ones(g.nx), np.full(g.nx, 2.0)
        first = stepper.solve(rhs, shift), stepper.solve(rhs)
        assert np.all(rhs == 1.0) and np.all(shift == 2.0)
        assert np.array_equal(stepper.block[:, 1:], stepper.U)
        assert np.array_equal(first[0], stepper.solve(rhs, shift))
        assert np.array_equal(first[1], stepper.solve(rhs))

    def test_singular_closed_loop_raises_solver_error(self):
        # the gain e_L turns the boundary row into u_L - u_L = 0
        c, g, _, _ = _stepper_case("closed_loop")
        e_L = np.zeros(g.nx)
        e_L[-1] = 1.0
        with pytest.raises(SolverError, match="capacitance"):
            rdstab.simulator._Stepper(c, g, None, e_L)

    def test_factor_info_raises_solver_error(self, monkeypatch):
        # pttrf refuses this core, so it goes to the pivoted LU
        _fail_lapack(monkeypatch, "dgttrf", after=0)
        with pytest.raises(SolverError, match="dgttrf returned info = 1") as exc:
            r.run_simulation(cfg(dynamics="closed_loop", **LU_CORE))
        # the core is factored at set-up, before the march has a level to report
        assert not hasattr(exc.value, "partial")

    @pytest.mark.parametrize("routine, model, full_state", [
        pytest.param(routine, model, full_state,
                     id=f"{routine}-{model}" + ("" if full_state else "-no_history"))
        for full_state in (True, False)
        for routine, model in (("dpttrs", "linear"), ("dptsv", "nonlinear"),
                               ("dgttrs", "linear"), ("dgtsv", "nonlinear"))
    ])
    def test_march_info_raises_solver_error_with_partial(self, monkeypatch, routine, model,
                                                         full_state):
        # dpt* run on the positive definite core, dgt* on the one that pttrf refuses
        core = LU_CORE if routine.startswith("dgt") else dict(alpha=12.0, mu=6.0)
        c = cfg(model=model, dynamics="closed_loop", **core)
        clean = r.run_simulation(c)
        # the *trs routine runs once at set-up (C^{-1} U), then once per step;
        # the *sv routine once per Newton iteration
        if model == "linear":
            good_calls = 1 + 2
        else:
            good_calls = int(clean.newton_iters[1:3].sum())
        _fail_lapack(monkeypatch, routine, after=good_calls)
        with pytest.raises(SolverError, match=f"{routine} returned info = 1") as exc:
            r.run_simulation(c, full_state=full_state)
        # steps 0 and 1 completed, step 2 failed
        partial = exc.value.partial
        assert partial.nt == 3
        assert np.array_equal(partial.states, clean.states[:3] if full_state else clean.states[2:3])
        for name in ("times", "l2_norms", "h1_norms", "newton_iters"):
            assert np.array_equal(getattr(partial, name), getattr(clean, name)[:3]), name
        # a product over 3 levels may round apart from one over the whole block
        assert np.allclose(partial.controls, clean.controls[:3], rtol=1e-14, atol=0.0)

    def test_lapack_info_exits_4(self, monkeypatch, capsys):
        # the first solve of each path fails: simulate's defaults give a positive
        # definite core, and PIVOTED_CORE's alpha and dt one that pttrf refuses
        for routine, flags in (("dpttrs", []), ("dgttrs", ["--alpha", "2000", "--nt", "5"])):
            _fail_lapack(monkeypatch, routine, after=0)
            assert r.cli.main(["simulate", "--nx", "40", "--nt", "10", *flags]) == 4
            assert f"{routine} returned info = 1" in capsys.readouterr().err

    def test_refused_core_takes_the_pivoted_lu(self, monkeypatch):
        # the LU path is chosen by pttrf's info alone, and it carries no inverse bound
        c, g, P, gain = _stepper_case("closed_loop", model="nonlinear")
        assert rdstab.simulator._Stepper(c, g, P, gain).lu is None
        _fail_lapack(monkeypatch, "dpttrf", after=0)
        stepper = rdstab.simulator._Stepper(c, g, P, gain)
        assert stepper.ldl is None and stepper.inv_bound == math.inf
        C = closed_loop_matrix(c, g, P, gain)
        rhs = np.random.default_rng(5).standard_normal(g.nx)
        assert np.linalg.norm(stepper.solve(rhs) - np.linalg.solve(C, rhs)) <= (
            1e-12 * np.linalg.norm(np.linalg.solve(C, rhs)))

    @pytest.mark.parametrize("preset", sorted(EXPERIMENT_PRESETS))
    def test_positive_definite_core_never_pivots(self, monkeypatch, preset):
        for routine in ("dgttrf", "dgttrs", "dgtsv"):
            monkeypatch.setattr(rdstab.simulator, routine, _refuse)
        c = r.SimulationConfig(nx=300, nt=300, **EXPERIMENT_PRESETS[preset])
        assert np.isfinite(r.run_simulation(c, full_state=False).l2_norms).all()


def _refuse(*args, **kwargs):
    raise AssertionError("a positive definite core called the pivoted LU")


def _fail_lapack(monkeypatch, routine, after):
    """Make ``rdstab.simulator.<routine>`` report info = 1 from call ``after + 1`` on."""
    real = getattr(rdstab.simulator, routine)
    calls = []

    def failing(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(routine)
        return out if len(calls) <= after else (*out[:-1], 1)

    failing.__name__ = routine
    monkeypatch.setattr(rdstab.simulator, routine, failing)


class TestRunSimulation:
    def test_shapes_and_times(self):
        traj = r.run_simulation(cfg(nt=25, tmax=2.0))
        assert traj.nt == 25
        assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
        assert traj.states.shape == (25, 60)
        assert traj.controls.shape == (25,)
        assert traj.l2_norms.shape == (25,)
        assert traj.h1_norms.shape == (25,)
        assert np.all(traj.newton_iters == 0)

    def test_determinism(self):
        c = cfg(nu=1.0, alpha=12.0, mu=6.0, dynamics="closed_loop", nx=100, nt=50)
        t1 = r.run_simulation(c)
        t2 = r.run_simulation(c)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.controls, t2.controls)
        assert np.array_equal(t1.l2_norms, t2.l2_norms)

    def test_left_boundary_pinned(self):
        c = cfg(nu=1.0, alpha=12.0, mu=6.0, dynamics="closed_loop", nx=100, nt=50)
        traj = r.run_simulation(c)
        assert np.all(traj.states[:, 0] == 0.0)

    def test_control_record_matches_boundary(self):
        c = cfg(nu=1.0, alpha=15.0, mu=15.0, n_modes=2, model="nonlinear",
                dynamics="closed_loop",
                nx=100, nt=120, tmax=1.0, u0="exp2")
        traj = r.run_simulation(c)
        # the boundary law is implicit: every level after the first satisfies u_L = g(u)
        assert np.max(np.abs(traj.controls[1:] - traj.states[1:, -1])) < 1e-12
        assert np.any(traj.controls != 0.0)
        # so the law holds on a level that the predictor alone produced
        assert np.any(traj.newton_iters[1:] == 0)
        assert traj.newton_iters[0] == 0

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    @pytest.mark.parametrize("nt", [33, 70])
    def test_controls_do_not_depend_on_blocks(self, model, nt):
        # blocks of 32 levels at nx = 2000; each control is the same per-row
        # reduction block by block, with or without the history
        c = cfg(nu=1.0, alpha=15.0, mu=15.0, n_modes=2, model=model,
                dynamics="closed_loop", nx=2000, nt=nt, u0="exp2")
        traj = r.run_simulation(c)
        gain = rdstab.simulator._feedback_row(c, r.make_grid(1.0, c.nx))
        assert np.array_equal(traj.controls, np.einsum("ij,j->i", traj.states, gain))
        assert np.array_equal(r.run_simulation(c, full_state=False).controls, traj.controls)

    def test_newton_exact_on_boundary_row(self):
        # the gain row is inside the Newton operator, so no boundary fixed point slows it
        c = cfg(nu=1.0, alpha=15.0, mu=15.0, n_modes=2, model="nonlinear",
                dynamics="closed_loop",
                nx=100, nt=120, tmax=1.0, u0="exp2")
        traj = r.run_simulation(c)
        assert traj.newton_iters.max() <= 4

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_controls_are_gain_times_states(self, model):
        c = cfg(nu=1.0, alpha=15.0, mu=15.0, n_modes=2, model=model,
                dynamics="closed_loop", nx=100, nt=40, u0="exp2")
        traj = r.run_simulation(c)
        kern = r.kernel_table(r.make_grid(1.0, 100), 15.0, 1.0)
        gain = r.feedback_gain(kern, r.build_transform(kern, 2))
        assert np.array_equal(traj.controls, np.einsum("ij,j->i", traj.states, gain))
        assert traj.controls[0] != traj.states[0, -1]

    def test_uncontrolled_boundary_zero(self):
        traj = r.run_simulation(cfg(alpha=12.0, nt=20))
        assert np.all(traj.controls == 0.0)
        assert np.all(traj.states[:, -1] == 0.0)

    def test_unstable_plant_grows_and_feedback_decays(self):
        grow = r.run_simulation(cfg(alpha=12.0, nx=120, nt=120, tmax=1.0))
        assert grow.l2_norms[-1] > grow.l2_norms[0]
        damp = r.run_simulation(
            cfg(alpha=12.0, mu=6.0, dynamics="closed_loop",
                nx=120, nt=120, tmax=1.0)
        )
        assert damp.l2_norms[-1] < damp.l2_norms[0]

    def test_crank_nicolson_stable_at_large_dt(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            u0 = rng.standard_normal(50)
            u0[0] = u0[-1] = 0.0
            traj = r.run_simulation(cfg(nx=50, nt=5, tmax=5.0, u0=u0))
            drops = np.diff(traj.l2_norms)
            assert np.all(drops <= 1e-10 * traj.l2_norms[0])

    def test_solver_paths_agree_nonlinear(self):
        # the Woodbury march against dense Newton on the dense operator, level by level
        for dynamics in DYNAMICS_MODES:
            c, g, P, gain = _stepper_case(dynamics, nx=100, nt=150, tmax=1.0,
                                          model="nonlinear", u0="exp2")
            traj = r.run_simulation(c)
            C = closed_loop_matrix(c, g, P, gain)
            u = r.initial_state(c, g)
            for n in range(c.nt - 1):
                u, _ = dense_newton_step(C, u, c)
                assert np.max(np.abs(u - traj.states[n + 1])) < 1e-9

    def test_manufactured_steady_state(self):
        # forcing chosen so sin(pi x) is an equilibrium of the linear model
        f_amp = math.pi**2 - 2.0
        c = cfg(nu=1.0, alpha=2.0, nx=200, nt=100, tmax=0.5,
                u0=lambda x: np.sin(np.pi * x),
                forcing=lambda x, t: f_amp * np.sin(np.pi * x))
        traj = r.run_simulation(c)
        drift = np.max(np.abs(traj.states[-1] - np.sin(np.pi * r.make_grid(1.0, 200).nodes)))
        assert drift < 1e-3

    @pytest.mark.parametrize("full_state", [True, False], ids=["history", "no_history"])
    def test_newton_failure_carries_partial_trajectory(self, full_state):
        c = cfg(model="nonlinear", u0=lambda x: 3.0 * np.sin(np.pi * x),
                nt=40, tmax=0.5, newton_max_iter=1)
        with pytest.raises(NewtonDivergenceError) as exc:
            r.run_simulation(c, full_state=full_state)
        err = exc.value
        assert err.step == 0
        assert err.partial.nt == 1
        assert err.partial.states.shape == (1, 60)
        assert np.array_equal(err.partial.states[0], r.initial_state(c, r.make_grid(1.0, 60)))
        assert err.partial.l2_norms.shape == err.partial.controls.shape == (1,)

    @pytest.mark.parametrize("model, amp, alpha", [
        ("linear", 1e300, 30.0),  # the unstable mode grows ~3x per step and overflows
        ("nonlinear", 1e120, 0.0),  # the cubic term overflows on the first step
    ])
    def test_non_finite_state_carries_partial_trajectory(self, model, amp, alpha):
        c = cfg(model=model, u0={"sine_coeffs": [amp]}, alpha=alpha, nx=50, nt=40, tmax=2.0)
        with pytest.raises(NonFiniteStateError) as exc:
            r.run_simulation(c)
        err = exc.value
        assert isinstance(err, SolverError)
        assert err.partial.nt == err.step + 1
        assert (err.step > 0) == (model == "linear")
        assert np.all(np.isfinite(err.partial.states))


@settings(max_examples=15, deadline=None)
@given(
    mu=st.floats(1.0, 25.0),
    n_modes=st.integers(1, 3),
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
)
def test_feedback_is_linear(mu, n_modes, coeffs, a, b):
    # every (mu, N) here is admissible; the linear closed loop maps u0 to states
    # linearly, so g of the combined run's states is the combination of controls
    c = cfg(alpha=12.0, mu=mu, n_modes=n_modes, nx=40, nt=15, tmax=0.3,
            dynamics="closed_loop")
    u1 = {"sine_coeffs": coeffs[:3]}
    u2 = {"sine_coeffs": coeffs[3:], "poly_coeffs": [0.0, 1.0, -1.0]}
    g = r.make_grid(1.0, c.nx)
    t1 = r.run_simulation(replace(c, u0=u1))
    t2 = r.run_simulation(replace(c, u0=u2))
    combo = a * r.initial_state(replace(c, u0=u1), g) + b * r.initial_state(replace(c, u0=u2), g)
    t3 = r.run_simulation(replace(c, u0=combo))
    scale = max(1.0, np.max(np.abs(a * t1.controls)), np.max(np.abs(b * t2.controls)))
    assert np.max(np.abs(t3.controls - (a * t1.controls + b * t2.controls))) <= 1e-11 * scale
    gain = rdstab.simulator._feedback_row(c, g)
    assert np.array_equal(t3.controls, np.einsum("ij,j->i", t3.states, gain))


@settings(max_examples=15, deadline=None)
@given(
    model=st.sampled_from(["linear", "nonlinear"]),
    dynamics=st.sampled_from(DYNAMICS_MODES),
    alpha=st.floats(0.0, 15.0),
    mu=st.floats(1.0, 25.0),
    n_modes=st.integers(1, 3),
    nx=st.integers(20, 60),
    nt=st.integers(3, 20),
    amp=st.floats(-2.0, 2.0),
)
def test_runs_are_deterministic(model, dynamics, alpha, mu, n_modes, nx, nt, amp):
    c = cfg(model=model, dynamics=dynamics, alpha=alpha, mu=mu,
            n_modes=n_modes, nx=nx, nt=nt, u0={"sine_coeffs": [amp, 0.5]})
    t1, t2 = r.run_simulation(c), r.run_simulation(c)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.newton_iters, t2.newton_iters)
    assert np.array_equal(t1.controls, t2.controls)


@pytest.mark.parametrize("core", [{}, PIVOTED_CORE], ids=["ldl", "pivoted"])
@pytest.mark.parametrize("dynamics", DYNAMICS_MODES)
@pytest.mark.parametrize("model", ["linear", "nonlinear"])
def test_left_boundary_exactly_zero(model, dynamics, core):
    # row 0 is decoupled from the core and never pivoted, so u_0 = 0 holds exactly
    # at every level without a reset, also from a start with u_0 != 0
    c = cfg(**{**dict(model=model, dynamics=dynamics, alpha=12.0, mu=15.0, n_modes=2,
                      nx=400, nt=30), **core})
    g = r.make_grid(c.length, c.nx)
    u0 = 0.1 * np.sin(np.pi * g.nodes) + 0.05 * np.sin(5.0 * np.pi * g.nodes)
    for first in (0.0, 0.1):
        u0[0] = first
        states = r.run_simulation(replace(c, u0=u0)).states
        assert np.all(states[1:, 0] == 0.0)


def test_block_levels():
    # about BLOCK_ENTRIES / nx levels, at least one
    assert [rdstab.simulator._block_levels(nx) for nx in (60, 2000, 4100, 9000, 10**6)] == [
        1092, 32, 15, 7, 1]


@settings(max_examples=20, deadline=None)
@given(
    model=st.sampled_from(["linear", "nonlinear"]),
    dynamics=st.sampled_from(DYNAMICS_MODES),
    forcing=st.booleans(),
    nx=st.sampled_from([2000, 4100, 9000]),  # blocks of 32, 15 and 7 levels
    nt_at=st.sampled_from(["below", "equal", "past", "multiple"]),
    mu=st.floats(1.0, 25.0),
    amp=st.floats(-2.0, 2.0),
)
# at nu dt / dx^2 ~ 5.6e5 a residual formed from C u' stalled Newton above newton_tol
@example(model="nonlinear", dynamics="closed_loop", forcing=False, nx=4100, nt_at="below",
         mu=7.0, amp=2.0)
def test_march_without_history_matches_history(model, dynamics, forcing, nx, nt_at, mu, amp):
    block = rdstab.simulator._block_levels(nx)
    nt = {"below": block - 1, "equal": block, "past": block + 1, "multiple": 3 * block}[nt_at]
    f = (lambda x, t: (1.0 + t) * np.sin(np.pi * x)) if forcing and model == "linear" else None
    c = cfg(model=model, dynamics=dynamics, alpha=12.0, mu=mu, n_modes=2, nx=nx, nt=nt,
            tmax=0.2, u0={"sine_coeffs": [amp, 0.5]}, forcing=f)
    kept, ring = r.run_simulation(c), r.run_simulation(c, full_state=False)
    assert kept.states.shape == (nt, nx)
    assert ring.states.shape == (1, nx)
    assert np.array_equal(ring.states[0], kept.states[-1])
    for name in ("times", "controls", "l2_norms", "h1_norms", "newton_iters"):
        assert np.array_equal(getattr(ring, name), getattr(kept, name)), name


@pytest.mark.parametrize("mu, amp", [(7.0, 2.0), (25.0, 2.0), (25.0, 1.0)])
def test_newton_converges_at_large_cn_parameter(mu, amp):
    # nu dt / dx^2 ~ 5.6e5: a residual formed from C u' rounds at eps ||C|| |u'|,
    # and its corrections stalled above newton_tol at step 0
    c = cfg(model="nonlinear", dynamics="closed_loop", alpha=12.0, mu=mu, n_modes=2,
            nx=4100, nt=7, tmax=0.2, u0={"sine_coeffs": [amp, 0.5]})
    traj = r.run_simulation(c)
    assert np.isfinite(traj.states).all()
    assert 1 <= traj.newton_iters[1:].min() and traj.newton_iters.max() <= 6
    # one more correction from a residual formed from C u' stays at that rounding floor
    g = r.make_grid(c.length, c.nx)
    stepper = rdstab.simulator._Stepper(c, g, None, rdstab.simulator._feedback_row(c, g))
    for u, up in zip(traj.states[:-1], traj.states[1:]):
        F = rdstab.simulator._interior(
            2.0 * u - stepper.matvec(u) - 0.5 * c.dt * (u**3 + up**3)) - stepper.matvec(up)
        assert np.max(np.abs(stepper.solve(F, 1.5 * c.dt * up**2))) <= 3e-11


def test_march_without_history_holds_one_block():
    c = r.SimulationConfig(nx=2000, nt=2000, **EXPERIMENT_PRESETS["exp1"])
    peaks = {}
    for full_state in (False, True):
        tracemalloc.start()
        try:
            r.run_simulation(c, full_state=full_state)
            peaks[full_state] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the history alone is 8 * 2000 * 2000 bytes = 32 MB; one block is 0.5 MB
    assert peaks[False] < 4e6
    assert peaks[True] > 30e6


@settings(max_examples=40, deadline=None)
@given(
    dynamics=st.sampled_from(DYNAMICS_MODES),
    nx=st.integers(8, 60),
    mu=st.floats(0.0, 30.0),
    n_modes=st.integers(1, 3),
    nt=st.integers(2, 200),
    alpha=st.floats(0.0, 30.0),
)
def test_inverse_bound_covers_dense_inverse(dynamics, nx, mu, n_modes, nt, alpha):
    try:
        c, g, P, gain = _stepper_case(dynamics, nx=nx, mu=mu,
                                      n_modes=min(n_modes, nx // 4), alpha=alpha, nt=nt,
                                      model="nonlinear")
    except InadmissiblePairError:
        assume(False)
    stepper = rdstab.simulator._Stepper(c, g, P, gain)
    norm = np.abs(np.linalg.inv(closed_loop_matrix(c, g, P, gain))).sum(axis=1).max()
    # without a low-rank term K_C is ||T^{-1}||_inf itself, so allow its rounding
    assert stepper.inv_bound >= norm * (1.0 - 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    dynamics=st.sampled_from(DYNAMICS_MODES),
    nx=st.integers(20, 80),
    nt=st.integers(5, 40),
    alpha=st.floats(0.0, 15.0),
    coeffs=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
)
def test_next_correction_bound_holds(dynamics, nx, nt, alpha, coeffs):
    # one Newton update from u, then the correction that would follow it, against the bound
    c, g, P, gain = _stepper_case(dynamics, nx=nx, nt=nt, alpha=alpha, model="nonlinear")
    stepper = rdstab.simulator._Stepper(c, g, P, gain)
    dt = c.dt
    u = r.initial_state(replace(c, u0={"sine_coeffs": coeffs}), g)
    B = rdstab.simulator._interior(2.0 * u - stepper.matvec(u) - 0.5 * dt * u**3)

    def correction(v):
        F = B - stepper.matvec(v) - rdstab.simulator._interior(0.5 * dt * v**3)
        return stepper.solve(F, 1.5 * dt * v**2)

    du = correction(u)
    up = u + du
    F = rdstab.simulator._interior(-0.5 * dt * du**2 * (3.0 * u + du))  # the residual at up
    bound = rdstab.simulator._next_correction_bound(stepper.inv_bound, F, up**2, dt)
    assume(math.isfinite(bound))
    # the bound leaves out rounding in the two solves and in F
    assert np.max(np.abs(correction(up))) <= bound + 1e-12 * max(1.0, np.max(np.abs(up)))


@pytest.fixture(scope="module")
def exp2_runs():
    """Config, stepper, plain-stop states and solve count of both exp2 presets at nx = nt = 200."""
    runs = {}
    for preset in ("exp2", "exp2_uncontrolled"):
        c = r.SimulationConfig(nx=200, nt=200, **EXPERIMENT_PRESETS[preset])
        g = r.make_grid(c.length, c.nx)
        gain = rdstab.simulator._feedback_row(c, g) if c.dynamics == "closed_loop" else None
        stepper = rdstab.simulator._Stepper(c, g, None, gain)
        assert math.isfinite(stepper.inv_bound)
        states, solves = [r.initial_state(c, g)], 0
        for n in range(c.nt - 1):
            u, iters = newton_step_tol(stepper, states[-1], c, n)
            states.append(u)
            solves += iters
        runs[preset] = (c, stepper, np.array(states), solves)
    return runs


@settings(max_examples=30, deadline=None)
@given(
    preset=st.sampled_from(["exp2", "exp2_uncontrolled"]),
    level=st.integers(0, 198),
    amp=st.floats(-3.0, 3.0),
)
def test_certified_step_matches_plain_newton(exp2_runs, preset, level, amp):
    c, stepper, states, _ = exp2_runs[preset]
    u = amp * states[level]
    got, iters = rdstab.simulator._newton_step(stepper, u, c, level)
    want, want_iters = newton_step_tol(stepper, u, c, level)
    assert iters <= want_iters
    assert np.max(np.abs(got - want)) <= c.newton_tol


class TestCertifiedNewtonStop:
    @pytest.mark.parametrize("preset", ["exp2", "exp2_uncontrolled"])
    def test_runs_save_solves(self, exp2_runs, preset):
        c, _, plain, plain_solves = exp2_runs[preset]
        traj = r.run_simulation(c)
        assert np.max(np.abs(traj.states - plain)) <= 1e-9
        assert traj.newton_iters.sum() < plain_solves

    def test_non_finite_iterate_raises_before_either_stop(self, exp2_runs):
        c, stepper, states, _ = exp2_runs["exp2"]
        with np.errstate(over="ignore", invalid="ignore"):
            for step in (rdstab.simulator._newton_step, newton_step_tol):
                with pytest.raises(NonFiniteStateError) as exc:
                    step(stepper, 1e120 * states[0], c, 7)
                assert exc.value.step == 7
            u = states[1]
            for bad in (math.nan, math.inf):
                F = np.zeros_like(u)
                F[5] = bad
                up = u.copy()
                for residual, iterate in ((F, u), (np.zeros_like(u), up)):
                    up[5] = bad
                    bound = rdstab.simulator._next_correction_bound(
                        stepper.inv_bound, residual, iterate**2, c.dt)
                    assert not bound <= c.newton_tol

    def test_uncertified_core_keeps_the_plain_stop(self, monkeypatch):
        # dt * alpha = 500: T is no M-matrix and T^{-1} 1 has negative entries
        c, g, P, gain = _stepper_case("closed_loop", nx=20, alpha=2000.0, nt=5,
                                      tmax=1.0, model="nonlinear",
                                      u0={"sine_coeffs": [0.1, 0.05]})
        stepper = rdstab.simulator._Stepper(c, g, P, gain)
        assert np.linalg.solve(stepper.tri.to_dense(), np.ones(g.nx)).min() <= 0.0
        assert stepper.inv_bound == math.inf
        traj = r.run_simulation(c)
        monkeypatch.setattr(rdstab.simulator, "_newton_step", newton_step_tol)
        plain = r.run_simulation(c)
        assert np.array_equal(traj.states, plain.states)
        assert np.array_equal(traj.newton_iters, plain.newton_iters)
        assert traj.newton_iters[1:].min() >= 2

    def test_linear_runs_skip_the_bound(self):
        stepper = rdstab.simulator._Stepper(*_stepper_case("closed_loop"))
        assert stepper.inv_bound == math.inf


@settings(max_examples=30, deadline=None)
@given(
    preset=st.sampled_from(["exp2", "exp2_uncontrolled"]),
    level=st.integers(0, 198),
    amp=st.floats(-3.0, 3.0),
)
@example(preset="exp2", level=198, amp=1.0)
@example(preset="exp2", level=150, amp=-0.5)
@example(preset="exp2_uncontrolled", level=10, amp=0.01)
def test_accepted_predictor_meets_the_certificate(exp2_runs, preset, level, amp):
    # a step that takes no solve returns the predictor; its true residual, formed
    # densely in extended precision, must pass the same certificate
    c, stepper, states, _ = exp2_runs[preset]
    u = amp * states[level]
    got, iters = rdstab.simulator._newton_step(stepper, u, c, level)
    if iters > 0:
        return
    g = r.make_grid(c.length, c.nx)
    C = closed_loop_matrix(c, g, None, stepper.gain).astype(np.longdouble)
    h = np.longdouble(0.5 * c.dt)
    u, v = u.astype(np.longdouble), got.astype(np.longdouble)
    F = rdstab.simulator._interior(2 * u - C @ u - h * u**3) - C @ v
    F[1:-1] -= h * v[1:-1] ** 3
    bound = rdstab.simulator._next_correction_bound(stepper.inv_bound, F.astype(float),
                                                    got**2, c.dt)
    assert bound <= 2.0 * c.newton_tol


class TestPredictor:
    """Each Newton step starts from the linear step with the cubic explicit."""

    @pytest.mark.parametrize("preset", ["exp2", "exp2_uncontrolled"])
    def test_march_matches_extended_precision_reference(self, preset):
        c = r.SimulationConfig(nx=100, nt=100, **EXPERIMENT_PRESETS[preset])
        g = r.make_grid(c.length, c.nx)
        gain = rdstab.simulator._feedback_row(c, g) if c.dynamics == "closed_loop" else None
        ref = reference_march(c, gain)
        traj = r.run_simulation(c)
        err = r.l2_norm(np.asarray(traj.states - ref, dtype=float), g)
        assert err.max() <= 1e-10

    @pytest.mark.parametrize("preset", ["exp2", "exp2_uncontrolled"])
    def test_one_core_solve_per_step_and_one_ptsv_per_newton_solve(self, monkeypatch, preset):
        calls = {"dpttrs": 0, "dptsv": 0}
        for routine in calls:
            real = getattr(rdstab.simulator, routine)

            def counted(*args, _real=real, _name=routine, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            counted.__name__ = routine
            monkeypatch.setattr(rdstab.simulator, routine, counted)
        c = r.SimulationConfig(nx=200, nt=200, **EXPERIMENT_PRESETS[preset])
        g = r.make_grid(c.length, c.nx)
        gain = rdstab.simulator._feedback_row(c, g) if c.dynamics == "closed_loop" else None
        rdstab.simulator._Stepper(c, g, None, gain)
        set_up = calls["dpttrs"]
        assert set_up == (3 if gain is not None else 1) and calls["dptsv"] == 0
        calls["dpttrs"] = 0
        traj = r.run_simulation(c, full_state=False)
        assert calls["dpttrs"] == set_up + c.nt - 1
        assert calls["dptsv"] == traj.newton_iters.sum()


class TestTargetConsistency:
    def test_initial_mismatch_at_inverse_tolerance(self):
        c = cfg(nu=1.0, alpha=12.0, mu=6.0, nx=100, nt=40, tmax=0.5,
                dynamics="closed_loop", u0="exp1")
        _, _, mismatch = r.run_target_consistency(c)
        assert mismatch[0] < 1e-8

    def test_zero_mu_exact_agreement(self):
        c = cfg(nu=1.0, alpha=3.0, mu=0.0, nx=80, nt=40, tmax=0.5,
                dynamics="closed_loop", u0="exp1")
        _, _, mismatch = r.run_target_consistency(c)
        assert np.max(mismatch) < 1e-12

    def test_mismatch_small_at_moderate_resolution(self):
        c = cfg(nu=1.0, alpha=12.0, mu=6.0, nx=200, nt=200, tmax=1.5,
                dynamics="closed_loop", u0="exp1")
        traj_u, traj_w, mismatch = r.run_target_consistency(c)
        assert np.max(mismatch) < 0.05
        # homogeneous boundary from the first step on (w0 itself need not
        # vanish at x = L: the initial state is not feedback-compatible)
        assert np.all(traj_w.states[1:, -1] == 0.0)
        assert np.all(traj_u.states[:, 0] == 0.0)

    def test_one_set_up_per_check(self, monkeypatch):
        calls = []
        table = rdstab.simulator.kernel_table
        monkeypatch.setattr(rdstab.simulator, "kernel_table",
                            lambda *a, **k: calls.append(a) or table(*a, **k))
        c = cfg(nu=1.0, alpha=12.0, mu=6.0, nx=60, nt=20, tmax=0.5,
                dynamics="closed_loop", u0="exp1")
        r.run_target_consistency(c)
        assert len(calls) == 1

    def test_refused_where_its_arrays_exceed_memory(self, monkeypatch):
        # memory for two (nt, nx) arrays, not the three it holds: refused
        # before either march starts
        c = cfg(alpha=12.0, mu=6.0, dynamics="closed_loop", nt=400)
        two = 8 * (5 * c.nt + c.nx * (8 * c.n_modes + 32) + 2 * c.nt * c.nx)
        monkeypatch.setattr(rdstab.errors, "_physical_memory", lambda: two)
        marches = []
        monkeypatch.setattr(rdstab.simulator, "_march", lambda *a, **k: marches.append(a))
        with pytest.raises(InvalidParameterError, match="physical memory"):
            r.run_target_consistency(c)
        assert marches == []

    def test_peak_memory_within_its_count(self, monkeypatch):
        c = cfg(alpha=12.0, mu=6.0, dynamics="closed_loop", u0="exp1", nx=400, nt=400)
        counted = []
        monkeypatch.setattr(rdstab.errors, "check_fits", lambda need, what: counted.append(need))
        r.run_target_consistency(replace(c, nx=40, nt=40))  # lazy imports stay out of the peak
        tracemalloc.start()
        try:
            r.run_target_consistency(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted[-1]

    def test_rejects_nonlinear_and_zero_state(self):
        with pytest.raises(InvalidParameterError):
            r.run_target_consistency(cfg(model="nonlinear", mu=6.0, alpha=12.0,
                                         dynamics="closed_loop"))
        with pytest.raises(InvalidParameterError):
            r.run_target_consistency(cfg(mu=6.0, alpha=12.0, u0=np.zeros(60),
                                         dynamics="closed_loop"))
