import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rdstab as r
import rdstab.cli
import rdstab.errors
from rdstab.cli import EXPERIMENT_PRESETS, export, fit_decay_rate, main, run_experiment
from rdstab.errors import FitError, InvalidParameterError


def synthetic_trajectory(nt=101, tmax=1.0, rate=2.0, amp=3.0, noise=None):
    t = np.linspace(0.0, tmax, nt)
    l2 = amp * np.exp(-rate * t)
    if noise is not None:
        rng = np.random.default_rng(5)
        l2 = l2 * (1.0 + noise * rng.uniform(-1, 1, nt))
    return r.Trajectory(
        times=t,
        states=np.zeros((nt, 3)),
        controls=np.zeros(nt),
        l2_norms=l2,
        h1_norms=2.0 * l2,
        newton_iters=np.zeros(nt, dtype=int),
    )


class TestFitDecayRate:
    def test_exact_exponential(self):
        fit = fit_decay_rate(synthetic_trajectory())
        assert fit.rate == pytest.approx(2.0, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)
        assert fit.r_squared > 1.0 - 1e-12
        assert fit.window == (0.3, 0.9)

    def test_h1_channel(self):
        fit = fit_decay_rate(synthetic_trajectory(), norm="h1")
        assert fit.rate == pytest.approx(2.0, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(6.0), abs=1e-10)
        with pytest.raises(InvalidParameterError):
            fit_decay_rate(synthetic_trajectory(), norm="sup")

    def test_explicit_window(self):
        fit = fit_decay_rate(synthetic_trajectory(), window=(0.1, 0.4))
        assert fit.window == (0.1, 0.4)
        assert fit.rate == pytest.approx(2.0, abs=1e-10)

    def test_constant_history(self):
        traj = synthetic_trajectory(rate=0.0)
        fit = fit_decay_rate(traj)
        assert fit.rate == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_noise_tolerance(self):
        fit = fit_decay_rate(synthetic_trajectory(nt=401, noise=0.01))
        assert fit.rate == pytest.approx(2.0, abs=0.05)
        assert fit.r_squared < 1.0

    def test_window_validation(self):
        with pytest.raises(InvalidParameterError):
            fit_decay_rate(synthetic_trajectory(), window=(0.5, 1.5))
        with pytest.raises(InvalidParameterError):
            fit_decay_rate(synthetic_trajectory(), window=(0.9, 0.3))

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_decay_rate(synthetic_trajectory(), window=(0.50, 0.55))

    def test_zero_norm_rejected(self):
        traj = synthetic_trajectory()
        dead = traj.l2_norms.copy()
        dead[60:] = 0.0
        bad = r.Trajectory(
            times=traj.times, states=traj.states, controls=traj.controls,
            l2_norms=dead, h1_norms=traj.h1_norms, newton_iters=traj.newton_iters,
        )
        with pytest.raises(FitError):
            fit_decay_rate(bad)

    def test_to_dict(self):
        d = fit_decay_rate(synthetic_trajectory()).to_dict()
        assert set(d) == {"rate", "intercept", "r_squared", "window"}
        json.dumps(d)


class TestRunExperiment:
    def test_presets_cover_both_experiments(self):
        assert set(EXPERIMENT_PRESETS) == {
            "exp1", "exp1_uncontrolled", "exp2", "exp2_uncontrolled"
        }

    def test_exp1_small(self, tmp_path):
        traj, report, fit = run_experiment("exp1", nx=100, nt=100, out_dir=str(tmp_path))
        assert report.gamma == pytest.approx(math.pi**2 - 9.0)
        assert fit.rate > 0
        assert traj.l2_norms[-1] < traj.l2_norms[0]
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"norms.csv", "design.json", "fit.json", "manifest.json"}

    def test_unknown_preset(self):
        with pytest.raises(InvalidParameterError):
            run_experiment("exp3")

    def test_design_uses_run_grid(self):
        _, report, _ = run_experiment("exp1", nx=120, nt=20)
        on_grid = r.design_fixed(1.0, 12.0, 6.0, 1, nx=120)
        assert report.admissibility == on_grid.admissibility
        assert report.admissibility != r.design_fixed(1.0, 12.0, 6.0, 1).admissibility

    def test_exp1_rate_matches_target_abscissa(self):
        # the closed loop acts from the boundary only, so it decays at the rate of
        # its target, whose discrete spectrum is known in closed form:
        # nu (4/dx^2) sin^2(j pi dx / 2L) - alpha + mu [j <= N], least at j = 1 or N + 1
        p = EXPERIMENT_PRESETS["exp1"]
        _, _, fit = run_experiment("exp1", nx=250, nt=250)
        dx = p["length"] / 249
        abscissa = min(
            p["nu"] * 4.0 / dx**2 * math.sin(j * math.pi * dx / (2.0 * p["length"])) ** 2
            - p["alpha"] + (p["mu"] if j <= p["n_modes"] else 0.0)
            for j in (1, p["n_modes"] + 1)
        )
        assert fit.rate == pytest.approx(abscissa, rel=1e-4)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    traj, report, fit = run_experiment(
        "exp1", nx=60, nt=80, out_dir=str(out), full_state=True
    )
    return out, traj, report, fit


class TestExport:
    def test_norms_csv_round_trip(self, bundle):
        out, traj, _, _ = bundle
        text = (out / "norms.csv").read_text().splitlines()
        assert text[0] == "t,g,l2_norm,h1_norm"
        assert len(text) == 1 + traj.nt
        data = np.loadtxt(out / "norms.csv", delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1], traj.controls)
        assert np.array_equal(data[:, 2], traj.l2_norms)
        assert np.array_equal(data[:, 3], traj.h1_norms)

    def test_state_csv_round_trip(self, bundle):
        out, traj, _, _ = bundle
        data = np.loadtxt(out / "state.csv", delimiter=",")
        assert data.shape == (traj.nt, 1 + traj.states.shape[1])
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:], traj.states)

    def test_design_json_matches_report(self, bundle):
        out, _, report, _ = bundle
        loaded = json.loads((out / "design.json").read_text())
        assert loaded["gamma"] == report.gamma
        assert loaded["scheme"] == "fixed"
        assert loaded["n_modes"] == 1

    def test_fit_json_matches(self, bundle):
        out, _, _, fit = bundle
        loaded = json.loads((out / "fit.json").read_text())
        assert loaded["rate"] == fit.rate
        assert loaded["r_squared"] == fit.r_squared

    def test_manifest(self, bundle):
        out, _, _, _ = bundle
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == r.__version__
        assert manifest["files"] == sorted(
            ["norms.csv", "state.csv", "design.json", "fit.json"]
        )
        assert manifest["config"]["nu"] == 1.0
        assert manifest["config"]["u0"] == "exp1"
        assert "timestamp" not in json.dumps(manifest).lower()

    def test_export_is_deterministic(self, tmp_path):
        traj, report, fit = run_experiment("exp1", nx=50, nt=60)
        a, b = tmp_path / "a", tmp_path / "b"
        export(traj, report, fit, str(a), full_state=False)
        export(traj, report, fit, str(b), full_state=False)
        for name in ("norms.csv", "design.json", "fit.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("n_cols, n_rows", [(4, 50), (3, 30000)], ids=["norms", "chunks"])
    def test_csv_bytes_match_per_value_format(self, tmp_path, n_cols, n_rows):
        # the second case spans several chunks of the writer
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.225073858507e-309,
                   0.1, 1.0 / 3.0, -1.7976931348623157e308, 123456789.12345678, 2.0**-1074 * 3]
        rng = np.random.default_rng(11)
        columns = []
        for _ in range(n_cols):
            col = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
            col[:len(special)] = rng.permutation(special)
            columns.append(col)
        want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in zip(*columns))
        rdstab.cli._write_csv(tmp_path / "t.csv", "h", columns)
        assert (tmp_path / "t.csv").read_bytes() == ("h\n" + want).encode()
        fields = set(want.replace("\n", ",").split(","))
        assert {"nan", "inf", "-inf", "-0", "4.9406564584124654e-324"} <= fields

    def test_full_state_needs_the_history(self, tmp_path):
        traj = r.run_simulation(r.SimulationConfig(nx=30, nt=20), full_state=False)
        assert traj.states.shape == (1, 30)
        out = tmp_path / "run"
        with pytest.raises(InvalidParameterError, match="state history") as exc:
            export(traj, None, None, str(out), full_state=True)
        assert exc.value.exit_code == 2
        assert not out.exists()
        assert export(traj, None, None, str(out)) == ["norms.csv", "manifest.json"]


def run_python(*argv):
    """Run ``python *argv`` with the rdstab that these tests import first on its path."""
    src = str(Path(r.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=300, env=env)


def run_cli(*argv):
    return run_python("-m", "rdstab", *argv)


class TestMainInProcess:
    def test_design_rapid(self, capsys):
        rc = main(["design", "--rate", "2", "--nu", "1", "--alpha", "12"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scheme"] == "rapid"
        assert report["gamma"] >= 2.0

    def test_design_minimal_stable(self, capsys):
        rc = main(["design", "--minimal", "--alpha", "2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["scheme"] == "stable"

    def test_design_writes_file(self, tmp_path, capsys):
        rc = main(["design", "--minimal", "--alpha", "12", "--out", str(tmp_path)])
        assert rc == 0
        on_disk = json.loads((tmp_path / "design.json").read_text())
        assert on_disk == json.loads(capsys.readouterr().out)

    def test_simulate_with_flags(self, tmp_path, capsys):
        rc = main([
            "simulate", "--alpha", "12", "--mu", "6", "--nx", "60", "--nt", "40",
            "--tmax", "0.5", "--dynamics", "closed_loop",
            "--u0", "exp1", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "levels: 40" in out
        assert "fitted rate:" in out
        assert (tmp_path / "norms.csv").exists()
        assert not (tmp_path / "state.csv").exists()

    def test_simulate_defaults_apply_the_feedback(self, tmp_path, capsys):
        # a closed-loop run given no mu takes exp1's gain, so the loop decays
        rc = main(["simulate", "--nx", "60", "--nt", "40", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config["mu"] == 6.0 and config["dynamics"] == "closed_loop"
        norms = np.loadtxt(tmp_path / "norms.csv", delimiter=",", skiprows=1)
        assert np.all(norms[:, 1] != 0.0)
        assert json.loads((tmp_path / "fit.json").read_text())["rate"] > 0.0

    def test_simulate_full_state(self, tmp_path, capsys):
        rc = main([
            "simulate", "--alpha", "3", "--nx", "30", "--nt", "20",
            "--dynamics", "open_loop", "--out", str(tmp_path),
            "--full-state",
        ])
        assert rc == 0
        assert (tmp_path / "state.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--nx", "30", "--nt", "20"],
        ["experiment", "exp1", "--nx", "30", "--nt", "20"],
    ], ids=["simulate", "experiment"])
    def test_history_kept_only_for_full_state(self, argv, tmp_path, monkeypatch, capsys):
        kept = []

        def recording(config, full_state=True):
            kept.append(full_state)
            return r.run_simulation(config, full_state=full_state)

        monkeypatch.setattr(rdstab.cli, "run_simulation", recording)
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b"), "--full-state"]) == 0
        assert kept == [False, True]
        assert not (tmp_path / "a" / "state.csv").exists()
        assert (tmp_path / "b" / "state.csv").exists()
        for name in ("norms.csv", "fit.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        capsys.readouterr()

    @staticmethod
    def _final_and_rate(tmp_path, capsys, amp, nt):
        """Final L2 norm and fitted rate (None when skipped) that ``simulate`` prints."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"u0": {"sine_coeffs": [amp]}}))
        assert main(["simulate", "--config", str(cfg), "--nx", "20", "--nt", nt]) == 0
        out = capsys.readouterr().out
        rate = re.search(r"fitted rate: (\S+)", out)
        return float(re.search(r"final l2 norm: (\S+)", out).group(1)), rate and rate.group(1)

    def test_overflowing_norm_stays_finite(self, tmp_path, capsys):
        # the states are finite but their squares overflow; the norm is rescaled
        final, _ = self._final_and_rate(tmp_path, capsys, 1e300, "5")
        assert math.isfinite(final) and final > 1e298
        final, rate = self._final_and_rate(tmp_path, capsys, 1e300, "50")
        unit_final, unit_rate = self._final_and_rate(tmp_path, capsys, 1.0, "50")
        assert final == pytest.approx(1e300 * unit_final, rel=1e-6)  # 7 printed digits
        assert rate is not None and rate == unit_rate

    def test_underflowing_norm_stays_nonzero(self, tmp_path, capsys):
        # the states are nonzero but their squares underflow; the norm is rescaled
        final, rate = self._final_and_rate(tmp_path, capsys, 1e-170, "50")
        unit_final, unit_rate = self._final_and_rate(tmp_path, capsys, 1.0, "50")
        assert final == pytest.approx(1e-170 * unit_final, rel=1e-6, abs=0.0)
        assert rate is not None and rate == unit_rate

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "nu": 1.0, "alpha": 12.0, "mu": 6.0, "nx": 60, "nt": 40,
            "tmax": 0.5, "dynamics": "closed_loop",
        }))
        rc = main(["simulate", "--config", str(cfg), "--nt", "25"])
        assert rc == 0
        assert "levels: 25" in capsys.readouterr().out

    def test_config_u0_samples(self, tmp_path, capsys):
        u0 = [0.0] + [0.1] * 10 + [0.0]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "nu": 1.0, "alpha": 0.0, "nx": 12, "nt": 12, "tmax": 0.1,
            "dynamics": "open_loop", "u0": u0,
        }))
        assert main(["simulate", "--config", str(cfg)]) == 0
        capsys.readouterr()

    def test_experiment_verb(self, tmp_path, capsys):
        rc = main(["experiment", "exp1", "--nx", "60", "--nt", "60",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gamma:" in out and "fitted rate:" in out
        assert (tmp_path / "norms.csv").exists()

    def test_scan_verb(self, capsys):
        rc = main(["scan-admissibility", "--mu-min", "1", "--mu-max", "3",
                   "--steps", "3", "--nx", "60"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mu,a_1,admissible"
        assert len(lines) == 4
        assert all(line.endswith(",1") for line in lines[1:])

    def test_kernel_dump(self, tmp_path, capsys):
        rc = main(["kernel-dump", "--mu", "6", "--nx", "60", "--out", str(tmp_path)])
        assert rc == 0
        assert "series order: 9" in capsys.readouterr().out
        data = np.loadtxt(tmp_path / "kernel.csv", delimiter=",")
        assert data.shape == (60, 61)


def readme_exit_codes():
    """Error class name -> exit code, from the table in the README's Exit codes section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    codes = {}
    for row in re.findall(r"^\| (\d+) \| ([^|]*) \|", section, flags=re.M):
        for name in re.findall(r"`(\w+)`", row[1]):
            codes[name] = int(row[0])
    return codes


# constructor arguments of the error classes that take more than a message
ERROR_ARGS = {
    "InadmissiblePairError": (1, -1.0, 1e-6),
    "NewtonDivergenceError": (3, [1.0, 0.5]),
    "NonFiniteStateError": (3,),
}


class TestExitCodes:
    def test_readme_table_names_every_error_class(self):
        assert set(readme_exit_codes()) == set(rdstab.errors.__all__)

    @pytest.mark.parametrize("name", rdstab.errors.__all__)
    def test_error_class_exit_code(self, name, monkeypatch, capsys):
        cls = getattr(rdstab.errors, name)
        assert cls.exit_code == readme_exit_codes()[name]
        err = cls(*ERROR_ARGS.get(name, ("boom",)))

        def fail(args):
            raise err

        monkeypatch.setattr(rdstab.cli, "_cmd_kernel_dump", fail)
        assert main(["kernel-dump"]) == cls.exit_code
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_invalid_parameters(self, capsys):
        assert main(["simulate", "--nx", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_larger_than_memory_exit_2(self, capsys):
        # the kept history is refused before any array is allocated; never run
        # these sizes without --full-state, which would start 1e14 node-steps
        argv = ["simulate", "--nx", "10000000", "--nt", "10000000", "--full-state"]
        assert main(argv) == 2
        assert "physical memory" in capsys.readouterr().err

    def test_kernel_table_larger_than_memory_exit_2(self, tmp_path, capsys):
        # an 8 * 1e14-byte table is refused before the grid is built
        out = tmp_path / "kernel"
        assert main(["kernel-dump", "--mu", "6", "--nx", "10000000", "--out", str(out)]) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_parameter(self, capsys):
        assert main(["simulate", "--nu", "nan", "--nx", "40", "--nt", "10"]) == 2
        assert "nu must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["design", "--rate", "inf"], "rate"),
            (["design", "--length", "inf", "--rate", "2"], "length"),
            (["design", "--rate", "nan"], "rate"),
            (["design", "--nu", "nan", "--minimal"], "nu"),
            (["kernel-dump", "--nu", "nan"], "nu"),
        ],
    )
    def test_non_finite_design_parameter(self, argv, name, capsys):
        assert main(argv) == 2
        assert f"{name} must be finite" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        for raw, key in (({"viscosity": 1.0}, "viscosity"), ({"solver": "dense"}, "solver")):
            cfg.write_text(json.dumps(raw))
            assert main(["simulate", "--config", str(cfg)]) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, name",
        [
            ({"nt": "abc"}, "nt"),
            ({"model": "nonlinear", "newton_max_iter": 2.5}, "newton_max_iter"),
            ({"nx": 100.5}, "nx"),
            ({"n_modes": 1.5}, "n_modes"),
            ({"nx": True}, "nx"),
        ],
    )
    def test_non_integer_config_value(self, raw, name, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"{name} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, name",
        [
            ({"tmax": "abc"}, "tmax"),
            ({"nu": "1"}, "nu"),
            ({"mu": None}, "mu"),
            ({"alpha": [1.0]}, "alpha"),
            ({"length": True}, "length"),
            ({"model": "nonlinear", "newton_tol": "x"}, "newton_tol"),
        ],
    )
    def test_non_real_config_value(self, raw, name, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nx": 20, "nt": 5, **raw}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"{name} must be a real number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"u0": {"sine_coeffs": 5}}, "u0 sine_coeffs must be a list of real numbers"),
            ({"u0": {"sine_coeffs": [None]}}, "u0 sine_coeffs[0] must be a real number"),
            ({"u0": {"poly_coeffs": "abc"}}, "u0 poly_coeffs[0] must be a real number"),
            ({"dynamics": ["x"]}, "unknown dynamics mode ['x']"),
        ],
    )
    def test_malformed_config_value(self, raw, message, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(cfg), "--nx", "20", "--nt", "5"]) == 2
        assert message in capsys.readouterr().err

    def test_forcing_refused_from_config(self, tmp_path, capsys):
        # a callable cannot come from JSON
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"forcing": 1, "nx": 20, "nt": 5}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "forcing is a callable and cannot come from a config file" in capsys.readouterr().err

    def test_config_not_object(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("[1, 2]")
        assert main(["simulate", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_inadmissible_pair_exit_3(self, capsys, a1_root):
        # a mu where 1 + a_1 crosses zero on 80 nodes: ask for that design
        rc = main([
            "simulate", "--alpha", "30", "--mu", repr(a1_root), "--nx", "80",
            "--nt", "10", "--tmax", "0.1", "--dynamics", "closed_loop",
        ])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_newton_divergence_exit_4(self, tmp_path, capsys):
        cfg = tmp_path / "hard.json"
        cfg.write_text(json.dumps({
            "nu": 1.0, "alpha": 15.0, "model": "nonlinear", "dynamics": "open_loop",
            "u0": "exp2", "nx": 60, "nt": 30, "tmax": 1.0,
            "newton_max_iter": 1,
        }))
        assert main(["simulate", "--config", str(cfg)]) == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags, says", [
        ({"dynamics": "paper_faithful"}, [], ["retired", "closed_loop"]),
        ({"dynamics": "plant"}, [], ["retired", "closed_loop", "open_loop"]),
        ({"control": "off"}, [], ["'control' was folded into 'dynamics'", "open_loop"]),
        (None, ["--dynamics", "paper"], ["invalid choice", "closed_loop"]),
        (None, ["--control", "feedback"], ["unrecognized arguments: --control"]),
    ], ids=["paper_faithful", "plant", "control", "flag-dynamics-paper", "flag-control"])
    def test_retired_settings_exit_2(self, tmp_path, capsys, config, flags, says):
        argv = ["simulate", "--nx", "20", "--nt", "5", *flags]
        if config is not None:
            path = tmp_path / "old.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag itself
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert all(text in err for text in says), err

    def test_non_finite_run_exit_4(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({
            "u0": {"sine_coeffs": [1e120]}, "model": "nonlinear", "nx": 50, "nt": 10,
        }))
        assert main(["simulate", "--config", str(cfg)]) == 4
        assert "non-finite at time step 0" in capsys.readouterr().err


class TestSubprocess:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == r.__version__

    def test_missing_verb_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2

    @pytest.mark.skipif(
        shutil.which("rdstab") is None,
        reason="no rdstab console script on PATH; install one with pip install -e .",
    )
    def test_console_script_installed(self):
        exe = shutil.which("rdstab")
        assert exe is not None
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == r.__version__

    def test_console_script_entry_point(self):
        # what an installed ``rdstab`` script would run, without installing it
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["rdstab"]
        module, _, attr = target.partition(":")
        # __main__.py runs rdstab.cli.main too
        assert getattr(importlib.import_module(module), attr) is main
        proc = run_python(
            "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())", "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == r.__version__

    def test_byte_identical_reruns(self, tmp_path):
        args = ("simulate", "--alpha", "12", "--mu", "6", "--nx", "50",
                "--nt", "30", "--tmax", "0.4", "--dynamics", "closed_loop")
        a, b = tmp_path / "a", tmp_path / "b"
        p1 = run_cli(*args, "--out", str(a))
        p2 = run_cli(*args, "--out", str(b))
        assert p1.returncode == 0 and p2.returncode == 0
        assert p1.stdout == p2.stdout
        assert (a / "norms.csv").read_bytes() == (b / "norms.csv").read_bytes()

    def test_scan_reports_bracket_on_stderr(self):
        proc = run_cli(
            "scan-admissibility", "--mu-min", "25", "--mu-max", "35",
            "--steps", "6", "--nx", "80",
        )
        assert proc.returncode == 0
        assert "sign change of 1 + a_1" in proc.stderr
