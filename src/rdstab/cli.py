"""Command-line front end: design, simulate, experiment presets, scans, dumps.

Verbs
-----
design              closed-form controller design (--rate or --minimal)
simulate            one simulation run from flags and/or a JSON config file
experiment          canned reproduction runs exp1/exp2 (+ uncontrolled twins)
scan-admissibility  sweep mu and report the admissibility scalars
kernel-dump         write the feedback kernel table on the grid to --out

Run defaults are the field defaults of ``SimulationConfig``.  Exit codes: 0
on success, a package error's own ``exit_code`` (see ``rdstab.errors``), and 2
for any other bad value or unreadable file.  Output files carry no
timestamps; rerunning a command reproduces them bit-identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .constants import BLOCK_ENTRIES, FIT_WINDOW
from .controller import DesignReport, design_fixed, design_minimal, design_rapid
from .errors import FitError, InvalidParameterError, RdstabError, check_run_fits
from .grid import make_grid
from .kernel import check_table_fits, kernel_table
from .simulator import DYNAMICS_MODES, MODELS, SimulationConfig, Trajectory, run_simulation
from .transform import scan_admissibility, sign_change_brackets

__all__ = [
    "DecayFit",
    "fit_decay_rate",
    "run_experiment",
    "export",
    "main",
]

_CONTROLLED_PRESETS = {
    "exp1": dict(
        nu=1.0, alpha=12.0, mu=6.0, n_modes=1, length=1.0, tmax=1.5,
        model="linear", dynamics="closed_loop", u0="exp1",
    ),
    "exp2": dict(
        nu=1.0, alpha=15.0, mu=15.0, n_modes=2, length=1.0, tmax=3.0,
        model="nonlinear", dynamics="closed_loop", u0="exp2",
    ),
}
# each controlled preset and its uncontrolled twin, the same plant with u_L = 0
EXPERIMENT_PRESETS = {
    **_CONTROLLED_PRESETS,
    **{f"{name}_uncontrolled": {**fields, "dynamics": "open_loop"}
       for name, fields in _CONTROLLED_PRESETS.items()},
}

_FMT = "%.17g"


@dataclasses.dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit of a norm history over a time window."""

    rate: float
    intercept: float
    r_squared: float
    window: tuple

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def fit_decay_rate(
    trajectory: Trajectory,
    window: Optional[Sequence[float]] = None,
    norm: str = "l2",
) -> DecayFit:
    """Fit log||u(t)|| = intercept - rate * t over the window.

    The default window spans [0.3, 0.9] of the horizon, skipping the
    initial transient and any machine-zero tail.
    """
    if norm == "l2":
        values = trajectory.l2_norms
    elif norm == "h1":
        values = trajectory.h1_norms
    else:
        raise InvalidParameterError(f"unknown norm {norm!r}")
    t = trajectory.times
    if window is None:
        window = (FIT_WINDOW[0] * t[-1], FIT_WINDOW[1] * t[-1])
    ta, tb = float(window[0]), float(window[1])
    if not (t[0] <= ta < tb <= t[-1]):
        raise InvalidParameterError(f"fit window ({ta}, {tb}) outside trajectory span")
    mask = (t >= ta) & (t <= tb)
    if int(mask.sum()) < 10:
        raise FitError(f"only {int(mask.sum())} samples inside the fit window; need 10")
    y = values[mask]
    if np.any(y <= 0.0):
        raise FitError(
            "norm reached zero inside the fit window; shrink the window "
            "(the state has decayed to machine zero)"
        )
    tw = t[mask]
    logy = np.log(y)
    slope, intercept = np.polyfit(tw, logy, 1)
    resid = logy - (slope * tw + intercept)
    ss_res = float(np.dot(resid, resid))
    centered = logy - logy.mean()
    ss_tot = float(np.dot(centered, centered))
    # a flat history has only rounding noise in ss_tot; that is a perfect fit
    tiny = logy.size * (1e-13 * max(1.0, float(np.max(np.abs(logy))))) ** 2
    r2 = 1.0 if ss_tot <= tiny else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return DecayFit(
        rate=float(-slope), intercept=float(intercept), r_squared=r2, window=(ta, tb)
    )


def run_experiment(
    preset: str,
    nx: int = 1000,
    nt: int = 1000,
    out_dir: Optional[str] = None,
    full_state: bool = False,
):
    """Run one canned experiment; returns (trajectory, report, fit).

    ``full_state`` keeps the (nt, nx) state history in the trajectory and
    writes it to state.csv; without it the march holds O(nx) memory and
    ``trajectory.states`` is the final level alone.
    """
    if preset not in EXPERIMENT_PRESETS:
        raise InvalidParameterError(
            f"unknown preset {preset!r}; choose from {sorted(EXPERIMENT_PRESETS)}"
        )
    config = SimulationConfig(nx=nx, nt=nt, **EXPERIMENT_PRESETS[preset])
    config.validate()
    check_run_fits(config.nx, config.n_modes, config.nt, int(full_state))  # before the design allocates
    report = design_fixed(
        config.nu, config.alpha, config.mu, config.n_modes, config.length,
        nx=config.nx, smallness=(config.model == "nonlinear"),
    )
    trajectory = run_simulation(config, full_state=full_state)
    fit = fit_decay_rate(trajectory)
    if out_dir is not None:
        export(trajectory, report, fit, out_dir, config=config, full_state=full_state)
    return trajectory, report, fit


def _write_csv(path: Path, header: Optional[str], columns) -> None:
    """Write the equal-length 1-D arrays ``columns`` side by side, each value as ``_FMT``.

    Each line is one ``%`` over Python floats; lines are formed and written
    about BLOCK_ENTRIES values at a time, so a wide table is never held as text.
    """
    line = ",".join([_FMT] * len(columns)) + "\n"
    step = max(1, BLOCK_ENTRIES // len(columns))
    with path.open("w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for start in range(0, len(columns[0]), step):
            rows = zip(*(col[start:start + step].tolist() for col in columns))
            fh.write("".join([line % row for row in rows]))


def export(
    trajectory: Optional[Trajectory],
    report: Optional[DesignReport],
    fit: Optional[DecayFit],
    out_dir: str,
    config: Optional[SimulationConfig] = None,
    full_state: bool = False,
) -> list:
    """Write norms.csv, design.json, fit.json (and state.csv) into out_dir.

    Values use 17 significant digits so re-reading reproduces the floats
    bit-exactly.  Returns the list of files written.  ``full_state`` needs a
    trajectory that kept its state history; otherwise InvalidParameterError
    is raised before anything is written.
    """
    if full_state and trajectory is not None and trajectory.states.shape[0] != trajectory.nt:
        raise InvalidParameterError(
            "state.csv needs the state history; march with full_state=True to keep it")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if trajectory is not None:
        path = out / "norms.csv"
        _write_csv(
            path,
            "t,g,l2_norm,h1_norm",
            (trajectory.times, trajectory.controls, trajectory.l2_norms, trajectory.h1_norms),
        )
        written.append(path.name)
        if full_state:
            path = out / "state.csv"
            _write_csv(path, None, (trajectory.times, *trajectory.states.T))
            written.append(path.name)
    if report is not None:
        path = out / "design.json"
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        written.append(path.name)
    if fit is not None:
        path = out / "fit.json"
        path.write_text(json.dumps(fit.to_dict(), indent=2, sort_keys=True) + "\n")
        written.append(path.name)
    manifest = {
        "version": __version__,
        "files": sorted(written),
        "config": _config_dict(config) if config is not None else None,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return written + ["manifest.json"]


def _config_dict(config: SimulationConfig) -> dict:
    """Every config field but ``forcing``; u0 samples or callables become "<samples>"."""
    d = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    del d["forcing"]
    if not isinstance(d["u0"], (str, dict)):
        d["u0"] = "<samples>"
    return d


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdstab",
        description="Backstepping boundary feedback design and simulation "
        "for the 1D reaction-diffusion equation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    flags = {  # config field: (flag, type, help)
        "nu": ("--nu", float, "diffusion coefficient"),
        "alpha": ("--alpha", float, "reaction coefficient"),
        "mu": ("--mu", float, "target damping strength"),
        "n_modes": ("--modes", int, "number of controlled modes"),
        "length": ("--length", float, "domain length"),
        "nx": ("--nx", int, "number of grid nodes"),
    }
    config_defaults = {f.name: f.default for f in dataclasses.fields(SimulationConfig)}

    def add_common(p, *names, defaults=config_defaults):
        for name in names:
            flag, kind, text = flags[name]
            p.add_argument(flag, dest=name, metavar=flag[2:].upper(), type=kind,
                           default=defaults.get(name), help=text)
        p.add_argument("--out", default=None, metavar="DIR", help="output directory")

    p = sub.add_parser("design", help="closed-form controller design")
    add_common(p, "nu", "alpha", "length")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--rate", type=float, help="target decay rate for the rapid design")
    grp.add_argument("--minimal", action="store_true", help="minimal-mode design")

    # no defaults here: a flag overrides the config file only when given
    p = sub.add_parser("simulate", help="run one simulation")
    add_common(p, "nu", "alpha", "mu", "n_modes", "length", "nx", defaults={})
    p.add_argument("--nt", type=int, default=None, help="number of time levels")
    p.add_argument("--tmax", type=float, default=None, help="time horizon")
    p.add_argument("--model", choices=MODELS, default=None)
    p.add_argument("--dynamics", choices=DYNAMICS_MODES, default=None)
    p.add_argument("--u0", default=None, help="initial-condition preset (exp1, exp2)")
    p.add_argument("--config", default=None, metavar="FILE", help="JSON config file")
    p.add_argument("--full-state", action="store_true", help="also write state.csv")

    p = sub.add_parser("experiment", help="run a canned reproduction preset")
    p.add_argument("preset", choices=sorted(EXPERIMENT_PRESETS))
    run_defaults = {k: v.default for k, v in inspect.signature(run_experiment).parameters.items()}
    add_common(p, "nx", defaults=run_defaults)
    p.add_argument("--nt", type=int, default=run_defaults["nt"])
    p.add_argument("--full-state", action="store_true")

    p = sub.add_parser("scan-admissibility", help="sweep mu and report scalars")
    add_common(p, "nu", "n_modes", "length", "nx")
    p.add_argument("--mu-min", type=float, required=True)
    p.add_argument("--mu-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)

    p = sub.add_parser("kernel-dump", help="tabulate the feedback kernel")
    add_common(p, "nu", "mu", "length", "nx")
    return parser


def _cmd_design(args) -> int:
    if args.minimal:
        report = design_minimal(args.nu, args.alpha, args.length)
    else:
        report = design_rapid(args.nu, args.alpha, args.length, args.rate)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "design.json").write_text(text + "\n")
    return 0


def _load_config(args) -> SimulationConfig:
    known = set(SimulationConfig.__dataclass_fields__)
    fields = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise InvalidParameterError(f"config file {args.config} must hold a JSON object")
        if "control" in raw:
            raise InvalidParameterError("config key 'control' was folded into 'dynamics': "
                                        "use closed_loop (feedback) or open_loop (off)")
        unknown = set(raw) - known
        if unknown:
            raise InvalidParameterError(f"unknown config keys {sorted(unknown)}")
        if "forcing" in raw:
            raise InvalidParameterError("forcing is a callable and cannot come from a config file")
        fields.update(raw)
    fields.update({k: v for k, v in vars(args).items() if k in known and v is not None})
    if "u0" in fields and isinstance(fields["u0"], list):
        fields["u0"] = np.asarray(fields["u0"], dtype=float)
    try:
        return SimulationConfig(**fields)
    except TypeError as err:
        raise InvalidParameterError(str(err)) from err


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    trajectory = run_simulation(config, full_state=args.full_state)
    try:
        fit = fit_decay_rate(trajectory)
    except (FitError, InvalidParameterError):
        fit = None
    final = trajectory.l2_norms[-1]
    print(f"levels: {trajectory.nt}  final l2 norm: {final:.6e}")
    if fit is not None:
        print(f"fitted rate: {fit.rate:.6f}  r^2: {fit.r_squared:.4f}")
    if args.out:
        export(trajectory, None, fit, args.out, config=config, full_state=args.full_state)
    return 0


def _cmd_experiment(args) -> int:
    trajectory, report, fit = run_experiment(
        args.preset, nx=args.nx, nt=args.nt, out_dir=args.out, full_state=args.full_state
    )
    print(f"preset: {args.preset}")
    print(f"gamma: {report.gamma:.6f}  rho: {report.rho:.6f}")
    print(
        f"initial l2 norm: {trajectory.l2_norms[0]:.6e}  "
        f"final l2 norm: {trajectory.l2_norms[-1]:.6e}"
    )
    print(f"fitted rate: {fit.rate:.6f}  r^2: {fit.r_squared:.4f}")
    return 0


def _cmd_scan(args) -> int:
    rows = scan_admissibility(
        args.nu, args.length, args.n_modes, (args.mu_min, args.mu_max), args.steps, nx=args.nx
    )
    header = "mu," + ",".join(f"a_{j}" for j in range(1, args.n_modes + 1)) + ",admissible"
    lines = [header]
    for row in rows:
        vals = ",".join(_FMT % s for s in row.scalars)
        lines.append(f"{_FMT % row.mu},{vals},{int(row.admissible)}")
    text = "\n".join(lines)
    print(text)
    for j, lo, hi in sign_change_brackets(rows):
        minor = "1 + a_1" if j == 1 else "".join(f"(1 + a_{i})" for i in range(1, j + 1))
        print(f"sign change of {minor} inside ({_FMT % lo}, {_FMT % hi})", file=sys.stderr)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "scan.csv").write_text(text + "\n")
    return 0


def _cmd_kernel_dump(args) -> int:
    if not args.out:
        raise InvalidParameterError("kernel-dump writes its table to --out DIR; give --out")
    check_table_fits(args.nx)  # before the grid, so nothing is allocated
    grid = make_grid(args.length, args.nx)
    values = kernel_table(grid, args.mu, args.nu).values
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "kernel.csv", None, (grid.nodes, *values.T))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "design": _cmd_design,
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
        "scan-admissibility": _cmd_scan,
        "kernel-dump": _cmd_kernel_dump,
    }
    try:
        return handlers[args.verb](args)
    except RdstabError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
