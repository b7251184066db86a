"""The three benchmark workloads and the checks run after every iteration.

Every workload is a closed loop with one caller: the next iteration starts
only after the previous one returned.  All use the paper's presets
(nu = 1, L = 1); only ``design_sweep`` draws inputs from the seed.

exp1_pair     run_experiment("exp1") then ("exp1_uncontrolled"), nx = nt = 2000.
              Linear path: dense LU of tridiagonal + rank N and an O(nx^2)
              lu_solve per step, also for the purely tridiagonal plant twin.
exp2_pair     run_experiment("exp2") then ("exp2_uncontrolled"), nx = nt = 2000.
              Nonlinear path: banded Woodbury Newton march; never the dense LU.
design_sweep  scan_admissibility over mu in (1 + s1, 40 + s2), N = 2, then
              design_rapid and design_minimal with smallness bounds.  Design
              only, no marching: many small kernel builds and dense
              operator norms.  Every scan sample is admissible (no
              1 + a_j comes within ADMISSIBILITY_FLOOR of 0), so the scan's
              early stop on an inadmissible sample is not exercised.

The library is called through module attributes (``rdstab.cli.run_experiment``)
so that the traced run's rebindings see the calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rdstab
import rdstab.cli
import rdstab.controller
import rdstab.grid
import rdstab.kernel
import rdstab.transform
from rdstab.constants import ADMISSIBILITY_FLOOR, INVERSE_TOL, RATE_LOWER_FRACTION

EXPORTED = ("norms.csv", "fit.json", "design.json", "manifest.json")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark uses the defaults, the self-test a small set."""

    nx: int = 2000
    nt: int = 2000
    scan_nx: int = 1000
    scan_steps: int = 40
    design_nx: int = 600


SMOKE = Sizes(nx=200, nt=200, scan_nx=200, scan_steps=8, design_nx=200)


class Checks:
    """Tally of correctness checks; a raised RdstabError counts as one failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def setup_once(mu: float, n_modes: int, nx: int, checks: Checks) -> None:
    """kernel_table -> build_transform -> feedback_gain, as every run pays first."""
    grid = rdstab.grid.make_grid(1.0, nx)
    kern = rdstab.kernel.kernel_table(grid, mu, 1.0)
    tset = rdstab.transform.build_transform(kern, n_modes)
    gain = rdstab.controller.feedback_gain(kern, tset)
    checks.check(bool(np.all(np.isfinite(gain))) and tset.inverse_residual <= INVERSE_TOL,
                 f"setup mu={mu} N={n_modes} nx={nx}: non-finite gain or residual "
                 f"{tset.inverse_residual:.3e} > {INVERSE_TOL:.0e}")


class PairWorkload:
    """A controlled preset followed by its uncontrolled twin, exported to disk."""

    work_unit = "node_steps_per_s"

    def __init__(self, name, presets, setup_config, sizes: Sizes, work_dir: Path):
        self.name = name
        self.presets = presets
        self.setup_config = setup_config
        self.sizes = sizes
        self.work_dir = work_dir
        self.first_bytes = None

    def setup(self, checks: Checks) -> None:
        mu, n_modes = self.setup_config
        setup_once(mu, n_modes, self.sizes.nx, checks)

    def work(self) -> int:
        """Node-steps nx * (nt - 1) summed over the iteration's simulations."""
        return len(self.presets) * self.sizes.nx * (self.sizes.nt - 1)

    def iterate(self):
        return {
            preset: rdstab.cli.run_experiment(
                preset, nx=self.sizes.nx, nt=self.sizes.nt, out_dir=str(self.work_dir / preset)
            )
            for preset in self.presets
        }

    def check(self, results, checks: Checks) -> None:
        self.check_physics(results, checks)
        files = {
            (preset, f): (self.work_dir / preset / f).read_bytes()
            for preset in self.presets
            for f in EXPORTED
        }
        if self.first_bytes is None:
            self.first_bytes = files
            return
        for key, data in files.items():
            checks.check(data == self.first_bytes[key],
                         f"{key[0]}/{key[1]} differs from the first iteration")


class Exp1Pair(PairWorkload):
    def __init__(self, sizes: Sizes, work_dir: Path):
        super().__init__("exp1_pair", ("exp1", "exp1_uncontrolled"), (6.0, 1), sizes, work_dir)

    def check_physics(self, results, checks: Checks) -> None:
        traj, report, fit = results["exp1"]
        floor = RATE_LOWER_FRACTION * report.rho
        checks.check(fit.rate >= floor, f"exp1 rate {fit.rate:.4f} < {floor:.4f}")
        checks.check(traj.l2_norms[-1] < traj.l2_norms[0], "exp1 final norm >= initial")
        rate = results["exp1_uncontrolled"][2].rate
        checks.check(rate < 0.0, f"exp1_uncontrolled rate {rate:.4f} >= 0")


class Exp2Pair(PairWorkload):
    def __init__(self, sizes: Sizes, work_dir: Path):
        super().__init__("exp2_pair", ("exp2", "exp2_uncontrolled"), (15.0, 2), sizes, work_dir)

    def check_physics(self, results, checks: Checks) -> None:
        l2 = results["exp2"][0].l2_norms
        checks.check(l2[-1] / l2[0] <= 1e-2, f"exp2 final/initial {l2[-1] / l2[0]:.2e} > 1e-2")
        settled = results["exp2_uncontrolled"][0].l2_norms[-1]
        checks.check(settled >= 0.5, f"exp2_uncontrolled settles at {settled:.3f} < 0.5")


class DesignSweep:
    """Admissibility scan plus rapid and minimal designs; no time marching."""

    name = "design_sweep"
    work_unit = "mu_samples_per_s"

    def __init__(self, sizes: Sizes, seed: int):
        rng = random.Random(seed)
        self.mu_range = (1.0 + rng.random(), 40.0 + rng.random())
        self.sizes = sizes
        self.first_bytes = None

    def setup(self, checks: Checks) -> None:
        setup_once(self.mu_range[0], 2, self.sizes.scan_nx, checks)

    def work(self) -> int:
        """Admissibility samples evaluated per iteration."""
        return self.sizes.scan_steps

    def iterate(self):
        s = self.sizes
        rows = rdstab.transform.scan_admissibility(
            1.0, 1.0, 2, self.mu_range, s.scan_steps, nx=s.scan_nx
        )
        rapid = rdstab.controller.design_rapid(1.0, 12.0, 1.0, 2.0, nx=s.design_nx,
                                               smallness=True)
        minimal = rdstab.controller.design_minimal(1.0, 12.0, 1.0, nx=s.design_nx,
                                                   smallness=True)
        return rows, rapid, minimal

    def check(self, results, checks: Checks) -> None:
        rows, rapid, minimal = results
        for row in rows:
            # scalars are finite up to the failing one, NaN after it
            a = np.asarray(row.scalars)
            failing = np.abs(1.0 + a) <= ADMISSIBILITY_FLOOR
            n_finite = len(a) if row.admissible else int(np.argmax(failing)) + 1
            ok = bool(np.all(np.isfinite(a[:n_finite])) and np.all(np.isnan(a[n_finite:])))
            checks.check(ok, f"scan mu={row.mu}: scalars {row.scalars}")
        checks.check(rapid.gamma > 0.0, f"design_rapid gamma {rapid.gamma} <= 0")
        checks.check(minimal.rho > 0.0, f"design_minimal rho {minimal.rho} <= 0")
        for report in (rapid, minimal):
            # rebuild the design's transform through unwrapped bindings
            grid = rdstab.grid.make_grid(report.length, self.sizes.design_nx)
            kern = rdstab.kernel.kernel_table(grid, report.mu, report.nu)
            tset = rdstab.transform.build_transform(kern, report.n_modes)
            checks.check(
                tset.inverse_residual <= INVERSE_TOL
                and tuple(tset.admissibility) == tuple(report.admissibility),
                f"{report.scheme} transform residual {tset.inverse_residual:.3e}",
            )
        data = json.dumps(
            {
                "rows": [[r.mu, r.scalars, r.admissible] for r in rows],
                "rapid": rapid.to_dict(),
                "minimal": minimal.to_dict(),
            },
            sort_keys=True,
        ).encode()
        if self.first_bytes is None:
            self.first_bytes = data
        else:
            checks.check(data == self.first_bytes, "design_sweep outputs differ from the first iteration")


NAMES = ("exp1_pair", "exp2_pair", "design_sweep")


def make(name: str, seed: int, work_dir: Path, sizes: Sizes = Sizes()):
    """Workload ``name``; the pairs ignore the seed, their presets are fixed."""
    if name == "exp1_pair":
        return Exp1Pair(sizes, work_dir)
    if name == "exp2_pair":
        return Exp2Pair(sizes, work_dir)
    if name == "design_sweep":
        return DesignSweep(sizes, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
