"""The library names that the benchmark's traced run rebinds must keep resolving.

``perfbench/layers.py`` wraps each ``(module, attr)`` of its ``BINDINGS`` at
run time; a renamed or removed function would otherwise surface only when
the benchmark's own self-test runs.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rdstab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_layers():
    # layers.py imports its sibling ``tracing``, so perfbench/ joins the path
    # only while it loads
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_traced_bindings_resolve_to_callables():
    bindings = _load_layers().BINDINGS
    assert bindings
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_trajectory_span_reads_a_run_without_history():
    # the traced run's experiments march without the state history
    traj = rdstab.run_simulation(rdstab.SimulationConfig(nx=40, nt=25), full_state=False)
    attrs = _load_layers()._trajectory(traj)
    assert attrs == {"steps": 24, "nx": 40, "newton_iters": 0}


def test_kernel_span_reads_a_kernel():
    # the traced run describes every kernel_table call by the series order
    kern = rdstab.kernel_table(rdstab.make_grid(1.0, 200), 6.0, 1.0)
    assert _load_layers()._kernel(kern) == {"order": 9, "nx": 200}


def test_import_leaves_scipy_special_unloaded():
    # only the kernel table reads scipy.special; every run's peak memory would pay for it
    code = "import sys, rdstab; print('scipy.special' in sys.modules)"
    src = str(Path(rdstab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
