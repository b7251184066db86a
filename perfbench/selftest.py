"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the library's test collection; the smoke runs
take a few seconds at the small sizes.
"""

from __future__ import annotations

import json
import sys
import types

import pytest

import run  # first: puts src/ on sys.path and pins BLAS threads
import layers
import workloads
from tracing import Span, Tracer, read_spans, self_times

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _span(id, parent, start, end, name="x", iteration=1, **attrs):
    return Span(id, parent, iteration, name, float(start), float(end), attrs)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, 0, 10),
        _span(1, 0, 1, 4),
        _span(2, 1, 2, 3),  # grandchild of 0: counted in 1, not again in 0
        _span(3, 0, 5, 9),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10 - 3 - 4)
    assert st[1] == pytest.approx(3 - 1)
    assert st[2] == pytest.approx(1)
    assert st[3] == pytest.approx(4)


def test_per_layer_splits_memory_and_timed_iterations_and_reports_absent_layers_as_zero():
    spans = [
        _span(0, None, 0, 10, layers.ITERATION_SPAN, 1, memory=True),
        _span(1, 0, 1, 9, "simulator.run_simulation", 1, peak_mb=50.0, steps=10,
              newton_iters=30),
        _span(2, None, 20, 26, layers.ITERATION_SPAN, 2, memory=False),
        _span(3, 2, 21, 25, "simulator.run_simulation", 2, steps=10, newton_iters=30),
        _span(4, 3, 22, 23, "kernel.kernel_table", 2, order=7),
        _span(5, None, 30, 31, "kernel.kernel_table", None, order=99),  # outside iterations
    ]
    m = layers.per_layer(spans, untraced_run_s=5.0)
    assert m["simulator.run_simulation_s"][0] == pytest.approx(3.0)
    assert m["simulator.run_simulation_peak_mb"][0] == pytest.approx(50.0)
    assert m["simulator.step_us"][0] == pytest.approx(3e5)
    assert m["simulator.newton_iters_per_step"][0] == pytest.approx(3.0)
    assert m["kernel.kernel_table_calls"][0] == 1
    assert m["kernel.series_order"][0] == 7
    assert m["trace.run_s"][0] == pytest.approx(6.0)
    assert m["trace.overhead_s"][0] == pytest.approx(1.0)
    assert m["transform.scan_admissibility_s"][0] == 0.0
    assert m["controller.admissible_ratio"][0] == 0.0


def test_trace_file_round_trips(tmp_path):
    tracer = Tracer()
    tracer.iteration = 3
    outer = tracer.begin("a")
    tracer.end(tracer.begin("b"))
    tracer.end(outer)
    path = tmp_path / "t.jsonl"
    tracer.write(path, header={"untraced_run_s": 1.0})
    back = read_spans(path)
    assert [(s.name, s.parent, s.iteration) for s in back] == [("a", None, 3), ("b", 0, 3)]


def test_wrappers_restore_every_binding_also_after_an_error():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, *_ in layers.BINDINGS}
    fake = types.ModuleType("fake")

    def boom():
        raise ValueError("inside")

    fake.boom = boom
    tracer = Tracer()
    try:
        layers.install(tracer)
        tracer.wrap(fake, "boom", "fake.boom")
        tracer.wrap(fake, "gone", "fake.gone")
        assert tracer.missing == ["fake.gone"]
        for (m, a), fn in originals.items():
            assert getattr(sys.modules[m], a) is not fn
        with pytest.raises(ValueError):
            fake.boom()
    finally:
        tracer.restore()
    assert tracer.spans[-1].attrs["error"] == "ValueError"
    assert fake.boom is boom
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[m], a) is fn, f"{m}.{a} not restored"


def test_nested_memory_spans_report_their_own_peaks():
    import numpy as np

    tracer = Tracer()
    mod = types.ModuleType("mem")
    mod.inner = lambda: np.ones(2**20).sum()  # 8 MB
    mod.outer = lambda: (np.ones(2**21), mod.inner())[1]  # 16 MB held across inner
    tracer.wrap(mod, "inner", "inner", memory=True)
    tracer.wrap(mod, "outer", "outer", memory=True)
    tracer.track_memory = True
    mod.outer()
    tracer.restore()
    peaks = {s.name: s.attrs["peak_mb"] for s in tracer.spans}
    assert 7.9 < peaks["inner"] < 9
    assert 23.9 < peaks["outer"] < 26


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_every_check(name, trace, tmp_path):
    metrics, checks, notes, tracer = run.measure(
        name, seed=3, seconds=0.0, trace=trace, work_dir=tmp_path, sizes=workloads.SMOKE
    )
    assert checks.failed == 0, checks.messages
    assert checks.attempted > 0
    section = "per_layer" if trace else "end_to_end"
    assert list(metrics) == [m["name"] for m in SPEC[section]]
    assert all(unit == m["unit"] for (_, unit), m in zip(metrics.values(), SPEC[section]))
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())
        return
    assert tracer.missing == []
    if name == "exp1_pair":
        assert metrics["simulator.newton_iters"][0] == 0
    if name == "exp2_pair":
        assert metrics["simulator.newton_iters"][0] > 0
    if name == "design_sweep":
        assert all(v == 0 for k, (v, _) in metrics.items() if k.startswith("simulator."))
        assert metrics["kernel.kernel_table_calls"][0] == workloads.SMOKE.scan_steps + 2
