"""Which rdstab bindings the traced run wraps, and the per-layer table.

Layers are the modules under ``src/rdstab``.  Each function is wrapped
where its caller looks it up (``rdstab.simulator.kernel_table``, not
``rdstab.kernel.kernel_table``), because a call resolves the name in the
caller's module globals.  ``errors`` and ``constants`` do no work.

Run as a script to print the per-layer table of a trace file:

    python3 perfbench/layers.py .perfbench/trace-exp1_pair-seed1.jsonl
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from tracing import Span, Tracer, read_spans, self_times

ITERATION_SPAN = "bench.iteration"


def _kernel(k, *args, **kwargs):
    return {"order": int(k.order), "nx": int(k.grid.nx)}


def _scan(rows, *args, **kwargs):
    return {"rows": len(rows), "admissible": sum(bool(r.admissible) for r in rows)}


def _trajectory(traj, *args, **kwargs):
    return {
        "steps": int(traj.nt - 1),
        "nx": int(traj.states.shape[1]),
        "newton_iters": int(traj.newton_iters.sum()),
    }


def _export(written, *args, **kwargs):
    out_dir = Path(kwargs["out_dir"] if "out_dir" in kwargs else args[3])
    return {"bytes": sum((out_dir / name).stat().st_size for name in written)}


# (module, attribute, span name, tracemalloc peak, span attributes)
BINDINGS = [
    ("rdstab.transform", "kernel_table", "kernel.kernel_table", False, _kernel),
    ("rdstab.controller", "kernel_table", "kernel.kernel_table", False, _kernel),
    ("rdstab.simulator", "kernel_table", "kernel.kernel_table", False, _kernel),
    ("rdstab.cli", "kernel_table", "kernel.kernel_table", False, _kernel),
    ("rdstab.transform", "projection_matrix", "spectral.projection_matrix", False, None),
    ("rdstab.simulator", "projection_matrix", "spectral.projection_matrix", False, None),
    ("rdstab.transform", "upsilon_matrix", "transform.upsilon_matrix", False, None),
    ("rdstab.controller", "build_transform", "transform.build_transform", True, None),
    ("rdstab.simulator", "build_transform", "transform.build_transform", True, None),
    ("rdstab.controller", "operator_norms", "transform.operator_norms", False, None),
    ("rdstab.transform", "scan_admissibility", "transform.scan_admissibility", False, _scan),
    ("rdstab.cli", "scan_admissibility", "transform.scan_admissibility", False, _scan),
    ("rdstab.simulator", "feedback_gain", "controller.feedback_gain", False, None),
    ("rdstab.cli", "design_fixed", "controller.design_fixed", False, None),
    ("rdstab.controller", "design_rapid", "controller.design_rapid", False, None),
    ("rdstab.controller", "design_minimal", "controller.design_minimal", False, None),
    ("rdstab.cli", "run_simulation", "simulator.run_simulation", True, _trajectory),
    ("rdstab.simulator", "l2_norm", "grid.l2_norm", False, None),
    ("rdstab.simulator", "h1_norm", "grid.h1_norm", False, None),
    ("rdstab.cli", "fit_decay_rate", "cli.fit_decay_rate", False, None),
    ("rdstab.cli", "export", "cli.export", False, _export),
    ("rdstab.cli", "run_experiment", "cli.run_experiment", False, None),
]


def install(tracer: Tracer) -> None:
    """Rebind every entry of :data:`BINDINGS` through ``tracer``."""
    for module_name, attr, name, memory, describe in BINDINGS:
        tracer.wrap(sys.modules[module_name], attr, name, memory=memory, describe=describe)


class _Iteration:
    """Spans of one iteration, grouped by name, with their self times."""

    def __init__(self, spans: list[Span], selfs: dict[int, float]):
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
        self.selfs = selfs

    def calls(self, *names) -> int:
        return sum(len(self.by_name[n]) for n in names)

    def self_s(self, *names) -> float:
        return sum(self.selfs[s.id] for n in names for s in self.by_name[n])

    def attr_sum(self, name, key) -> float:
        return sum(s.attrs.get(key, 0) for s in self.by_name[name])

    def attr_max(self, name, key) -> float:
        return max((s.attrs.get(key, 0) for s in self.by_name[name]), default=0)

    def builds(self) -> tuple[int, int]:
        built = self.by_name["transform.build_transform"]
        ok = sum("error" not in s.attrs for s in built)
        return (len(built) + int(self.attr_sum("transform.scan_admissibility", "rows")),
                ok + int(self.attr_sum("transform.scan_admissibility", "admissible")))

    def tracked_memory(self) -> bool:
        return any(s.attrs.get("memory") for s in self.by_name[ITERATION_SPAN])

    def steps(self) -> int:
        return int(self.attr_sum("simulator.run_simulation", "steps"))


def _ratio(num, den):
    return num / den if den else 0.0


_DESIGN = ("controller.design_fixed", "controller.design_rapid", "controller.design_minimal")

# name, unit, better, value of one iteration, which end-to-end metric it should move
PER_LAYER = [
    ("kernel.kernel_table_s", "s", "lower",
     lambda it: it.self_s("kernel.kernel_table"),
     "run_s on design_sweep (main effect); setup_s on all three"),
    ("kernel.kernel_table_calls", "count", "lower",
     lambda it: it.calls("kernel.kernel_table"),
     "run_s on design_sweep; setup_s on all three"),
    ("kernel.series_order", "count", "lower",
     lambda it: it.attr_max("kernel.kernel_table", "order"),
     "run_s on design_sweep; setup_s on all three"),
    ("spectral.projection_matrix_s", "s", "lower",
     lambda it: it.self_s("spectral.projection_matrix"),
     "setup_s and peak_rss_mb on the pairs"),
    ("transform.build_transform_s", "s", "lower",
     lambda it: it.self_s("transform.build_transform"),
     "setup_s and peak_rss_mb on the pairs"),
    ("transform.build_transform_peak_mb", "MB", "lower",
     lambda it: it.attr_max("transform.build_transform", "peak_mb"),
     "setup_s and peak_rss_mb on the pairs"),
    ("transform.upsilon_matrix_s", "s", "lower",
     lambda it: it.self_s("transform.upsilon_matrix"),
     "run_s on design_sweep"),
    ("transform.scan_admissibility_s", "s", "lower",
     lambda it: it.self_s("transform.scan_admissibility"),
     "run_s on design_sweep"),
    ("transform.operator_norms_s", "s", "lower",
     lambda it: it.self_s("transform.operator_norms"),
     "run_s on design_sweep and exp2_pair"),
    ("controller.feedback_gain_s", "s", "lower",
     lambda it: it.self_s("controller.feedback_gain"),
     "setup_s"),
    ("controller.design_s", "s", "lower",
     lambda it: it.self_s(*_DESIGN),
     "run_s on design_sweep"),
    ("controller.transform_builds", "count", "lower",
     lambda it: it.builds()[0],
     "run_s on design_sweep"),
    ("controller.admissible_ratio", "ratio", "higher",
     lambda it: _ratio(it.builds()[1], it.builds()[0]),
     "run_s on design_sweep"),
    ("simulator.run_simulation_s", "s", "lower",
     lambda it: it.self_s("simulator.run_simulation"),
     "run_s and work_per_s on both pairs"),
    ("simulator.steps", "count", "lower",
     lambda it: it.steps(),
     "run_s and work_per_s on both pairs"),
    ("simulator.step_us", "us", "lower",
     lambda it: 1e6 * _ratio(it.self_s("simulator.run_simulation"), it.steps()),
     "run_s and work_per_s on both pairs"),
    ("simulator.run_simulation_peak_mb", "MB", "lower",
     lambda it: it.attr_max("simulator.run_simulation", "peak_mb"),
     "peak_rss_mb on exp1_pair"),
    ("simulator.newton_iters", "count", "lower",
     lambda it: it.attr_sum("simulator.run_simulation", "newton_iters"),
     "run_s on exp2_pair (0 on exp1_pair)"),
    ("simulator.newton_iters_per_step", "iters/step", "lower",
     lambda it: _ratio(it.attr_sum("simulator.run_simulation", "newton_iters"), it.steps()),
     "run_s on exp2_pair"),
    ("grid.norm_calls", "count", "lower",
     lambda it: it.calls("grid.l2_norm", "grid.h1_norm"),
     "run_s on the pairs"),
    ("grid.norms_s", "s", "lower",
     lambda it: it.self_s("grid.l2_norm", "grid.h1_norm"),
     "run_s on the pairs"),
    ("cli.fit_decay_rate_s", "s", "lower",
     lambda it: it.self_s("cli.fit_decay_rate"),
     "guards run_s on the pairs"),
    ("cli.export_s", "s", "lower",
     lambda it: it.self_s("cli.export"),
     "guards run_s on the pairs"),
    ("cli.export_bytes", "bytes", "lower",
     lambda it: it.attr_sum("cli.export", "bytes"),
     "guards run_s on the pairs"),
    ("trace.run_s", "s", "lower",
     lambda it: sum(s.duration for s in it.by_name[ITERATION_SPAN]),
     "traced wall time of one iteration"),
]
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower",
                  "traced run_s minus untraced run_s of the same process")


def per_layer(spans: list[Span], untraced_run_s: float) -> dict[str, tuple[float, str]]:
    """Median over iterations of every per-layer metric, with its unit.

    Only spans inside an iteration count; an iteration that raised still
    counts, with whatever spans it recorded.  Memory peaks come from the
    iterations that tracked memory, everything else from the others
    (from all iterations when every one tracked memory).
    """
    selfs = self_times(spans)
    groups = defaultdict(list)
    for s in spans:
        if s.iteration is not None:
            groups[s.iteration].append(s)
    iterations = [_Iteration(g, selfs) for _, g in sorted(groups.items())]
    memory = [it for it in iterations if it.tracked_memory()]
    timed = [it for it in iterations if not it.tracked_memory()] or iterations
    out = {}
    for name, unit, _, value, _ in PER_LAYER:
        vals = [float(value(it)) for it in (memory if unit == "MB" else timed)]
        out[name] = (statistics.median(vals) if vals else 0.0, unit)
    name, unit, _, _ = TRACE_OVERHEAD
    out[name] = (out["trace.run_s"][0] - untraced_run_s, unit)
    return out


def format_table(metrics: dict[str, tuple[float, str]]) -> str:
    moves = {m[0]: m[4] for m in PER_LAYER}
    moves[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[3]
    lines = [f"{'metric':36s} {'value':>14s} {'unit':10s} moves"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:36s} {value:14.6g} {unit:10s} {moves.get(name, '')}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 perfbench/layers.py TRACE.jsonl", file=sys.stderr)
        return 2
    path = Path(argv[0])
    with path.open(encoding="utf-8") as fh:
        header = json.loads(fh.readline()).get("header", {})
    metrics = per_layer(read_spans(path), header.get("untraced_run_s", 0.0))
    print(format_table(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
