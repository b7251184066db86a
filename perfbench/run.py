"""rdstab benchmark: one workload, measured for a fixed time, checked every iteration.

    python3 perfbench/run.py --workload exp1_pair --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): exp1_pair, exp2_pair, design_sweep.

--trace 0  End-to-end run, tracing off.  Sets up the workload's primary
           configuration again and again for the first SETUP_SHARE of
           --seconds, at least MIN_SETUPS times (setup_s is their median),
           then runs iterations for the rest (run_s is their median).
--trace 1  One untraced iteration, then traced iterations until --seconds have
           passed, at least two.  Library functions are rebound where their
           callers import them (layers.py).  The first traced iteration also
           records tracemalloc peaks; times come from the others.  Spans go to
           .perfbench/trace-<workload>-seed<n>.jsonl, and the per-layer medians
           are reported.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The program is
imported from src/ of the checkout that holds this file.  BLAS and OpenMP
run on THREADS threads, pinned before numpy is imported.
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SHARE = 0.25
MIN_SETUPS = 3

# without the sources main() reports the error; nothing else can run
if (SRC / "rdstab" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from rdstab import RdstabError
    from tracing import Tracer


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": THREADS,
        "git_commit": git_commit(),
        "seed": seed,
    }


def tail(values):
    """(percentile, value) of the highest order statistic with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def _iteration(wl, checks, tracer=None, iteration=0, memory=False):
    """Run and check one iteration; returns its wall time, or None if the library raised.

    With a tracer, the iteration gets a root span and id ``iteration``, and
    ``memory`` turns on tracemalloc peaks for the memory spans.
    """
    root = None
    if tracer is not None:
        tracer.iteration, tracer.track_memory = iteration, memory
        root = tracer.begin(layers.ITERATION_SPAN)
        root.attrs["memory"] = memory
    t0 = time.perf_counter()
    try:
        results = wl.iterate()
    except RdstabError as err:
        checks.check(False, f"{type(err).__name__}: {err}")
        return None
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(root)
            tracer.iteration, tracer.track_memory = None, False
    wl.check(results, checks)
    return elapsed


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path, sizes=None):
    """Run one workload; returns (metrics {name: (value, unit)}, checks, notes, tracer)."""
    sizes = sizes or workloads.Sizes()
    checks = workloads.Checks()
    wl = workloads.make(name, seed, work_dir, sizes)
    setup_times, run_times = [], []
    if trace:
        tracer = Tracer()
        deadline = time.perf_counter() + seconds
        try:
            layers.install(tracer)
            # iteration 1 warms up and records tracemalloc peaks; its times are not used
            _iteration(wl, checks, tracer, 1, memory=True)
            tracer.restore()
            # the untraced reference is the base of the tracing overhead
            elapsed = _iteration(wl, checks)
            if elapsed is not None:
                run_times.append(elapsed)
            layers.install(tracer)
            iteration = 2
            while True:
                _iteration(wl, checks, tracer, iteration)
                iteration += 1
                if time.perf_counter() >= deadline:
                    break
        finally:
            tracer.restore()
    else:
        tracer = None
        setup_end = time.perf_counter() + SETUP_SHARE * seconds
        attempts = 0
        while attempts < MIN_SETUPS or time.perf_counter() < setup_end:
            attempts += 1
            t0 = time.perf_counter()
            try:
                wl.setup(checks)
            except RdstabError as err:
                checks.check(False, f"setup: {type(err).__name__}: {err}")
                continue
            setup_times.append(time.perf_counter() - t0)
        deadline = time.perf_counter() + (1.0 - SETUP_SHARE) * seconds
        while True:
            elapsed = _iteration(wl, checks)
            if elapsed is not None:
                run_times.append(elapsed)
            if time.perf_counter() >= deadline:
                break
    if not run_times:
        raise RuntimeError(f"no {name} iteration completed: {checks.messages}")
    run_s = statistics.median(run_times)
    if trace:
        return layers.per_layer(tracer.spans, run_s), checks, {"untraced_run_s": run_s}, tracer
    if not setup_times:
        raise RuntimeError(f"no {name} set-up completed: {checks.messages}")
    metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (wl.work() / run_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"run_times": run_times, "setup_times": setup_times, "work_unit": wl.work_unit}
    return metrics, checks, notes, None


def _describe(label, values, unit):
    pct = tail(values)
    spread = (f"p{pct[0]:.0f} {pct[1]:.6g} {unit}" if pct
              else "no percentile has 10 samples beyond it")
    return (f"{label:12s} median {statistics.median(values):.6g} {unit}; {spread}; "
            f"n={len(values)}: " + " ".join(f"{v:.4g}" for v in values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rdstab" / "__init__.py").is_file():
        print(f"error: rdstab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    work_dir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    try:
        metrics, checks, notes, tracer = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, header={"env": env, "workload": args.workload, **notes})
        print(f"trace {path.relative_to(ROOT)}: {len(tracer.spans)} spans; "
              f"untraced run_s {notes['untraced_run_s']:.6g} s; "
              f"bindings not found: {tracer.missing or 'none'}")
        print(layers.format_table(metrics))
    else:
        print(_describe("run_s", notes["run_times"], "s"))
        print(_describe("setup_s", notes["setup_times"], "s"))
        value, unit = metrics["work_per_s"]
        print(f"{'work_per_s':12s} {value:.6g} {unit} ({notes['work_unit']})")
        value, unit = metrics["peak_rss_mb"]
        print(f"{'peak_rss_mb':12s} {value:.6g} {unit}")
    print(f"{'error_rate':12s} {checks.error_rate:.6g} "
          f"({checks.failed} failed of {checks.attempted} checks)")
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
