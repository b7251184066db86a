"""Repeat the benchmark over seeds and report each metric's quartile spread.

    python3 perfbench/spread.py --workloads exp1_pair exp2_pair design_sweep \\
        --runs 10 --out perfbench/baseline.json

For every workload this runs ``run.py`` once per seed (1..runs) with tracing
off and once with tracing on (seed 1), one process at a time.  For each
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median next
to the bound and a third of it from BENCHMARK.json.  ``--out`` writes every
value, the spreads and the traced per-layer metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = json.loads(lines[0][len("env "):])
    return {"env": env, **json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    steady_all = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "env": runs[0]["env"],
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        print(f"{workload}: {args.runs} runs of {seconds} s; error_rate "
              f"{entry['failed'] / entry['attempted']:.6g} "
              f"({entry['failed']} failed of {entry['attempted']} checks)")
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            bound = bounds.get(name)
            steady = bound is None or stats["spread"] < bound / 3
            steady_all = steady_all and steady
            print(f"  {name:12s} median {stats['median']:.6g} {stats['unit']:5s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                  f"bound {bound} {'ok' if steady else 'WIDER THAN bound/3'}")
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_correct"] = traced["correct"]
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if steady_all else 1


if __name__ == "__main__":
    sys.exit(main())
