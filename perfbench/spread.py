"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads table1-solve,quarter-sweeps --seeds 1-10 [--out FILE]

For every workload and end-to-end metric this prints the median of the
runs and the spread, the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from BENCHMARK.json; a spread above a third of its
bound is flagged. With `--trace` the runs are traced and the per-layer
metrics are reported instead, without bounds. Runs go one after another,
each in a fresh process. `--out` writes the medians, quartiles and the
machine to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None, help="comma-separated names (default: all)")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", action="store_true", help="traced runs, per-layer metrics")
    p.add_argument("--out", default=None)
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in names:
        values: dict[str, list[float]] = {}
        bad = 0
        for seed in seeds:
            t0 = time.perf_counter()
            res = run_once(spec, workload, seed, int(args.trace))
            bad += 0 if res["correct"] and res["failed"] == 0 else 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall, correct={res['correct']}",
                  file=sys.stderr, flush=True)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            line = f"{workload:16s} {name:34s} median={med:<12.6g} spread={spread:.4f}"
            if name in bounds:
                line += f" bound={bounds[name]}"
                if spread >= bounds[name] / 3:
                    line += "  <-- above a third of the bound"
            print(line)
        report[workload] = {"seeds": seeds, "incorrect_runs": bad, "metrics": rows}
    if args.out:
        import numpy

        machine = {"nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
                   "numpy": numpy.__version__}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "run_seconds": spec["run_seconds"], "workloads": report},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
