"""Benchmark workloads: a scenario plus the fixed list of CLI jobs one pass runs.

- table1-solve: the bundled paper scenario at its full 400x120 grid. The
  solvers dominate: ascent, exhaustive coverage, bisection and exhaustive
  max-min. It is the only workload where `--exact` fits the enumeration
  budget, so plan quality is measured against the true optimum.
- stress-products: a scenario generated from the workload seed (6 waveguides
  x 16 taps, 12 cuboids, 27 dB, full grid). Visibility and writing products
  (npz, a ~120 MB LP file, CSV and PGM maps) dominate; no max-min job runs,
  so bisection changes should leave it unchanged.
- quarter-sweeps: table1 at --grid-scale 0.25 (3k cells, a 1 MB tensor).
  Many operating points per precompute and short jobs, so fixed per-call
  cost dominates; set-up work added to help big grids shows as a loss here.

Every workload also runs `gainmap`, `baseline` and a `map` render of its
coverage plan, so every layer module is measured on all three.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Placeholder in a job's argv, replaced by the 1-based activation of the
# pass's first coverage plan.
PLAN = "{plan}"


@dataclass(frozen=True)
class Job:
    kind: str  # per-command metric key, e.g. "coverage_exact"
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]
    grid_scale: float | None = None
    generated: bool = False  # scenario written from the seed, else bundled table1


def _jobs(*specs) -> tuple[Job, ...]:
    return tuple(Job(kind, tuple(argv)) for kind, argv in specs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1-solve",
            jobs=_jobs(
                ("gainmap", ["gainmap"]),
                ("coverage", ["coverage"]),
                ("coverage_exact", ["coverage", "--exact"]),
                ("minmax", ["minmax"]),
                ("minmax_exact", ["minmax", "--exact"]),
                ("baseline", ["baseline"]),
                ("map", ["map", "--format", "pgm", "--activation", PLAN]),
            ),
        ),
        Workload(
            name="stress-products",
            jobs=_jobs(
                ("gainmap", ["gainmap"]),
                ("coverage_milp", ["coverage", "--milp", "cover.lp"]),
                ("baseline", ["baseline"]),
                ("map", ["map", "--format", "pgm", "--activation", PLAN]),
                ("map", ["map", "--activation", PLAN]),
            ),
            generated=True,
        ),
        Workload(
            name="quarter-sweeps",
            jobs=_jobs(
                ("gainmap", ["gainmap"]),
                ("sweep_threshold", ["sweep-threshold", "--gammas", ",".join(str(g) for g in range(12, 31))]),
                ("sweep_power", ["sweep-power"]),
                ("coverage", ["coverage", "--restarts", "16"]),
                ("minmax", ["minmax"]),
                ("baseline", ["baseline"]),
                ("map", ["map", "--format", "pgm", "--activation", PLAN]),
            ),
            grid_scale=0.25,
        ),
    )
}

HEURISTIC_COVERAGE = ("coverage", "coverage_milp")
JOB_KINDS = (
    "gainmap", "coverage", "coverage_exact", "coverage_milp", "minmax", "minmax_exact",
    "baseline", "map", "sweep_threshold", "sweep_power",
)
# Commands that every workload runs; a heuristic coverage job counts as `coverage`.
COMMON_COMMANDS = ("gainmap", "coverage", "baseline", "map")


def stress_scenario_dict(seed: int) -> dict:
    """6 waveguides x 16 taps over table1's hall, with 12 seeded cuboids.

    The hall is cut into 6 x 2 cells and each cell holds one cuboid of
    random size, height and position, so the blocked area stays comparable
    from seed to seed. Every value respects the scenario schema: footprints
    inside |y| <= 30, heights below the 10 m waveguides.
    """
    rng = np.random.default_rng([0x5EED, seed])
    x_len, y_len, cols, rows = 200.0, 60.0, 6, 2
    cell_x, cell_y = x_len / cols, y_len / rows
    blockages = []
    for c in range(cols):
        for r in range(rows):
            w = float(rng.uniform(5.0, 10.0))
            d = float(rng.uniform(5.0, 12.0))
            x0 = c * cell_x + float(rng.uniform(1.0, cell_x - w - 1.0))
            y0 = -y_len / 2 + r * cell_y + float(rng.uniform(0.0, cell_y - d))
            blockages.append({
                "x_min": round(x0, 3),
                "x_max": round(x0 + w, 3),
                "y_min": round(y0, 3),
                "y_max": round(y0 + d, 3),
                "height": round(float(rng.uniform(3.0, 8.0)), 3),
            })
    return {
        "version": 1,
        "region": {"x_len": x_len, "y_len": y_len, "height": 10.0},
        "waveguides": 6,
        "taps": {"count": 16},
        "blockages": blockages,
        "grid": {"nx": 400, "ny": 120},
        "channel": {"freq_hz": 28.0e9, "tx_power_dbm": 40.0, "noise_dbm": -70.0,
                    "nlos_db": -60.0, "n_clusters": 4, "n_eff": 1.4},
        "solver": {"threshold_db": 27.0, "eps_t": 1.0e-3, "max_sweeps": 50, "seed": seed},
    }


def prepare(workload: Workload, seed: int, work: Path) -> list[str]:
    """Write the workload's inputs under `work`; return the CLI scenario flags."""
    if workload.generated:
        path = work / "scenario.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stress_scenario_dict(seed), fh, indent=1, sort_keys=True)
        flags = ["--config", str(path)]
    else:
        flags = ["--config", "table1"]
    if workload.grid_scale is not None:
        flags += ["--grid-scale", repr(workload.grid_scale)]
    return flags


def load_reference(workload: Workload, seed: int):
    """The Scenario the CLI sees, loaded through the library for the checks."""
    from pinchplan import load_bundled, scenario_from_dict

    scn = scenario_from_dict(stress_scenario_dict(seed)) if workload.generated else load_bundled("table1")
    if workload.grid_scale is not None:
        scn = scn.with_grid_scale(workload.grid_scale)
    return scn
