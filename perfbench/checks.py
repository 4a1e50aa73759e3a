"""Output checks for benchmark jobs.

Each check re-derives a job's headline numbers from its activation with the
public library functions (`avg_snr`, `coverage_count`, `worst_grid_snr`) on a
gain map the benchmark builds itself, and compares them with the summary the
CLI wrote. A check returns a list of problems; an empty list means the job's
output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np

SUMMARY_FILES = {
    "gainmap": "gainmap_summary.json",
    "coverage": "coverage_summary.json",
    "minmax": "minmax_summary.json",
    "baseline": "baseline_summary.json",
    "sweep-threshold": "threshold_sweep_summary.json",
    "sweep-power": "power_sweep_summary.json",
    "map": "map_summary.json",
}
SUMMARY_KEYS = {"activation", "digest", "method", "objective", "seed", "tool_version"}
REL_TOL = 1e-9


class Reference:
    """The scenario, its gain map and derived values, built once per run."""

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.params = scenario.params

    @cached_property
    def gain_map(self):
        return self.scenario.gain_map()

    @cached_property
    def fixed_map(self):
        return self.scenario.fixed_array_map()

    @cached_property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.gain_map.valid))

    @cached_property
    def upper_bound(self) -> float:
        from pinchplan import maxmin_upper_bound

        return maxmin_upper_bound(self.gain_map, self.params)

    @cached_property
    def digest(self) -> str:
        return self.scenario.digest()


def _close(a, b, tol: float = REL_TOL) -> bool:
    return isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isclose(a, b, rel_tol=tol, abs_tol=0.0)


def read_summary(command: str, out: Path) -> tuple[dict | None, list[str]]:
    path = out / SUMMARY_FILES[command]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"summary does not parse: {exc}"]
    if not isinstance(doc, dict) or set(doc) != SUMMARY_KEYS or not isinstance(doc["objective"], dict):
        return None, [f"summary keys {sorted(doc) if isinstance(doc, dict) else type(doc).__name__} != {sorted(SUMMARY_KEYS)}"]
    return doc, []


def _activation(doc: dict, ref: Reference) -> tuple[np.ndarray | None, list[str]]:
    act = doc["activation"]
    n_wg, n_tap = ref.gain_map.n_waveguides, ref.gain_map.n_taps
    if (not isinstance(act, list) or len(act) != n_wg
            or not all(isinstance(m, int) and 1 <= m <= n_tap for m in act)):
        return None, [f"activation {act!r} is not one 1-based tap per waveguide"]
    return np.asarray(act, dtype=int) - 1, []


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_gainmap(doc, argv, out: Path, ref: Reference) -> list[str]:
    obj, problems = doc["objective"], []
    gm = ref.gain_map
    if obj.get("valid_cells") != ref.n_valid or obj.get("total_cells") != gm.valid.size:
        problems.append(f"cell counts {obj.get('valid_cells')}/{obj.get('total_cells')} != {ref.n_valid}/{gm.valid.size}")
    try:
        with np.load(out / "gainmap.npz") as npz:
            if not np.array_equal(npz["gains"], gm.gains):
                problems.append("gainmap.npz gains differ from the library gain map")
            if not np.array_equal(npz["valid"], gm.valid):
                problems.append("gainmap.npz valid mask differs from the library gain map")
            blocked = float(1.0 - npz["los"].mean())
    except (OSError, KeyError, ValueError) as exc:
        return problems + [f"gainmap.npz unreadable: {exc}"]
    if not _close(obj.get("blocked_fraction"), blocked):
        problems.append(f"blocked_fraction {obj.get('blocked_fraction')!r} != {blocked!r}")
    return problems


def _check_coverage(doc, argv, out: Path, ref: Reference) -> list[str]:
    from pinchplan import coverage_count, db_to_linear

    obj = doc["objective"]
    sel, problems = _activation(doc, ref)
    if sel is None:
        return problems
    expect_method = "coverage/exact" if "--exact" in argv else "coverage/coordinate_ascent"
    if doc["method"] != expect_method:
        problems.append(f"method {doc['method']!r} != {expect_method!r}")
    gamma = float(_arg(argv, "--gamma-db", ref.scenario.solver.threshold_db))
    if obj.get("threshold_db") != gamma:
        problems.append(f"threshold_db {obj.get('threshold_db')!r} != {gamma!r}")
    count = coverage_count(sel, ref.gain_map, ref.params, db_to_linear(gamma))
    if obj.get("covered_count") != count:
        problems.append(f"covered_count {obj.get('covered_count')!r} != recomputed {count}")
    if not _close(obj.get("coverage_fraction"), count / ref.n_valid):
        problems.append(f"coverage_fraction {obj.get('coverage_fraction')!r} != {count / ref.n_valid!r}")
    milp = _arg(argv, "--milp")
    if milp is not None and not ((out / milp).is_file() and (out / milp).stat().st_size > 0):
        problems.append(f"LP file {milp} missing or empty")
    return problems


def _check_minmax(doc, argv, out: Path, ref: Reference) -> list[str]:
    from pinchplan import linear_to_db, worst_grid_snr

    obj = doc["objective"]
    sel, problems = _activation(doc, ref)
    if sel is None:
        return problems
    expect_method = "minmax/exact" if "--exact" in argv else "minmax/bisection"
    if doc["method"] != expect_method:
        problems.append(f"method {doc['method']!r} != {expect_method!r}")
    worst = worst_grid_snr(sel, ref.gain_map, ref.params)
    if not _close(obj.get("worst_grid_linear"), worst):
        problems.append(f"worst_grid_linear {obj.get('worst_grid_linear')!r} != recomputed {worst!r}")
    if not _close(obj.get("worst_grid_db"), linear_to_db(worst)):
        problems.append(f"worst_grid_db {obj.get('worst_grid_db')!r} != {linear_to_db(worst)!r}")
    if worst > ref.upper_bound * (1 + REL_TOL):
        problems.append(f"worst grid {worst!r} above maxmin_upper_bound {ref.upper_bound!r}")
    return problems


def _random_draws(ref: Reference, n: int):
    from pinchplan import derived_seeds, random_activation

    return [random_activation(ref.scenario, s).as_array() for s in derived_seeds(ref.scenario.solver.seed, n)]


def _check_baseline(doc, argv, out: Path, ref: Reference) -> list[str]:
    from pinchplan import coverage_count, linear_to_db, worst_grid_snr

    obj, problems = doc["objective"], []
    thr = ref.scenario.threshold_linear
    zeros = np.zeros(ref.scenario.layout.count, dtype=int)
    fixed_cov = coverage_count(zeros, ref.fixed_map, ref.params, thr) / ref.n_valid
    fixed_db = linear_to_db(worst_grid_snr(zeros, ref.fixed_map, ref.params))
    n = obj.get("n_random")
    if not isinstance(n, int) or n < 1:
        return [f"n_random {n!r} is not a positive integer"]
    draws = _random_draws(ref, n)
    rand_cov = float(np.mean([coverage_count(a, ref.gain_map, ref.params, thr) / ref.n_valid for a in draws]))
    rand_db = float(np.mean([linear_to_db(worst_grid_snr(a, ref.gain_map, ref.params)) for a in draws]))
    for key, want in (("fixed_coverage", fixed_cov), ("fixed_worst_db", fixed_db),
                      ("random_coverage_mean", rand_cov), ("random_worst_db_mean", rand_db)):
        if not _close(obj.get(key), want):
            problems.append(f"{key} {obj.get(key)!r} != recomputed {want!r}")
    return problems


def _check_map(doc, argv, out: Path, ref: Reference) -> list[str]:
    from pinchplan import linear_to_db, worst_grid_snr

    obj = doc["objective"]
    sel, problems = _activation(doc, ref)
    if sel is None:
        return problems
    want_act = [int(m) for m in _arg(argv, "--activation").split(",")]
    if doc["activation"] != want_act:
        problems.append(f"activation {doc['activation']!r} != requested {want_act!r}")
    worst_db = linear_to_db(worst_grid_snr(sel, ref.gain_map, ref.params))
    if not _close(obj.get("worst_valid_db"), worst_db):
        problems.append(f"worst_valid_db {obj.get('worst_valid_db')!r} != recomputed {worst_db!r}")
    fmt = _arg(argv, "--format", "csv")
    grid = ref.scenario.grid
    try:
        with open(out / f"map.{fmt}", "r", encoding="utf-8") as fh:
            if fmt == "pgm":
                head = [fh.readline().strip() for _ in range(4)]
                ok = head[0] == "P2" and head[2] == f"{grid.nx} {grid.ny}" and head[3] == "255"
            else:
                ok = fh.readline().strip() == "x,y,snr_db,valid" and sum(1 for _ in fh) == grid.nx * grid.ny
    except OSError as exc:
        return problems + [f"map.{fmt} unreadable: {exc}"]
    if not ok:
        problems.append(f"map.{fmt} header or size does not match the {grid.nx}x{grid.ny} grid")
    return problems


def _read_csv(path: Path) -> dict[str, list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [r[k] for r in rows] for k in (rows[0] if rows else {})}


def _sweep_activations(cols, n_rows: int, ref: Reference) -> tuple[list | None, list[str]]:
    acts = cols.get("optimized_activation", [])
    if len(acts) != n_rows:
        return None, [f"sweep CSV has {len(acts)} optimized activations, expected {n_rows}"]
    out = []
    for text in acts:
        sel, problems = _activation({"activation": [int(t) for t in text.split("|")]}, ref)
        if sel is None:
            return None, problems
        out.append(sel)
    return out, []


def _check_sweep_threshold(doc, argv, out: Path, ref: Reference) -> list[str]:
    from pinchplan import coverage_count, db_to_linear

    obj = doc["objective"]
    gammas = [float(t) for t in _arg(argv, "--gammas").split(",")]
    if obj.get("thresholds_db") != gammas:
        return [f"thresholds_db {obj.get('thresholds_db')!r} != requested {gammas!r}"]
    try:
        cols = _read_csv(out / "threshold_sweep.csv")
    except OSError as exc:
        return [f"threshold_sweep.csv unreadable: {exc}"]
    sels, problems = _sweep_activations(cols, len(gammas), ref)
    if sels is None:
        return problems
    fractions = obj.get("optimized")
    if not isinstance(fractions, list) or len(fractions) != len(gammas):
        return [f"optimized column {fractions!r} does not match {len(gammas)} thresholds"]
    for g, sel, frac in zip(gammas, sels, fractions):
        want = coverage_count(sel, ref.gain_map, ref.params, db_to_linear(g)) / ref.n_valid
        if not _close(frac, want):
            problems.append(f"optimized coverage at {g} dB {frac!r} != recomputed {want!r}")
    return problems


def _check_sweep_power(doc, argv, out: Path, ref: Reference) -> list[str]:
    from pinchplan import linear_to_db, worst_grid_snr

    obj = doc["objective"]
    powers = obj.get("powers_dbm")
    if not isinstance(powers, list) or not powers:
        return [f"powers_dbm {powers!r} is not a non-empty list"]
    sel, problems = _activation(doc, ref)
    if sel is None:
        return problems
    values = obj.get("optimized_db")
    if not isinstance(values, list) or len(values) != len(powers):
        return [f"optimized_db {values!r} does not match {len(powers)} powers"]
    for p, val in zip(powers, values):
        params = ref.scenario.with_power_dbm(p).params
        want = linear_to_db(worst_grid_snr(sel, ref.gain_map, params))
        if not _close(val, want):
            problems.append(f"optimized_db at {p} dBm {val!r} != recomputed {want!r}")
    if ref.scenario.channel.tx_power_dbm in powers:
        i = powers.index(ref.scenario.channel.tx_power_dbm)
        if values[i] > linear_to_db(ref.upper_bound) + 1e-9:
            problems.append(f"optimized_db {values[i]!r} above the max-min upper bound")
    return problems


CHECKS = {
    "gainmap": _check_gainmap,
    "coverage": _check_coverage,
    "minmax": _check_minmax,
    "baseline": _check_baseline,
    "map": _check_map,
    "sweep-threshold": _check_sweep_threshold,
    "sweep-power": _check_sweep_power,
}


def check_job(argv, out: Path, ref: Reference) -> tuple[dict | None, list[str]]:
    """Parse and check the summary of one job; returns (summary, problems)."""
    command = argv[0]
    doc, problems = read_summary(command, out)
    if doc is None:
        return None, problems
    if doc["digest"] != ref.digest:
        problems.append(f"digest {doc['digest']!r} != scenario digest {ref.digest!r}")
    try:
        problems += CHECKS[command](doc, argv, out, ref)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        problems.append(f"check could not read the output: {exc!r}")
    return doc, problems


def check_ordering(summaries: dict[str, dict]) -> list[tuple[str, str]]:
    """heuristic <= exact, where a pass has both; (exact job kind, problem) pairs.

    exact <= maxmin_upper_bound is part of each max-min job's own check.
    """
    problems = []
    heur, exact = summaries.get("coverage"), summaries.get("coverage_exact")
    if heur and exact:
        h, e = heur["objective"]["covered_count"], exact["objective"]["covered_count"]
        if exact["objective"]["threshold_db"] == heur["objective"]["threshold_db"] and h > e:
            problems.append(("coverage_exact", f"heuristic coverage {h} above exact optimum {e}"))
    heur, exact = summaries.get("minmax"), summaries.get("minmax_exact")
    if heur and exact:
        h, e = heur["objective"]["worst_grid_linear"], exact["objective"]["worst_grid_linear"]
        if h > e * (1 + REL_TOL):
            problems.append(("minmax_exact", f"bisection worst grid {h!r} above exact optimum {e!r}"))
    return problems
