"""Figure-style sweeps over the three planning methods, plus run summaries.

Methods: "optimized" (re-solved per operating point), "random" (uniform
activations averaged over seeded draws, mean and sample std reported) and
"fixed" (the centered half-wavelength array). All sweep outputs are pure
functions of (scenario, seed), so reruns are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import _candidate_matrix, avg_snr, db_to_linear, linear_to_db
from .coverage import _WALK_CELLS, ENUM_BUDGET, TENSOR_BYTES_BUDGET, Activation, BudgetError, _covered, _exact_coverages, _field, coordinate_ascent
from .minmax import MinMaxResult, bisection_maxmin, exact_maxmin
from .scenario import Scenario, random_activation

N_RANDOM_DRAWS = 20


def derived_seeds(base_seed: int, count: int) -> list[int]:
    """Deterministic child seeds for repeated baseline draws."""
    return [int(s) for s in np.random.SeedSequence(base_seed).generate_state(count)]


@dataclass
class RunSummary:
    """What a CLI run did: inputs digest, method, headline numbers, activation.

    `wall_time_s` is kept in memory and reported on the console but excluded
    from the serialized file so identical runs write identical bytes.
    """

    digest: str
    method: str
    objective: dict
    activation: list[int] | None
    seed: int | None
    tool_version: str = __version__
    wall_time_s: float | None = None

    def to_json(self) -> str:
        doc = {
            "activation": self.activation,
            "digest": self.digest,
            "method": self.method,
            "objective": self.objective,
            "seed": self.seed,
            "tool_version": self.tool_version,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass
class SweepTable:
    """Column-oriented sweep results; `columns` maps name -> list of values."""

    axis: str
    columns: dict[str, list] = field(default_factory=dict)

    def write_csv(self, path) -> None:
        names = [self.axis] + [k for k in self.columns if k != self.axis]
        cols = [self.columns[k] for k in names]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(names) + "\n")
            for row in zip(*cols):
                fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def threshold_sweep(
    scenario: Scenario,
    thresholds_db,
    exact: bool = False,
    n_random: int = N_RANDOM_DRAWS,
) -> SweepTable:
    """Coverage fraction of each method at each threshold (dB, ascending).

    The optimized activation is re-solved at every threshold, every solve
    reading the map's candidate matrix through its gate (`GainMap._matrix`),
    which refuses a map without valid cells; random draws are shared across
    thresholds (the activations do not depend on the threshold), as is the
    fixed-array field. Refuses with BudgetError, before the gain map is
    built or any ascent runs, when the per-threshold bytes would exceed
    TENSOR_BYTES_BUDGET: 8 per grid cell, a cap on the grid-sized scoring
    each threshold runs (its plan's field, every random draw's compare), and
    for the exhaustive walk an int64 count per activation and a bool hit per
    tap and cell of a walk block.
    """
    thresholds_db = [float(t) for t in thresholds_db]
    if not thresholds_db:
        raise ValueError("threshold list must not be empty")
    if any(b <= a for a, b in zip(thresholds_db, thresholds_db[1:])):
        raise ValueError("threshold list must be strictly ascending")
    nx, ny = scenario.grid.nx, scenario.grid.ny
    n_tap, n_wg = scenario.taps.count, scenario.layout.count
    per_threshold = 8 * nx * ny
    if exact:  # the walk refuses more than ENUM_BUDGET activations itself
        per_threshold += 8 * min(n_tap**n_wg, ENUM_BUDGET) + n_tap * min(nx * ny, _WALK_CELLS)
    size = len(thresholds_db) * per_threshold
    if size > TENSOR_BYTES_BUDGET:
        walk = f" and {n_tap}^{n_wg} activations" if exact else ""
        raise BudgetError(
            f"{len(thresholds_db)} thresholds on a {nx}x{ny} grid{walk} keep {size} bytes "
            f"of per-threshold arrays, over the {TENSOR_BYTES_BUDGET}-byte budget"
        )
    draws = _draws(scenario, n_random)

    params = scenario.params
    gm = scenario.gain_map()

    table = SweepTable(axis="threshold_db", columns={"threshold_db": thresholds_db})
    thresholds = [db_to_linear(thr_db) for thr_db in thresholds_db]
    if exact:
        results = _exact_coverages(gm, params, thresholds)
    else:
        start = Activation.centered(gm.n_waveguides, gm.n_taps)
        results = [
            coordinate_ascent(start, gm, params, thr, max_sweeps=scenario.solver.max_sweeps)
            for thr in thresholds
        ]
    table.columns["optimized"] = [res.coverage_fraction for res in results]
    table.columns["optimized_activation"] = [
        "|".join(str(i) for i in res.activation.one_based()) for res in results
    ]

    fields = _draw_fields(scenario, gm, draws)
    stats = [_mean_std([_covered_share(f, thr) for f in fields]) for thr in thresholds]
    table.columns["random_mean"], table.columns["random_std"] = map(list, zip(*stats))

    fixed_v = _fixed_field(scenario)[gm.valid]
    table.columns["fixed"] = [_covered_share(fixed_v, thr) for thr in thresholds]
    return table


def _draws(scenario: Scenario, n_random: int) -> list[Activation]:
    """The seeded random activations that every random-method column averages over.

    Refuses with BudgetError, before any seed is drawn, when n_random grid-sized
    float64 fields (what `_draw_fields` may keep) would exceed TENSOR_BYTES_BUDGET.
    """
    if n_random < 1:
        raise ValueError(f"the number of random draws must be at least 1, got {n_random}")
    nx, ny = scenario.grid.nx, scenario.grid.ny
    if n_random * nx * ny * 8 > TENSOR_BYTES_BUDGET:
        raise BudgetError(
            f"{n_random} random draws on a {nx}x{ny} grid exceed the "
            f"{TENSOR_BYTES_BUDGET}-byte budget for their float64 fields"
        )
    return [random_activation(scenario, s) for s in derived_seeds(scenario.solver.seed, n_random)]


def _draw_fields(scenario: Scenario, gm, draws: list[Activation]) -> list[np.ndarray]:
    """Valid-cell SNR field of each random activation, at scenario defaults.

    Summed from the candidate matrix in waveguide order (`coverage._field`),
    so bit-equal to the valid cells of its `avg_snr` field.
    """
    gains_v = _candidate_matrix(gm, scenario.params)
    return [_field(gains_v, a.selected, np.empty(gains_v.shape[2])) for a in draws]


def _mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0.0 for a single draw) of per-draw values."""
    a = np.array(values)
    return float(a.mean()), float(a.std(ddof=1)) if a.size > 1 else 0.0


def _covered_share(field_v: np.ndarray, threshold: float) -> float:
    """Share of a valid-cell field's cells that it covers, as `coverage_count` counts."""
    return int(np.count_nonzero(_covered(field_v, threshold))) / len(field_v)


def _fixed_field(scenario: Scenario) -> np.ndarray:
    """SNR field of the fixed array at scenario defaults.

    Its map's valid mask is the tap map's: both are the blockage footprints.
    """
    return avg_snr(np.zeros(scenario.layout.count, dtype=int), scenario.fixed_array_map(), scenario.params)


def _worst_dbs(selected, gm, per_power_params) -> list[float]:
    """Worst valid-cell SNR (dB) of one activation at each of the params, bit-equal to `worst_grid_snr`.

    The activation's unscaled valid-cell rows are computed once. Each power
    then scales them and adds them in waveguide order, as `avg_snr` does,
    so one valid-cell field is held at a time, whatever the power count.
    """
    rows = gm._tap_gains(np.arange(len(selected)), list(selected))
    rows = np.compress(gm.valid.ravel(), rows.reshape(len(rows), -1), axis=1)
    worst = []
    for p in per_power_params:
        field = rows[0] * p.snr_scale
        for row in rows[1:]:
            field += row * p.snr_scale
        worst.append(linear_to_db(float(field.min())))
    return worst


def power_sweep(
    scenario: Scenario,
    powers_dbm,
    n_random: int = N_RANDOM_DRAWS,
    exact: bool = False,
) -> tuple[SweepTable, MinMaxResult]:
    """Worst-grid SNR (dB) of each method versus transmit power.

    The optimized activation is solved once at the scenario's own power and
    reused: a power change scales every average SNR by the same factor, so
    the argmax never moves. Worst-grid dB values are recomputed per power,
    each activation's gain rows once for every power (`_worst_dbs`).
    """
    powers_dbm = [float(p) for p in powers_dbm]
    if not powers_dbm:
        raise ValueError("power list must not be empty")
    draws = _draws(scenario, n_random)

    # an overflowing power is refused before the gain map is built
    per_power_params = [scenario.with_power_dbm(p).params for p in powers_dbm]
    gm = scenario.gain_map()
    params0 = scenario.params
    table = SweepTable(axis="tx_power_dbm", columns={"tx_power_dbm": powers_dbm})

    if exact:
        minmax_res = exact_maxmin(gm, params0)
    else:
        minmax_res = bisection_maxmin(
            gm,
            params0,
            eps_t=scenario.solver.eps_t,
            max_sweeps=scenario.solver.max_sweeps,
            seed=scenario.solver.seed,
        )
    table.columns["optimized_db"] = _worst_dbs(minmax_res.activation.selected, gm, per_power_params)
    table.columns["optimized_activation"] = [
        "|".join(str(i) for i in minmax_res.activation.one_based())
    ] * len(powers_dbm)

    per_draw = [_worst_dbs(a.selected, gm, per_power_params) for a in draws]
    stats = [_mean_std(dbs) for dbs in zip(*per_draw)]
    table.columns["random_mean_db"], table.columns["random_std_db"] = map(list, zip(*stats))

    # element gains carry no transmit power, so one map serves every P
    fgm = scenario.fixed_array_map()
    table.columns["fixed_db"] = _worst_dbs([0] * scenario.layout.count, fgm, per_power_params)
    return table, minmax_res


def _baseline(scenario: Scenario, n_random: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """Fixed-array and random-activation reference numbers, and the fixed array's SNR field and valid mask."""
    draws = _draws(scenario, n_random)
    gm = scenario.gain_map()
    thr = scenario.threshold_linear

    fixed_field = _fixed_field(scenario)
    fixed_v = fixed_field[gm.valid]
    fields = _draw_fields(scenario, gm, draws)  # the map's gate, before a share of no cells is taken
    cov_mean, cov_std = _mean_std([_covered_share(f, thr) for f in fields])
    worst_mean, worst_std = _mean_std([linear_to_db(float(f.min())) for f in fields])
    stats = {
        "threshold_db": scenario.solver.threshold_db,
        "fixed_coverage": _covered_share(fixed_v, thr),
        "fixed_worst_db": linear_to_db(float(fixed_v.min())),
        "random_coverage_mean": cov_mean,
        "random_coverage_std": cov_std,
        "random_worst_db_mean": worst_mean,
        "random_worst_db_std": worst_std,
        "n_random": n_random,
    }
    return stats, fixed_field, gm.valid
