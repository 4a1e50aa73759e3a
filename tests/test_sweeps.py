import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pinchplan import (
    Activation,
    RunSummary,
    SweepTable,
    avg_snr,
    db_to_linear,
    derived_seeds,
    linear_to_db,
    load_bundled,
    power_sweep,
    scenario_from_dict,
    threshold_sweep,
    worst_grid_snr,
)
from pinchplan import BudgetError, coverage, sweeps
from pinchplan.mapio import export_map
from pinchplan.scenario import Scenario
from pinchplan.sweeps import _baseline
from conftest import brute_best_coverage, envelope_quantile, random_scenario, read_map_csv

THRESHOLDS = [12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0]


def small_table1(scale=0.1):
    return load_bundled().with_grid_scale(scale)


def test_derived_seeds_deterministic():
    a = derived_seeds(7, 20)
    assert a == derived_seeds(7, 20)
    assert len(a) == 20 and len(set(a)) == 20
    assert all(isinstance(s, int) and s >= 0 for s in a)
    assert derived_seeds(8, 20) != a


def test_run_summary_json_shape():
    s = RunSummary(
        digest="d" * 64,
        method="coverage/exact",
        objective={"covered": 10},
        activation=[1, 2],
        seed=3,
        wall_time_s=1.23,
    )
    doc = json.loads(s.to_json())
    assert "wall_time_s" not in doc
    assert doc["method"] == "coverage/exact"
    assert doc["activation"] == [1, 2]
    assert doc["tool_version"] == s.tool_version
    text = s.to_json()
    assert text.endswith("\n")
    keys = list(doc)
    assert keys == sorted(keys)


def test_sweep_table_csv_format(tmp_path):
    t = SweepTable(axis="threshold_db")
    t.columns["threshold_db"] = [12.0, 15.0]
    t.columns["optimized"] = [0.5, 1.0 / 3.0]
    t.columns["label"] = ["a|b", "c|d"]
    path = tmp_path / "t.csv"
    t.write_csv(path)
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "threshold_db,optimized,label"
    assert lines[1] == "12,0.5,a|b"
    assert lines[2].startswith("15,0.333333333333")


def test_threshold_sweep_orderings():
    scn = small_table1()
    tab = threshold_sweep(scn, THRESHOLDS, exact=True)
    assert tab.columns["threshold_db"] == THRESHOLDS
    for name in ("optimized", "random_mean", "fixed"):
        col = tab.columns[name]
        assert all(0.0 <= f <= 1.0 for f in col)
        assert all(b <= a + 1e-12 for a, b in zip(col, col[1:])), name
    for opt, rnd in zip(tab.columns["optimized"], tab.columns["random_mean"]):
        assert opt >= rnd - 1e-12
    assert all(s >= 0.0 for s in tab.columns["random_std"])
    n_taps = scn.taps.count
    for cell in tab.columns["optimized_activation"]:
        indices = [int(t) for t in cell.split("|")]
        assert len(indices) == scn.layout.count
        assert all(1 <= i <= n_taps for i in indices)

    again = threshold_sweep(scn, THRESHOLDS, exact=True)
    assert again.columns == tab.columns


def test_threshold_sweep_validation():
    scn = small_table1()
    with pytest.raises(ValueError, match="ascending"):
        threshold_sweep(scn, [18.0, 18.0])
    with pytest.raises(ValueError, match="empty"):
        threshold_sweep(scn, [])


def test_power_sweep_exact_db_shifts():
    scn = small_table1()
    tab, res = power_sweep(scn, [30.0, 35.0, 40.0, 45.0])
    assert res is not None and not res.exact
    assert len(set(tab.columns["optimized_activation"])) == 1
    for col in ("optimized_db", "random_mean_db", "fixed_db"):
        vals = tab.columns[col]
        for i, v in enumerate(vals[1:], start=1):
            assert v - vals[0] == pytest.approx(5.0 * i, abs=1e-9), col
    assert all(s >= 0.0 for s in tab.columns["random_std_db"])


def test_power_sweep_ordering_and_exact_mode():
    scn = small_table1()
    tab, res = power_sweep(scn, [30.0, 40.0], exact=True)
    assert res.exact
    for opt, rnd, fix in zip(
        tab.columns["optimized_db"], tab.columns["random_mean_db"], tab.columns["fixed_db"]
    ):
        assert opt > rnd > fix


def test_power_sweep_holds_one_field_at_a_time():
    # 2,000 powers on a quarter grid: one power's valid-cell field (24 KB) at
    # a time, not one (powers, cells) array of them (48 MB, and a temporary)
    scn = small_table1(0.25)
    gm = scn.gain_map()
    per_power = [scn.with_power_dbm(p).params for p in np.linspace(0.0, 40.0, 2000)]
    sel = Activation.centered(gm.n_waveguides, gm.n_taps).selected
    tracemalloc.start()
    try:
        worst = sweeps._worst_dbs(sel, gm, per_power)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    for i in (0, 1000, 1999):  # bit-equal to the public evaluator
        assert worst[i] == linear_to_db(worst_grid_snr(sel, gm, per_power[i]))


def test_power_sweep_validation():
    with pytest.raises(ValueError, match="empty"):
        power_sweep(small_table1(), [])


def test_draws_refused_past_the_tensor_budget(monkeypatch):
    # the draws' fields are each at most one float64 grid; the refusal comes
    # before any seed is drawn
    scn = small_table1(0.05)
    monkeypatch.setattr(coverage, "TENSOR_BYTES_BUDGET", 3 * scn.grid.nx * scn.grid.ny * 8)
    assert len(threshold_sweep(scn, [18.0], n_random=3).columns["random_mean"]) == 1
    monkeypatch.setattr(sweeps, "derived_seeds", None)  # drawing seeds would fail
    for call in (
        lambda: threshold_sweep(scn, [18.0], n_random=4),
        lambda: power_sweep(scn, [40.0], n_random=4),
        lambda: _baseline(scn, 4),
    ):
        with pytest.raises(BudgetError, match="4 random draws on a 20x6 grid: over the budget of 2880 kept bytes"):
            call()
    monkeypatch.setattr(coverage, "TENSOR_BYTES_BUDGET", 3 * scn.grid.nx * scn.grid.ny * 8 - 1)
    with pytest.raises(BudgetError, match="3 random draws on a 20x6 grid: over the budget of 2879 kept bytes"):
        _baseline(scn, 3)


def test_threshold_sweep_refused_past_the_operation_budget(monkeypatch):
    # a heuristic sweep scores each of 4x10 taps and 3 draws on the 20x6 grid at each of 2
    # thresholds, and the exhaustive one each of 10^4 activations on the grid at both; the
    # cells of a step count as at least _WALK_CELLS. The refusal comes before the gain map
    scn = small_table1(0.05)
    heuristic, exact = 2 * (4 * 10 + 3) * coverage._WALK_CELLS, 10**4 * coverage._WALK_CELLS
    for budget, flag in ((heuristic, False), (exact, True)):
        monkeypatch.setattr(coverage, "OPS_BUDGET", budget)
        assert len(threshold_sweep(scn, [18.0, 24.0], exact=flag, n_random=3).columns["optimized"]) == 2
    monkeypatch.setattr(Scenario, "gain_map", None)  # building the gain map would fail
    monkeypatch.setattr(coverage, "OPS_BUDGET", heuristic - 1)
    want = f"ascents of 4x10 taps and 3 random draws at 2 thresholds on a 20x6 grid: over the budget of {heuristic - 1} cell"
    with pytest.raises(BudgetError, match=want):
        threshold_sweep(scn, [18.0, 24.0], n_random=3)
    monkeypatch.setattr(coverage, "OPS_BUDGET", exact - 1)
    with pytest.raises(BudgetError, match=rf"needs 10\^4 activations at 2 thresholds on a 20x6 grid: over the budget of {exact - 1} "):
        threshold_sweep(scn, [18.0, 24.0], exact=True, n_random=3)


def test_more_waveguides_lift_worst_grid():
    # doubling waveguide count and tap density helps the movable architectures
    # most; the centered fixed array mainly gains aggregated power
    base = small_table1(0.25)
    doc = base.to_dict()
    doc["waveguides"] = 8
    doc["taps"] = {"count": 20}
    big = scenario_from_dict(doc)
    t44, _ = power_sweep(base, [40.0])
    t82, _ = power_sweep(big, [40.0])
    up = {
        col: t82.columns[col][0] - t44.columns[col][0]
        for col in ("optimized_db", "random_mean_db", "fixed_db")
    }
    assert up["optimized_db"] >= 4.0
    assert up["random_mean_db"] >= 2.5
    assert up["optimized_db"] > up["fixed_db"] + 1.0


def test_exported_map_distributed_beats_aligned(tmp_path):
    # spreading the active taps across the region raises the worst exported
    # dB value over clustering them at matching positions
    scn = small_table1(0.25)
    gm = scn.gain_map()
    worst = {}
    for name, idx in (("spread", [2, 6, 9, 4]), ("aligned", [5, 5, 5, 5])):
        field = avg_snr(Activation.from_one_based(idx).as_array(), gm, scn.params)
        path = tmp_path / f"{name}.csv"
        export_map(field, gm.valid, scn.grid, path)
        _, _, db, valid = read_map_csv(path)
        worst[name] = db[valid].min()
    assert worst["spread"] > worst["aligned"]


def test_exported_db_matches_linear():
    scn = small_table1()
    gm = scn.gain_map()
    sel = Activation.centered(gm.n_waveguides, gm.n_taps).as_array()
    field = avg_snr(sel, gm, scn.params)
    db = 10.0 * np.log10(field[gm.valid])
    assert np.allclose(db, [linear_to_db(v) for v in field[gm.valid]], atol=1e-9)


def test_baseline_stats_contents():
    scn = small_table1()
    stats = _baseline(scn, n_random=10)[0]
    assert stats["n_random"] == 10
    assert stats["threshold_db"] == scn.solver.threshold_db
    assert 0.0 <= stats["fixed_coverage"] <= 1.0
    assert 0.0 <= stats["random_coverage_mean"] <= 1.0
    assert stats["random_coverage_std"] >= 0.0
    assert stats["random_worst_db_std"] >= 0.0
    assert np.isfinite(stats["fixed_worst_db"])
    assert stats == _baseline(scn, n_random=10)[0]
    reseeded = replace(scn, solver=replace(scn.solver, seed=99))
    assert stats != _baseline(reseeded, n_random=10)[0]


@pytest.mark.parametrize("n_random", [0, -1])
def test_random_draws_below_one_are_refused(n_random):
    scn = small_table1()
    with pytest.raises(ValueError, match="draws"):
        _baseline(scn, n_random=n_random)[0]
    with pytest.raises(ValueError, match="draws"):
        threshold_sweep(scn, [18.0], n_random=n_random)
    with pytest.raises(ValueError, match="draws"):
        power_sweep(scn, [40.0], n_random=n_random)


def test_exact_threshold_sweep_walks_the_activations_once(monkeypatch):
    walks = []
    coverage_counts = coverage._coverage_counts

    def counting(*args):
        walks.append(args)
        return coverage_counts(*args)

    monkeypatch.setattr(coverage, "_coverage_counts", counting)
    rng = np.random.default_rng(80)
    for _ in range(4):
        scn = random_scenario(rng, waveguides=3, taps=3, k_max=2)
        gm, p = scn.gain_map(), scn.params
        quantiles = rng.uniform(0.1, 0.95, 4)
        thresholds_db = sorted({linear_to_db(envelope_quantile(gm, p, q)) for q in quantiles})
        walks.clear()
        tab = threshold_sweep(scn, thresholds_db, exact=True)
        assert len(walks) == 1 and walks[0][1] == [
            db_to_linear(thr_db) * (1.0 - coverage.COVERAGE_SLACK) for thr_db in thresholds_db
        ]
        n_valid = int(np.count_nonzero(gm.valid))
        for thr_db, frac, cell in zip(
            thresholds_db, tab.columns["optimized"], tab.columns["optimized_activation"]
        ):
            count, act = brute_best_coverage(gm, p, db_to_linear(thr_db))
            assert frac == count / n_valid
            assert cell == "|".join(str(m) for m in act.one_based())
