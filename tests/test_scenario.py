import importlib
import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from pinchplan import (
    BudgetError,
    channel,
    ScenarioError,
    bundled_scenario_names,
    exact_enumerate,
    load_bundled,
    load_scenario,
    random_activation,
    scenario_from_dict,
)
from pinchplan import coverage
from pinchplan.cli import main
from pinchplan.geometry import CandidateGrid, WaveguideLayout
from pinchplan.scenario import Scenario, SolverDefaults, _section
from pinchplan.sweeps import power_sweep
from conftest import WALL, random_scenario, scenario_dict


def test_bundled_table1_values():
    scn = load_bundled()
    assert (scn.region.x_len, scn.region.y_len, scn.region.height) == (200.0, 60.0, 10.0)
    assert scn.layout.count == 4
    assert list(scn.layout.y_positions()) == [-30.0, -10.0, 10.0, 30.0]
    assert scn.taps.count == 10
    assert list(scn.taps.x_taps[0]) == [10.0 + 20.0 * m for m in range(10)]
    assert len(scn.blockages) == 6
    assert {(b.x_min, b.x_max) for b in scn.blockages} == {(10.0, 18.0), (36.0, 44.0), (62.0, 70.0)}
    assert {(b.y_min, b.y_max) for b in scn.blockages} == {(-30.0, -10.0), (5.0, 20.0)}
    assert all(b.height == 6.0 for b in scn.blockages)
    assert (scn.grid.nx, scn.grid.ny) == (400, 120)
    ch = scn.channel
    assert (ch.freq_hz, ch.tx_power_dbm, ch.noise_dbm, ch.nlos_db) == (28.0e9, 40.0, -70.0, -60.0)
    sv = scn.solver
    assert (sv.threshold_db, sv.eps_t, sv.max_sweeps, sv.seed) == (24.0, 1.0e-3, 50, 1)


def test_bundled_names_and_missing():
    assert "table1" in bundled_scenario_names()
    with pytest.raises(ScenarioError, match="available"):
        load_bundled("nope")


def test_blockages_default_empty():
    scn = scenario_from_dict(scenario_dict())
    assert scn.blockages == ()


def test_blockage_constraints():
    blk = {"x_min": 5.0, "x_max": 9.0, "y_min": -5.0, "y_max": 5.0, "height": 10.0}
    with pytest.raises(ScenarioError, match="strictly below"):
        scenario_from_dict(scenario_dict(blockages=[blk]))  # as tall as the waveguides
    blk = dict(blk, height=4.0, y_max=40.0)
    with pytest.raises(ScenarioError, match="y extent"):
        scenario_from_dict(scenario_dict(blockages=[blk]))


def test_unknown_and_missing_keys():
    cfg = scenario_dict()
    cfg["typo"] = 1
    with pytest.raises(ScenarioError, match="unknown key.*typo"):
        scenario_from_dict(cfg)
    cfg = scenario_dict()
    cfg["region"]["depth"] = 3.0
    with pytest.raises(ScenarioError, match="region"):
        scenario_from_dict(cfg)
    cfg = scenario_dict()
    del cfg["grid"]
    with pytest.raises(ScenarioError, match="missing key.*grid"):
        scenario_from_dict(cfg)
    cfg = scenario_dict()
    cfg["solver"]["restarts"] = 4
    with pytest.raises(ScenarioError, match="solver"):
        scenario_from_dict(cfg)


def test_version_check():
    cfg = scenario_dict()
    cfg["version"] = 2
    with pytest.raises(ScenarioError, match="version"):
        scenario_from_dict(cfg)


def test_type_checks():
    cfg = scenario_dict()
    cfg["waveguides"] = 2.5
    with pytest.raises(ScenarioError, match="integer"):
        scenario_from_dict(cfg)
    cfg = scenario_dict()
    cfg["region"]["x_len"] = "80"
    with pytest.raises(ScenarioError, match="number"):
        scenario_from_dict(cfg)
    cfg = scenario_dict()
    cfg["grid"]["nx"] = True  # bools are ints in Python; still rejected
    with pytest.raises(ScenarioError, match="integer"):
        scenario_from_dict(cfg)


def test_waveguide_minimum():
    with pytest.raises(ScenarioError, match="at least 2"):
        scenario_from_dict(scenario_dict(waveguides=1))


def test_tap_forms():
    cfg = scenario_dict(taps=3)
    scn = scenario_from_dict(cfg)
    assert scn.taps.count == 3

    cfg["taps"] = {"x": [[10.0, 20.0], [15.0, 25.0]]}
    scn = scenario_from_dict(cfg)
    assert scn.taps.x_taps.tolist() == [[10.0, 20.0], [15.0, 25.0]]

    cfg["taps"] = {"x": [[10.0, 20.0]]}  # one row for two waveguides
    with pytest.raises(ScenarioError, match="each of the 2"):
        scenario_from_dict(cfg)
    cfg["taps"] = {"x": [[10.0, 20.0], [15.0, 999.0]]}
    with pytest.raises(ScenarioError, match="within"):
        scenario_from_dict(cfg)
    cfg["taps"] = {"count": 2, "x": [[10.0], [15.0]]}
    with pytest.raises(ScenarioError, match="exactly one"):
        scenario_from_dict(cfg)
    cfg["taps"] = {"count": 0}
    with pytest.raises(ScenarioError, match="at least 1"):
        scenario_from_dict(cfg)


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,,\n}\n', encoding="utf-8")
    with pytest.raises(ScenarioError, match=r"line 2 column \d+"):
        load_scenario(path)
    with pytest.raises(OSError):
        load_scenario(tmp_path / "absent.json")


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(70)
    for i in range(5):
        scn = random_scenario(rng, k_max=2)
        path = tmp_path / f"scn_{i}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scn.to_dict(), fh)
        back = load_scenario(path)
        assert back.to_dict() == scn.to_dict()
        assert back.digest() == scn.digest()


def test_digest_ignores_key_order():
    cfg = scenario_dict()
    scrambled = json.loads(json.dumps(cfg))
    scrambled["channel"] = dict(reversed(list(scrambled["channel"].items())))
    scrambled = dict(reversed(list(scrambled.items())))
    assert scenario_from_dict(scrambled).digest() == scenario_from_dict(cfg).digest()
    changed = scenario_dict(tx_power_dbm=41.0)
    assert scenario_from_dict(changed).digest() != scenario_from_dict(cfg).digest()


def test_with_grid_scale():
    scn = load_bundled()
    small = scn.with_grid_scale(0.25)
    assert (small.grid.nx, small.grid.ny) == (100, 30)
    assert small.grid.cell_x == pytest.approx(4 * scn.grid.cell_x)
    assert small.digest() != scn.digest()
    tiny = scn.with_grid_scale(1e-6)
    assert (tiny.grid.nx, tiny.grid.ny) == (1, 1)
    with pytest.raises(ScenarioError):
        scn.with_grid_scale(0.0)


def test_power_and_nlos_rewrites():
    scn = load_bundled()
    assert scn.with_power_dbm(35.0).channel.tx_power_dbm == 35.0
    assert replace(scn, channel=replace(scn.channel, nlos_db=-50.0)).channel.nlos_db == -50.0
    assert scn.with_power_dbm(35.0).region == scn.region


def test_random_activation_properties():
    scn = scenario_from_dict(scenario_dict(waveguides=4, taps=1))
    assert random_activation(scn, 3).selected == (0, 0, 0, 0)

    scn = scenario_from_dict(scenario_dict(waveguides=4, taps=10))
    assert random_activation(scn, 9).selected == random_activation(scn, 9).selected

    counts = np.zeros(10)
    for s in range(10_000):
        for m in random_activation(scn, s).selected:
            counts[m] += 1
    freq = counts / counts.sum()
    assert freq.min() > 0.08 and freq.max() < 0.12


def test_omitted_solver_section_takes_the_defaults():
    cfg = scenario_dict()
    del cfg["solver"]
    scn = scenario_from_dict(cfg)
    assert scn.solver.threshold_db == 18.0
    assert scn.solver.seed == 0


def test_n_clusters_is_validated_and_ignored():
    plain = scenario_from_dict(scenario_dict())
    for n_clusters in (1, 4, 9):
        cfg = scenario_dict()
        cfg["channel"]["n_clusters"] = n_clusters
        scn = scenario_from_dict(cfg)
        assert scn.to_dict() == plain.to_dict() and scn.params == plain.params
    for bad in (0, -2, 2.0, "4", True):
        cfg = scenario_dict()
        cfg["channel"]["n_clusters"] = bad
        with pytest.raises(ScenarioError, match="n_clusters"):
            scenario_from_dict(cfg)


def test_n_eff_is_validated_and_ignored():
    # the guide's refractive index of older files: the average SNR has no phase term
    plain = scenario_from_dict(scenario_dict())
    for n_eff in (1, 1.4, 2.0):
        cfg = scenario_dict()
        cfg["channel"]["n_eff"] = n_eff
        scn = scenario_from_dict(cfg)
        assert scn.to_dict() == plain.to_dict() and scn.digest() == plain.digest()
    for bad, message in ((0.5, "at least 1"), ("x", "a number"), (True, "a number"), (math.inf, "a finite number")):
        cfg = scenario_dict()
        cfg["channel"]["n_eff"] = bad
        with pytest.raises(ScenarioError, match=rf"^channel\.n_eff must be {message}$"):
            scenario_from_dict(cfg)


def test_power_rewrite_refuses_an_overflowing_snr():
    scn = scenario_from_dict(scenario_dict(noise_dbm=-100.0))
    with pytest.raises(ScenarioError, match="overflows"):
        scn.with_power_dbm(3060.0)  # the transmit-to-noise ratio overflows
    assert scn.with_power_dbm(60.0).params.snr_scale == pytest.approx(1e16)
    # the ratio is finite, the peak average SNR is not: refused where a gain map is built
    quiet = scenario_from_dict(scenario_dict(noise_dbm=-100.0, tx_power_dbm=-200.0, nlos_db=3000.0))
    loud = quiet.with_power_dbm(30.0)
    with pytest.raises(ValueError, match="peak gain or average SNR.* overflows"):
        loud.gain_map()
    with pytest.raises(ValueError, match="peak gain or average SNR.* overflows"):
        power_sweep(quiet, [-200.0, 30.0], n_random=1)
    with pytest.raises(ValueError, match="peak gain or average SNR.* overflows"):
        scenario_from_dict(scenario_dict(noise_dbm=-100.0, nlos_db=3000.0)).gain_map()


def test_deriving_a_scenario_checks_no_distances(monkeypatch):
    # the distance rule runs where a gain map is built, not on each load or rewrite
    original, calls = channel._max_sq_distance, []
    monkeypatch.setattr(channel, "_max_sq_distance", lambda *args: calls.append(args) or original(*args))
    scn = load_bundled("table1")
    for power in (30.0, 35.0, 40.0, 45.0):
        scn.with_power_dbm(power)
    scn = scn.with_grid_scale(0.05)
    replace(scn, solver=replace(scn.solver, seed=7))
    assert calls == []
    scn.gain_map()
    assert len(calls) == 1


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10**400])
def test_non_finite_numbers_rejected(value):
    for section, key in (("channel", "tx_power_dbm"), ("channel", "freq_hz"), ("region", "x_len")):
        cfg = scenario_dict()
        cfg[section][key] = value
        with pytest.raises(ScenarioError, match=f"{section}.{key} must be a finite number"):
            scenario_from_dict(cfg)
    cfg = scenario_dict()
    cfg["solver"]["eps_t"] = value
    with pytest.raises(ScenarioError, match="finite"):
        scenario_from_dict(cfg)


@pytest.mark.parametrize("section", ["region", "grid", "channel", "solver"])
@pytest.mark.parametrize("value", [5, "x", [1, 2], None])
def test_sections_must_be_objects(section, value):
    cfg = scenario_dict()
    cfg[section] = value
    with pytest.raises(ScenarioError, match=f"{section} must be"):
        scenario_from_dict(cfg)


def test_blockage_entries_must_be_objects():
    cfg = scenario_dict(blockages=[7])
    with pytest.raises(ScenarioError, match=r"blockages\[0\] must be a JSON object"):
        scenario_from_dict(cfg)


class _Admitted(Exception):
    """Raised where a job's first work would begin: every budget check before it passed."""


class _ShapeMap:
    """A scenario's gain map with its shape alone; reading anything else raises _Admitted."""

    def __init__(self, scn):
        self.n_waveguides, self.n_taps = scn.layout.count, scn.taps.count
        self.valid = np.ones((scn.grid.nx, scn.grid.ny), dtype=bool)

    def __getattr__(self, name):
        raise _Admitted(name)


def _admitted(*args, **kwargs):
    raise _Admitted


def _plan(tmp_path, argv):
    """A CLI job's budget verdict from shapes alone: "admitted" at its first work, else its exit code."""
    try:
        return main([*argv, "--out", str(tmp_path / "out")])
    except _Admitted:
        return "admitted"


# every command of CI's package smoke test that exits 0, on table1 unless a
# config is given (the 8x20-tap "wide" and 6x16-tap stress scenarios), and
# the largest job at the default thresholds: the full-grid exhaustive sweep
CI_JOBS = [
    *(f"{cmd} --grid-scale 0.05" for cmd in (
        "coverage", "sweep-threshold --exact", "sweep-threshold", "sweep-power", "sweep-power --exact",
        "coverage --restarts 4", "minmax --exact", "minmax", "coverage --exact",
        "map --activation 2,6,9,4", "map --activation 2,6,9,4 --format pgm",
    )),
    "minmax --config wide --grid-scale 0.25",
    "coverage --exact",
    "coverage --milp model.lp --grid-scale 0.25",
    "coverage --milp model.lp",
    "gainmap --grid-scale 0.25",
    "baseline --grid-scale 0.25",
    "map --activation 4,9,7,3",
    "coverage --milp cover.lp --config stress",
    "gainmap --config stress",
    "sweep-threshold --exact",
]


def test_tensor_budget_admits_the_largest_benchmark_grid(tmp_path, monkeypatch):
    # 6 waveguides x 16 taps on 400 x 120 cells: a 37 MB gain tensor
    scn = scenario_from_dict(scenario_dict(waveguides=6, taps=16, nx=400, ny=120))
    assert scn.grid.nx * scn.grid.ny * 6 * 16 * 8 < coverage.TENSOR_BYTES_BUDGET
    scn.with_grid_scale(2.0)  # 4x the cells still fits
    # every perfbench and CI job passes every budget check, each run only up to its first work
    monkeypatch.setattr(Scenario, "gain_map", lambda scn: _ShapeMap(scn))
    monkeypatch.setattr(Scenario, "fixed_array_map", _admitted)
    monkeypatch.syspath_prepend(Path(__file__).parents[1] / "perfbench")
    workloads = importlib.import_module("workloads")
    configs = {"stress": tmp_path / "stress.json", "wide": tmp_path / "wide.json"}
    configs["stress"].write_text(json.dumps(workloads.stress_scenario_dict(7)), encoding="utf-8")
    wide = load_bundled("table1").to_dict()
    wide.update(waveguides=8, taps={"count": 20})
    configs["wide"].write_text(json.dumps(wide), encoding="utf-8")
    jobs = []
    for workload in workloads.WORKLOADS.values():
        flags = workloads.prepare(workload, 7, tmp_path)
        plan = ",".join(["1"] * (6 if workload.generated else 4))
        jobs += [[plan if a == workloads.PLAN else a for a in job.argv] + flags for job in workload.jobs]
    for line in CI_JOBS:
        argv = line.split()
        if "--config" in argv:
            at = argv.index("--config") + 1
            argv[at] = str(configs[argv[at]])
        else:
            argv += ["--config", "table1"]
        jobs.append(argv)
    assert len(jobs) == 19 + len(CI_JOBS)
    for argv in jobs:
        assert _plan(tmp_path, argv) == "admitted", argv
    # the exhaustive walks past the operation budget: table1 with 31 taps per
    # waveguide (31^4 activations x 48,000 cells) and the stress scenario
    # (16^6 x 48,000), whose exact reference perfbench skips on this refusal
    taps31 = load_bundled("table1").to_dict()
    taps31["taps"] = {"count": 31}
    configs["taps31"] = tmp_path / "taps31.json"
    configs["taps31"].write_text(json.dumps(taps31), encoding="utf-8")
    for name in ("taps31", "stress"):
        assert _plan(tmp_path, ["coverage", "--exact", "--config", str(configs[name])]) == 3
        assert not (tmp_path / "out").exists()
    stress = load_scenario(configs["stress"])
    with pytest.raises(BudgetError, match=r"needs 16\^6 activations on a 400x120 grid"):
        exact_enumerate(stress.gain_map(), stress.params, stress.threshold_linear)


def test_tensor_budget_refuses_grids_over_it(monkeypatch):
    cfg = scenario_dict(waveguides=2, taps=3, nx=6, ny=4)
    monkeypatch.setattr(coverage, "TENSOR_BYTES_BUDGET", 2 * 3 * 6 * 4 * 8)
    scn = scenario_from_dict(cfg)  # exactly at the budget, by a count or by coordinates
    x_cfg = dict(cfg, taps={"x": scn.to_dict()["taps"]["x"]})
    assert scenario_from_dict(x_cfg).digest() == scn.with_grid_scale(1.0).digest() == scn.digest()
    # refused before the tap positions or the layout are allocated
    monkeypatch.setattr(CandidateGrid, "uniform", None)
    monkeypatch.setattr(WaveguideLayout, "uniform", None)
    with pytest.raises(BudgetError, match="a 2x3-tap float64 gain tensor on a 9x6 grid: over the budget of 1152 kept bytes"):
        scn.with_grid_scale(1.5)
    with pytest.raises(BudgetError, match="on a 7x4 grid"):
        scenario_from_dict(dict(cfg, grid={"nx": 7, "ny": 4}))
    monkeypatch.setattr(coverage, "TENSOR_BYTES_BUDGET", 2 * 3 * 6 * 4 * 8 - 1)
    for doc in (cfg, x_cfg):
        with pytest.raises(BudgetError, match="a 2x3-tap float64 gain tensor on a 6x4 grid: over the budget of 1151"):
            scenario_from_dict(doc)
    with pytest.raises(BudgetError, match="on a 6x4 grid"):
        scn.with_grid_scale(1.0)


@pytest.mark.parametrize("section", ["region", "blockages", "channel", "solver"])
def test_section_keys_are_the_dataclass_fields(section):
    cfg = scenario_dict(blockages=[dict(WALL[0])])
    target = cfg["blockages"][0] if section == "blockages" else cfg[section]
    target["extra"] = 1.0
    path = "blockages[0]" if section == "blockages" else section
    with pytest.raises(ScenarioError, match=rf"unknown key\(s\) in {re.escape(path)}: extra"):
        scenario_from_dict(cfg)


def test_section_reads_int_fields_as_integers():
    cfg = scenario_dict()
    cfg["solver"]["max_sweeps"] = 50.0
    with pytest.raises(ScenarioError, match=r"solver\.max_sweeps must be an integer"):
        scenario_from_dict(cfg)
    cfg["solver"]["max_sweeps"] = 50
    cfg["solver"]["threshold_db"] = 18  # a float field takes an integer literal as a float
    solver = scenario_from_dict(cfg).solver
    assert solver.max_sweeps == 50 and type(solver.max_sweeps) is int
    assert solver.threshold_db == 18.0 and type(solver.threshold_db) is float


def test_section_dispatch_on_evaluated_annotations():
    # this module does not postpone annotations, so `n` is annotated with the type int itself
    @dataclass(frozen=True)
    class Pair:
        n: int
        x: float = 0.5

    assert Pair.__dataclass_fields__["n"].type is int
    assert _section({"n": 3}, "pair", Pair) == Pair(3, 0.5)
    with pytest.raises(ScenarioError, match=r"pair\.n must be an integer"):
        _section({"n": 3.0}, "pair", Pair)
    with pytest.raises(ScenarioError, match=r"missing key\(s\) in pair: n"):
        _section({"x": 1.0}, "pair", Pair)


def test_second_blockage_error_names_its_index():
    good = dict(WALL[0])
    bad = dict(WALL[0], x_min=40.0, x_max=35.0)
    with pytest.raises(ScenarioError, match=r"^blockages\[1\]: blockage needs x_min < x_max$"):
        scenario_from_dict(scenario_dict(blockages=[good, bad]))
    with pytest.raises(ScenarioError, match=r"^blockages\[1\]\.height must be a number$"):
        scenario_from_dict(scenario_dict(blockages=[good, dict(good, height="6")]))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"eps_t": 0}, "eps_t must be positive"),
        ({"eps_t": math.nan}, "eps_t must be positive"),
        ({"max_sweeps": 0}, "max_sweeps must be at least 1"),
        ({"seed": -1}, "seed must be non-negative"),
        ({"threshold_db": 4000}, "linear value overflows"),
        ({"threshold_db": math.nan}, "threshold_db must be a finite number"),
    ],
)
def test_solver_defaults_check_their_values_when_built(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SolverDefaults(**kwargs)
    # the same rule refuses a file, under the section's name
    cfg = scenario_dict()
    cfg["solver"].update(kwargs)
    if all(math.isfinite(v) for v in kwargs.values()):
        with pytest.raises(ScenarioError, match=f"^solver: .*{message}"):
            scenario_from_dict(cfg)


def test_solver_override_is_checked():
    scn = load_bundled()
    assert replace(scn.solver, seed=7).seed == 7
    with pytest.raises(ValueError, match="seed must be non-negative"):
        replace(scn.solver, seed=-1)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("freq_hz", 0.0, "carrier frequency must be positive"),
        ("freq_hz", -28.0e9, "carrier frequency must be positive"),
        ("n_eff", 0.5, "n_eff must be at least 1"),
    ],
)
def test_channel_rules_are_checked_by_channel_params(key, value, message):
    cfg = scenario_dict()
    cfg["channel"][key] = value
    # a ChannelParams rule is reported as "channel: ...", the legacy n_eff key as "channel.n_eff ..."
    with pytest.raises(ScenarioError, match=rf"^channel(: |\.){message}"):
        scenario_from_dict(cfg)
