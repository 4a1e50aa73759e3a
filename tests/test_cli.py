import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pinchplan import channel, coverage, linear_to_db, load_bundled, maxmin_upper_bound, sweeps
from pinchplan.cli import main
from conftest import WALL, scenario_dict

SMALL = ["--grid-scale", "0.05"]  # table1 at 20x6, fast enough for every command
# the keys of every summary file (perfbench/checks.py checks the same set)
SUMMARY_KEYS = {"activation", "digest", "method", "objective", "seed", "tool_version"}


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def gain_map_builds(monkeypatch):
    """The scenarios whose gain map was built while the test ran."""
    from pinchplan.scenario import Scenario

    original, calls = Scenario.gain_map, []

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Scenario, "gain_map", counting)
    return calls


@pytest.fixture
def visibility_taps(monkeypatch):
    """The candidate tap grids whose visibility was computed while the test ran."""
    from pinchplan import scenario

    original, calls = scenario.compute_visibility, []

    def counting(layout, taps, blockages, grid):
        calls.append(taps)
        return original(layout, taps, blockages, grid)

    monkeypatch.setattr(scenario, "compute_visibility", counting)
    return calls


def refused_at_parse_time(tmp_path, capsys, command, *flags):
    """Run `command` on small table1; assert argparse exits 2 before --out is made; return stderr."""
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "--config", "table1", *SMALL, *flags)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    return err


def test_gainmap_outputs(tmp_path, capsys):
    code, out = run(tmp_path, "gainmap", "--config", "table1", *SMALL)
    assert code == 0
    with np.load(out / "gainmap.npz") as npz:
        assert set(npz.files) == {"gains", "los", "valid", "x_centers", "y_centers"}
        assert npz["gains"].shape == (4, 10, 20, 6)
        assert npz["los"].dtype == bool
        assert npz["x_centers"].shape == (20,)
    doc = read_json(out / "gainmap_summary.json")
    assert doc["method"] == "gainmap"
    assert doc["activation"] is None
    assert 0.0 < doc["objective"]["blocked_fraction"] < 1.0
    assert doc["objective"]["valid_cells"] <= doc["objective"]["total_cells"] == 120
    assert "wall_time_s" not in doc
    note = capsys.readouterr().err
    assert note.startswith("[pinchplan] gainmap: wrote")


def test_gainmap_reruns_byte_identical(tmp_path):
    _, out_a = run(tmp_path / "a", "gainmap", "--config", "table1", *SMALL)
    _, out_b = run(tmp_path / "b", "gainmap", "--config", "table1", *SMALL)
    for name in ("gainmap.npz", "gainmap_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_coverage_heuristic_and_exact(tmp_path):
    code, out = run(tmp_path / "h", "coverage", "--config", "table1", *SMALL, "--gamma-db", "24")
    assert code == 0
    doc = read_json(out / "coverage_summary.json")
    assert doc["method"] == "coverage/coordinate_ascent"
    assert doc["objective"]["threshold_db"] == 24.0
    assert len(doc["activation"]) == 4
    assert all(1 <= i <= 10 for i in doc["activation"])
    heur_count = doc["objective"]["covered_count"]

    code, out = run(
        tmp_path / "e", "coverage", "--config", "table1", *SMALL, "--gamma-db", "24", "--exact"
    )
    assert code == 0
    doc = read_json(out / "coverage_summary.json")
    assert doc["method"] == "coverage/exact"
    assert doc["objective"]["covered_count"] >= heur_count
    header = (out / "coverage_map.csv").read_text().splitlines()[0]
    assert header == "x,y,snr_db,valid"


def test_coverage_milp_emission(tmp_path, capsys):
    code, out = run(
        tmp_path, "coverage", "--config", "table1", *SMALL, "--milp", "model.lp"
    )
    assert code == 0
    text = (out / "model.lp").read_text(encoding="utf-8")
    assert text.startswith("\\ tap-activation coverage MILP\n")
    assert text.endswith("End\n")
    # the stderr note names every product, the LP file included
    note = capsys.readouterr().err
    for name in ("coverage_map.csv", "coverage_summary.json", "model.lp"):
        assert str(out / name) in note


def test_minmax_bisection_and_exact(tmp_path):
    code, out = run(tmp_path / "b", "minmax", "--config", "table1", *SMALL)
    assert code == 0
    doc = read_json(out / "minmax_summary.json")
    assert doc["method"] == "minmax/bisection"
    obj = doc["objective"]
    assert obj["worst_grid_linear"] == pytest.approx(10 ** (obj["worst_grid_db"] / 10), rel=1e-12)
    assert obj["eps_t"] == 1e-3
    assert obj["bisection_iters"] > 0

    code, out = run(tmp_path / "e", "minmax", "--config", "table1", *SMALL, "--exact")
    assert code == 0
    exact_doc = read_json(out / "minmax_summary.json")
    assert exact_doc["method"] == "minmax/exact"
    assert exact_doc["objective"]["worst_grid_linear"] >= obj["worst_grid_linear"] * (1 - 1e-12)


def test_sweep_power_plans_like_minmax_on_full_table1(tmp_path):
    # both bisect at the scenario seed (1 for table1), from the certified optimum
    acts = {}
    for cmd, name in (("minmax", "minmax_summary.json"), ("sweep-power", "power_sweep_summary.json")):
        code, out = run(tmp_path / cmd, cmd, "--config", "table1")
        assert code == 0
        acts[cmd] = read_json(out / name)["activation"]
    assert acts["sweep-power"] == acts["minmax"]


def test_minmax_plans_the_certified_optimum_on_full_table1(tmp_path):
    # at seed 0 bisection from the centred plan ended 0.02 dB short (20.7620 dB);
    # it now starts from the certificate and plans the optimum
    docs = {}
    for name, extra in (("b", []), ("e", ["--exact"])):
        code, out = run(tmp_path / name, "minmax", "--config", "table1", "--seed", "0", *extra)
        assert code == 0
        docs[name] = read_json(out / "minmax_summary.json")
    bisect, exact = docs["b"], docs["e"]
    assert bisect["activation"] == exact["activation"] == [5, 1, 10, 4]
    assert bisect["objective"]["worst_grid_db"] == exact["objective"]["worst_grid_db"]
    assert round(bisect["objective"]["worst_grid_db"], 4) == 20.7836
    assert bisect["objective"]["certified_db"] == bisect["objective"]["worst_grid_db"]
    assert bisect["objective"]["bisection_iters"] > 0


@pytest.mark.parametrize(
    "flags",
    [
        ["sweep-threshold", "--gammas", "30,20"],
        ["map", "--activation", "2,6"],
        ["map", "--activation", "11,1,1,1"],
        ["sweep-power", "--powers", "30,4000"],
    ],
)
def test_refusal_while_planning_leaves_no_out(tmp_path, capsys, flags):
    # a refusal comes while planning, and --out is created only after planning succeeds
    code, out = run(tmp_path, *flags, "--config", "table1", *SMALL)
    err = capsys.readouterr().err
    assert code == 2 and "invalid input" in err and "Traceback" not in err
    assert not out.exists()


def test_failed_run_keeps_an_out_it_did_not_create(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert run(tmp_path, "map", "--activation", "2,6", "--config", "table1", *SMALL)[0] == 2
    assert out.is_dir()


def test_minmax_summaries_carry_the_certified_optimum(tmp_path):
    docs = {}
    for name, extra in (("b", []), ("e", ["--exact"])):
        code, out = run(tmp_path / name, "minmax", "--config", "table1", *SMALL, *extra)
        assert code == 0
        docs[name] = read_json(out / "minmax_summary.json")["objective"]
    exact = docs["e"]
    assert exact["certified_db"] == exact["worst_grid_db"]
    assert exact["bnb_nodes"] > 0
    assert docs["b"]["certified_db"] == exact["certified_db"]
    assert docs["b"]["bnb_nodes"] == exact["bnb_nodes"]
    assert docs["b"]["worst_grid_db"] <= exact["certified_db"]

    # the envelope bound of the map: maxmin_upper_bound, above the certified optimum
    scn = load_bundled("table1").with_grid_scale(0.05)
    bound_db = linear_to_db(maxmin_upper_bound(scn.gain_map(), scn.params))
    assert docs["b"]["upper_bound_db"] == exact["upper_bound_db"] == bound_db > exact["certified_db"]

    code, out = run(tmp_path / "p", "sweep-power", "--config", "table1", *SMALL, "--exact")
    assert code == 0
    obj = read_json(out / "power_sweep_summary.json")["objective"]
    assert (obj["certified_db"], obj["upper_bound_db"], obj["bnb_nodes"]) == (
        exact["certified_db"], bound_db, exact["bnb_nodes"])


@pytest.mark.parametrize(
    "argv", [["gainmap"], ["baseline"], ["map", "--activation", "1,1,1,1"]]
)
def test_exact_is_refused_where_no_solver_reads_it(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv, "--config", "table1", *SMALL, "--exact")
    assert exc.value.code == 2
    assert "unrecognized arguments: --exact" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_baseline_cmd(tmp_path):
    code, out = run(tmp_path, "baseline", "--config", "table1", *SMALL, "--draws", "5")
    assert code == 0
    doc = read_json(out / "baseline_summary.json")
    assert doc["method"] == "baseline"
    assert doc["objective"]["n_random"] == 5
    assert (out / "fixed_map.csv").exists()


def test_sweep_threshold_deterministic(tmp_path):
    argv = ["sweep-threshold", "--config", "table1", *SMALL, "--gammas", "18,24", "--draws", "3"]
    code, out_a = run(tmp_path / "a", *argv)
    assert code == 0
    _, out_b = run(tmp_path / "b", *argv)
    for name in ("threshold_sweep.csv", "threshold_sweep_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    header = (out_a / "threshold_sweep.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "threshold_db"


def test_sweep_power_shift(tmp_path):
    code, out = run(
        tmp_path, "sweep-power", "--config", "table1", *SMALL, "--powers", "30,40", "--draws", "3"
    )
    assert code == 0
    doc = read_json(out / "power_sweep_summary.json")
    lo, hi = doc["objective"]["optimized_db"]
    assert hi - lo == pytest.approx(10.0, abs=1e-9)
    assert len(doc["activation"]) == 4


def test_map_formats_and_worst(tmp_path):
    code, out = run(
        tmp_path / "pgm", "map", "--config", "table1", *SMALL,
        "--activation", "2,6,9,4", "--format", "pgm",
    )
    assert code == 0
    assert (out / "map.pgm").read_text().startswith("P2\n")
    doc = read_json(out / "map_summary.json")
    assert doc["activation"] == [2, 6, 9, 4]
    assert np.isfinite(doc["objective"]["worst_valid_db"])

    code, out = run(
        tmp_path / "csv", "map", "--config", "table1", *SMALL, "--activation", "2,6,9,4"
    )
    assert code == 0
    assert (out / "map.csv").exists()


@pytest.mark.parametrize(
    "bad, message",
    [
        ("2,6", "selection must pick one tap per waveguide (4 entries)"),
        ("11,1,1,1", "tap indices must lie in [0, 10)"),
        ("1,1,1,99999999999999999999999", "tap indices must lie in [0, 10)"),  # past int64
    ],
)
def test_map_refuses_a_wrong_activation_before_any_visibility(tmp_path, capsys, visibility_taps, bad, message):
    code, out = run(tmp_path, "map", "--activation", bad, "--config", "table1", *SMALL)
    err = capsys.readouterr().err
    assert code == 2 and f"invalid input: {message}" in err
    assert visibility_taps == []
    assert not out.exists()


def test_map_computes_visibility_of_its_taps_only(tmp_path, visibility_taps):
    code, out = run(tmp_path, "map", "--activation", "2,6,9,4", "--config", "table1", *SMALL)
    assert code == 0 and (out / "map.csv").exists()
    assert len(visibility_taps) == 1
    assert visibility_taps[0].x_taps.tolist() == load_bundled("table1").taps.x_taps[range(4), [1, 5, 8, 3], None].tolist()


@pytest.fixture
def tensor_and_matrix_builds(monkeypatch):
    """(full gain tensors, scaled valid-cell matrices) built while the test runs, as lists of their maps."""
    tensors, matrices = [], []
    gains, build = channel.GainMap.gains, channel._scaled_valid_gains

    def counting_gains(gm):
        tensors.append(gm)
        return gains.func(gm)

    def counting_build(gm, snr_scale):
        matrices.append(gm)
        return build(gm, snr_scale)

    prop = functools.cached_property(counting_gains)
    prop.__set_name__(channel.GainMap, "gains")
    monkeypatch.setattr(channel.GainMap, "gains", prop)
    monkeypatch.setattr(channel, "_scaled_valid_gains", counting_build)
    return tensors, matrices


@pytest.mark.parametrize(
    "argv, matrices",
    [
        (["coverage", "--milp", "model.lp"], 1),  # the ascent and the LP writer share one
        (["coverage", "--exact"], 1),
        (["minmax"], 1),
        (["minmax", "--exact"], 1),
        (["baseline"], 1),
        (["sweep-threshold", "--gammas", "12,24"], 1),
        (["sweep-power"], 1),
        (["map", "--activation", "2,6,9,4"], 0),
        (["gainmap"], 0),
    ],
)
def test_only_gainmap_builds_the_full_gain_tensor(tmp_path, tensor_and_matrix_builds, argv, matrices):
    tensors, built = tensor_and_matrix_builds
    assert run(tmp_path, *argv, "--config", "table1", *SMALL)[0] == 0
    assert len(tensors) == (argv[0] == "gainmap")
    assert len(built) == matrices


def test_activation_parsing_errors(tmp_path):
    # a wrong count or an index past the taps needs the scenario; see below for the parse-time refusals
    for bad in ("2,6", "11,1,1,1"):
        code, _ = run(tmp_path / bad.replace(",", "_"), "map", "--config", "table1", *SMALL,
                      "--activation", bad)
        assert code == 2, bad


def test_n_eff_changes_no_product(tmp_path):
    # table1 at quarter grid without the legacy key (as bundled), then with it at 1.4 and 2.0
    doc = load_bundled("table1").to_dict()
    products = []
    for n_eff in (None, 1.4, 2.0):
        if n_eff is not None:
            doc["channel"]["n_eff"] = n_eff
        path = tmp_path / f"{n_eff}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        files = {}
        for command in ("coverage", "minmax"):
            code, out = run(tmp_path / str(n_eff) / command, command, "--config", str(path), "--grid-scale", "0.25")
            assert code == 0
            files.update({f"{command}/{p.name}": p.read_bytes() for p in out.iterdir()})
        products.append(files)
    assert len(products[0]) == 4
    assert products[0] == products[1] == products[2]  # the summaries' digests included


def test_config_resolution_errors(tmp_path):
    code, _ = run(tmp_path / "a", "gainmap", "--config", "nosuch")
    assert code == 2  # bare name, not bundled
    code, _ = run(tmp_path / "b", "gainmap", "--config", "./nosuch.json")
    assert code == 4  # looks like a path, missing file


def test_config_by_path_and_validation_error(tmp_path):
    cfg = scenario_dict(waveguides=2, taps=3, nx=6, ny=4)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out = run(tmp_path, "coverage", "--config", str(path))
    assert code == 0

    cfg["region"]["x_len"] = -5.0
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, _ = run(tmp_path, "coverage", "--config", str(path))
    assert code == 2


def test_budget_refusal_exit_code(tmp_path):
    cfg = scenario_dict(waveguides=8, taps=20, nx=4, ny=3)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, _ = run(tmp_path, "coverage", "--config", str(path), "--exact")
    assert code == 3


def test_bad_gammas_exit_code(tmp_path, capsys):
    err = refused_at_parse_time(tmp_path, capsys, "sweep-threshold", "--gammas", "abc")
    assert "argument --gammas: expected a number, got 'abc'" in err


def test_seed_override_changes_digest(tmp_path):
    _, out_a = run(tmp_path / "a", "baseline", "--config", "table1", *SMALL, "--draws", "3")
    _, out_b = run(tmp_path / "b", "baseline", "--config", "table1", *SMALL, "--draws", "3",
                   "--seed", "77")
    a = read_json(out_a / "baseline_summary.json")
    b = read_json(out_b / "baseline_summary.json")
    assert a["seed"] == 1 and b["seed"] == 77
    assert a["digest"] != b["digest"]
    assert a["objective"]["random_coverage_mean"] != b["objective"]["random_coverage_mean"]


@pytest.mark.parametrize("command", ["minmax", "gainmap"])
def test_negative_seed_exits_2_before_anything_is_made(tmp_path, capsys, command):
    # the scenario loader refuses a negative solver.seed; --seed refuses it too
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "--config", "table1", *SMALL, "--seed", "-1")
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["coverage", "--restarts", "0"], "argument --restarts: expected an integer of at least 1"),
        (["coverage", "--exact", "--restarts", "-3"], "argument --restarts: expected an integer of at least 1"),
        (["coverage", "--restarts", "2.5"], "argument --restarts: expected an integer"),
        (["minmax", "--eps-t", "-1"], "argument --eps-t: expected a positive number"),
        (["minmax", "--exact", "--eps-t", "-1"], "argument --eps-t: expected a positive number"),
        (["minmax", "--eps-t", "0"], "argument --eps-t: expected a positive number"),
    ],
)
def test_solver_flags_out_of_range_exit_2_at_parse_time(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, argv[0], "--config", "table1", *SMALL, *argv[1:])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_map_refuses_a_bad_activation_before_building_the_gain_map(tmp_path, capsys, gain_map_builds):
    for bad in ("x,y", "a,b", "1,,2", "0,1,1,1"):
        err = refused_at_parse_time(tmp_path / bad.replace(",", "_"), capsys, "map", "--activation", bad)
        assert "argument --activation: expected" in err, bad
    assert gain_map_builds == []


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("minmax", "channel", "tx_power_dbm", float("inf")),
        ("coverage", "channel", "freq_hz", float("inf")),
        ("coverage", "region", None, 5),
        # tap coordinates that are not finite numbers, also for a single tap
        ("coverage", "taps", None, {"x": [[float("nan")], [1.0]]}),
        ("coverage", "taps", None, {"x": [[1.0, 2.0, {}], [1.0, 2.0, 3.0]]}),
        ("coverage", "taps", None, {"x": [[10**400], [1.0]]}),
    ],
)
def test_bad_scenario_values_exit_2_without_traceback(tmp_path, capsys, command, section, key, value):
    cfg = scenario_dict(waveguides=2, taps=3, nx=6, ny=4)
    if key is None:
        cfg[section] = value
    else:
        cfg[section][key] = value
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")  # writes Infinity literals
    code, out = run(tmp_path, command, "--config", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid input" in err and "Traceback" not in err
    assert not out.exists()


def _write_scenario(tmp_path, section, key, value):
    cfg = scenario_dict(waveguides=2, taps=3, nx=6, ny=4)
    cfg[section][key] = value
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("channel", "tx_power_dbm", 4000),
        ("channel", "nlos_db", 4000.0),
        ("channel", "noise_dbm", 4000),
        ("solver", "threshold_db", 4000),
        ("channel", "freq_hz", 1e-300),  # the free-space gain overflows, not the power ratio
    ],
)
def test_db_overflow_in_scenario_exits_2(tmp_path, capsys, section, key, value):
    path = _write_scenario(tmp_path, section, key, value)
    code, out = run(tmp_path, "minmax", "--config", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid input" in err and "overflows" in err and "Traceback" not in err
    assert OVERFLOW_CAUSES[key] in err
    assert not out.exists()


# the cause each refusal above names
OVERFLOW_CAUSES = {
    "tx_power_dbm": "4000 dBm is too large",
    "noise_dbm": "4000 dBm is too large",
    "nlos_db": "4000 dB is too large",
    "threshold_db": "4000 dB is too large",
    "freq_hz": "the free-space gain at 1 m of a 1e-300 Hz carrier overflows",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["coverage", "--gamma-db", "4000"],
        ["sweep-threshold", "--gammas", "18,4000"],
        ["sweep-power", "--powers", "30,inf"],
        ["sweep-threshold", "--gammas", "12,nan"],
        ["sweep-power", "--powers", "30,nan"],
        ["sweep-power", "--powers", ",,"],
    ],
)
def test_db_overflow_and_non_finite_lists_exit_2(tmp_path, capsys, gain_map_builds, argv):
    # a threshold's linear value must be finite; a power's is checked against the scenario (below)
    err = refused_at_parse_time(tmp_path, capsys, *argv)
    assert f"argument {argv[1]}:" in err
    assert gain_map_builds == []


@pytest.mark.parametrize(
    "argv",
    [
        ["coverage", "--gamma-db", "1e400"],
        ["coverage", "--gamma-db", "nan"],
        ["minmax", "--eps-t", "inf"],
        ["gainmap", "--grid-scale=-inf"],
    ],
)
def test_non_finite_flags_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, argv[0], "--config", "table1", *SMALL, *argv[1:])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "finite number" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_huge_grid_in_scenario_exits_3(tmp_path, capsys):
    path = _write_scenario(tmp_path, "grid", "nx", 1_000_000_000)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    cfg["grid"]["ny"] = 1_000_000_000
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out = run(tmp_path, "coverage", "--config", str(path))
    err = capsys.readouterr().err
    assert code == 3
    assert "budget refusal" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [("taps", "count", 10**12), ("grid", "nx", 10**400), (None, "waveguides", 10**400)],
    ids=["taps.count", "grid.nx", "waveguides"],
)
def test_huge_sizes_exit_3_before_allocating(tmp_path, capsys, section, key, value):
    # refused from the sizes alone: no waveguide, tap or cell coordinates are built first
    cfg = scenario_dict(waveguides=2, taps=3, nx=6, ny=4)
    (cfg if section is None else cfg[section])[key] = value
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out = run(tmp_path, "coverage", "--config", str(path))
    err = capsys.readouterr().err
    assert code == 3
    assert "budget refusal" in err and "Traceback" not in err
    assert not out.exists()


def test_grid_without_cells_exits_2_before_the_taps_are_built(tmp_path, capsys):
    # a grid without cells meets the tensor budget whatever the waveguide count
    cfg = scenario_dict(waveguides=2, taps=3, nx=0, ny=4)
    cfg["waveguides"] = 10**12
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out = run(tmp_path, "coverage", "--config", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert "at least one cell per axis" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("scale, expected", [("1e308", 2), ("1e300", 3), ("100", 3)])
def test_huge_grid_scale_refused(tmp_path, capsys, scale, expected):
    # 400 * 1e308 is not finite (exit 2); the others are finite but over budget
    code, out = run(tmp_path, "gainmap", "--config", "table1", "--grid-scale", scale)
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, changes, cause",
    [
        # grid cells up to 1e308 m from a tap
        ("coverage", {"region": {"x_len": 1e308}}, "from a tap to a grid cell"),
        # taps 1e160 m above the floor: the distance overflows, not the average SNR
        ("minmax", {"region": {"height": 1e160}}, "from a tap to a grid cell"),
        # array elements half a 1.4e155 m wavelength apart
        ("baseline", {"channel": {"freq_hz": 2.2e-147, "tx_power_dbm": -2900.0}}, "from a fixed-array element"),
    ],
)
def test_overflowing_squared_distance_exits_2(tmp_path, capsys, command, changes, cause):
    doc = load_bundled("table1").to_dict()
    for section, values in changes.items():
        doc[section].update(values)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(tmp_path, command, "--config", str(path), *SMALL)
    err = capsys.readouterr().err
    assert code == 2
    assert f"the squared distance {cause}" in err and "overflows a float" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()



def test_map_refuses_a_zero_snr_cell_before_writing(tmp_path, capsys):
    # the NLoS power underflows to 0, so a shadowed valid cell has zero SNR (-inf dB)
    cfg = scenario_dict(waveguides=2, taps=3, nx=6, ny=4, nlos_db=-4000.0, blockages=WALL)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out = run(tmp_path, "map", "--config", str(path), "--format", "pgm", "--activation", "1,1")
    err = capsys.readouterr().err
    assert code == 2
    assert "zero average SNR" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "taps, argv",
    [
        (1, ["minmax"]),
        (1, ["minmax", "--exact"]),
        (1, ["sweep-power", "--exact"]),
        (1, ["sweep-power"]),
        (3, ["sweep-power"]),
        (1, ["baseline"]),
    ],
)
def test_zero_snr_worst_cell_exits_2_before_writing(tmp_path, capsys, taps, argv):
    # the NLoS power underflows to 0, so every activation leaves a shadowed cell at zero SNR
    cfg = scenario_dict(waveguides=2, taps=taps, nx=6, ny=4, nlos_db=-4000.0, blockages=WALL)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out = run(tmp_path, *argv, "--config", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert "zero average SNR" in err and "Traceback" not in err
    assert not out.exists()


def test_linear_to_db_refuses_non_positive_values():
    assert linear_to_db(100.0) == 20.0
    for value in (0.0, -1.0):
        with pytest.raises(ValueError, match="zero average SNR"):
            linear_to_db(value)


def test_sweep_power_refuses_an_overflowing_power(tmp_path, capsys, gain_map_builds):
    # an overflowing power in watts, then one whose SNR overflows only at this
    # scenario's noise; both before the gain map is built
    path = _write_scenario(tmp_path, "channel", "noise_dbm", -100.0)
    for i, flags in enumerate((["--config", "table1", *SMALL, "--powers", "30,4000"],
                               ["--config", str(path), "--powers", "30,3060"])):
        code, out = run(tmp_path / str(i), "sweep-power", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid input" in err and "overflows" in err and "Traceback" not in err
        assert not out.exists()
    assert gain_map_builds == []


@pytest.mark.parametrize(
    "argv",
    [
        ["gainmap"],
        ["coverage"],
        ["coverage", "--milp", "model.lp"],
        ["minmax"],
        ["baseline", "--draws", "3"],
        ["sweep-threshold", "--gammas", "18,24", "--draws", "3"],
        ["sweep-power", "--powers", "30,40", "--draws", "3"],
        ["map", "--activation", "2,6,9,4"],
    ],
    ids=" ".join,
)
def test_every_subcommand_names_its_files_with_the_summary_last(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv, "--config", "table1", *SMALL)
    assert code == 0
    note = capsys.readouterr().err
    prefix = f"[pinchplan] {argv[0]}: wrote "
    assert note.startswith(prefix) and note.count("\n") == 1
    names = note[len(prefix):note.rindex(" in ")].split(", ")
    assert sorted(names) == sorted(str(p) for p in out.iterdir())
    summary = Path(names[-1])
    assert summary.name.endswith("_summary.json")
    assert not any(name.endswith("_summary.json") for name in names[:-1])
    doc = read_json(summary)
    assert set(doc) == SUMMARY_KEYS  # no wall_time_s
    assert isinstance(doc["objective"], dict)


@pytest.mark.parametrize("draws", ["0", "-1"])
@pytest.mark.parametrize("command", ["baseline", "sweep-threshold", "sweep-power"])
def test_draws_below_one_exit_2_before_writing(tmp_path, capsys, gain_map_builds, command, draws):
    err = refused_at_parse_time(tmp_path, capsys, command, "--draws", draws)
    assert f"argument --draws: expected an integer of at least 1, got '{draws}'" in err
    assert gain_map_builds == []


def _unreachable(*args, **kwargs):
    raise AssertionError("reached past a budget refusal")


@pytest.mark.parametrize("command", ["baseline", "sweep-threshold", "sweep-power"])
def test_unbounded_draws_exit_3_before_any_seed_is_drawn(tmp_path, capsys, monkeypatch, gain_map_builds, command):
    monkeypatch.setattr(sweeps, "derived_seeds", _unreachable)
    code, out = run(tmp_path, command, "--draws", "1000000000", "--config", "table1", *SMALL)
    err = capsys.readouterr().err
    assert code == 3
    assert "budget refusal" in err and "1000000000 random draws" in err and "Traceback" not in err
    assert gain_map_builds == [] and not out.exists()


def test_unbounded_restarts_exit_3_before_the_first_ascent(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(coverage, "_ascent_once", _unreachable)
    code, out = run(tmp_path, "coverage", "--restarts", "1000000000", "--config", "table1", *SMALL)
    err = capsys.readouterr().err
    assert code == 3
    assert "budget refusal" in err and "1000000000 ascent restarts" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["heuristic", "exact"])
def test_unbounded_thresholds_exit_3_before_the_gain_map(tmp_path, capsys, monkeypatch, gain_map_builds, exact):
    # the budget counts 8 bytes per grid cell and threshold, a cap on each threshold's
    # grid-sized scoring: 3000 * 400 * 120 * 8 bytes on full table1, over 1 GiB
    monkeypatch.setattr(coverage, "_ascent_once", _unreachable)
    monkeypatch.setattr(coverage, "_coverage_counts", _unreachable)
    gammas = ",".join(str(i / 100) for i in range(3000))
    code, out = run(tmp_path, "sweep-threshold", *exact, "--gammas", gammas, "--config", "table1")
    err = capsys.readouterr().err
    assert code == 3
    assert "budget refusal" in err and "3000 thresholds on a 400x120 grid" in err and "Traceback" not in err
    assert gain_map_builds == [] and not out.exists()


# Python formats no int of over 4,300 digits, so a refusal names the factors
# of the count it refuses, never their product. table1 with 10,000
# waveguides of 3 taps on a 2x2 grid has 3^10000 activations (4,772 digits);
# a 4,299-digit count times 4x10 taps or 20x6 cells has over 4,300; so does
# the gain tensor of 10^2500 waveguides of 10^2500 taps.
HUGE = "9" * 4299
MANY_WAVEGUIDES = {"waveguides": 10_000, "taps": {"count": 3}, "grid": {"nx": 2, "ny": 2}}


@pytest.mark.parametrize(
    "command, changes, want",
    [
        (["coverage", "--exact"], MANY_WAVEGUIDES, "exhaustive search needs 3^10000 activations"),
        (["sweep-threshold", "--exact", "--gammas", "18"], MANY_WAVEGUIDES, "needs 3^10000 activations"),
        (["coverage", "--restarts", HUGE, *SMALL], None, f"{HUGE} ascent restarts of 4x10 taps"),
        (["baseline", "--draws", HUGE, *SMALL], None, f"{HUGE} random draws on a 20x6 grid"),
        (["gainmap"], {"waveguides": 10**2500, "taps": {"count": 10**2500}}, "-tap float64 gain tensor on a 400x120 grid"),
    ],
    ids=["coverage-exact", "sweep-threshold-exact", "coverage-restarts", "baseline-draws", "gainmap"],
)
def test_refusals_of_products_past_the_digit_limit_exit_3(tmp_path, capsys, command, changes, want):
    config = "table1"
    if changes is not None:
        doc = load_bundled("table1").to_dict()
        doc.update(changes)
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(tmp_path, *command, "--config", str(config))
    err = capsys.readouterr().err
    assert code == 3
    assert "budget refusal" in err and want in err and "Traceback" not in err
    assert not out.exists()


def test_baseline_builds_one_fixed_array_map(tmp_path, monkeypatch):
    from pinchplan import channel

    original = channel.fixed_array_gain_map
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # wrap the function in every module that bound it by name
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "pinchplan" and getattr(mod, "fixed_array_gain_map", None) is original:
            monkeypatch.setattr(mod, "fixed_array_gain_map", counting)
    code, out = run(tmp_path, "baseline", "--config", "table1", *SMALL)
    assert code == 0 and (out / "fixed_map.csv").exists()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["sweep-threshold"], 1),  # the fixed array's; each plan is scored on the candidate matrix
        (["sweep-threshold", "--exact"], 1),
        (["sweep-power"], 0),  # worst cells per power come from the plan's own gain rows
        (["coverage"], 1),  # the exported plan's map
        (["coverage", "--exact"], 1),
        (["minmax"], 1),
        (["minmax", "--exact"], 1),
        (["baseline"], 1),
        (["map", "--activation", "2,6,9,4"], 1),
    ],
    ids=["sweep-threshold", "sweep-threshold-exact", "sweep-power", "coverage", "coverage-exact",
         "minmax", "minmax-exact", "baseline", "map"],
)
def test_avg_snr_runs_only_where_a_whole_grid_field_is_needed(tmp_path, monkeypatch, argv, fields):
    original, calls = channel.avg_snr, []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "pinchplan" and getattr(mod, "avg_snr", None) is original:
            monkeypatch.setattr(mod, "avg_snr", counting)
    assert run(tmp_path, *argv, "--config", "table1", "--grid-scale", "0.25")[0] == 0
    assert len(calls) == fields


@pytest.mark.parametrize(
    "name",
    ["coverage_map.csv", "coverage_summary.json", "../escaped.lp", "ABSOLUTE", "sub/m.lp", ".", ".."],
)
def test_milp_name_must_be_a_plain_file_no_other_product_uses(tmp_path, capsys, name):
    if name == "ABSOLUTE":
        name = str(tmp_path / "absolute.lp")
    out = tmp_path / "run" / "out"
    with pytest.raises(SystemExit) as exc:
        main(["coverage", "--config", "table1", *SMALL, "--milp", name, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --milp" in capsys.readouterr().err
    assert not any(p.is_file() for p in tmp_path.rglob("*"))
