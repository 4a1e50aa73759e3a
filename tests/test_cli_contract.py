"""Property tests of the CLI contract over the channel, geometry and solver inputs.

Every run ends in a documented exit code (0, 2, 3 or 4) without raising,
a run that exits 0 writes strict JSON (no NaN or Infinity), LP files
without inf or nan coefficients and PGM pixels within 0..255, and a run
that exits 2 or 3 leaves no --out directory behind.
"""

import json
import math
import tempfile
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchplan import minmax
from pinchplan.cli import main
from conftest import WALL, scenario_dict

DB = st.floats(-5000.0, 5000.0, allow_nan=False, allow_infinity=False)
COMMANDS = (
    ["gainmap"],
    ["map", "--format", "pgm", "--activation", "1,1"],
    ["coverage"],
    ["coverage", "--exact"],
    ["coverage", "--milp", "model.lp"],
    ["minmax"],
    ["minmax", "--exact"],
    ["sweep-threshold"],
    ["sweep-threshold", "--exact"],
    ["sweep-power", "--exact"],
    ["baseline"],
)


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _check_products(out: Path, cells: int) -> None:
    for path in out.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
    for path in out.glob("*.pgm"):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "P2" and lines[3] == "255"
        pixels = [int(tok) for line in lines[4:] for tok in line.split()]
        assert len(pixels) == cells
        assert all(0 <= p <= 255 for p in pixels)
    for path in out.glob("*.lp"):
        tokens = set(path.read_text(encoding="utf-8").lower().split())
        assert not tokens & {"inf", "-inf", "+inf", "nan", "-nan", "+nan"}, path.name


def _scenario_text(cfg: dict, nesting: dict) -> str:
    """`cfg` as JSON, each top-level key of `nesting` with its value inside that many arrays.

    The arrays are written as text: json.dumps cannot write them past the recursion limit.
    """
    text = json.dumps({key: f"<{key}>" if key in nesting else value for key, value in cfg.items()})
    for key, depth in nesting.items():
        text = text.replace(f'"<{key}>"', "[" * depth + json.dumps(cfg[key]) + "]" * depth)
    return text


def _run_commands(cfg: dict, commands, nesting: dict | None = None) -> None:
    """Run each command on `cfg` and assert the contract of the module docstring."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scn.json"
        path.write_text(_scenario_text(cfg, nesting or {}), encoding="utf-8")
        for i, argv in enumerate(commands):
            out = Path(tmp) / f"out{i}"
            err = StringIO()
            with redirect_stderr(err):
                code = main([*argv, "--config", str(path), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in err.getvalue()
            if code == 0:
                _check_products(out, cfg["grid"]["nx"] * cfg["grid"]["ny"])
            if code in (2, 3):
                assert not out.exists(), argv


# 1-based tap indices: in range, past the 3 taps, and past int64
TAP_INDEX = st.one_of(st.integers(1, 4), st.integers(2**63 - 2, 10**30))


@settings(max_examples=30, deadline=None)
@given(DB, DB, DB, st.lists(DB, min_size=1, max_size=3), st.lists(TAP_INDEX, min_size=1, max_size=3))
def test_cli_exit_codes_and_finite_products(tx_power_dbm, noise_dbm, nlos_db, powers, activation):
    cfg = scenario_dict(
        waveguides=2, taps=3, nx=6, ny=4, blockages=WALL,
        tx_power_dbm=tx_power_dbm, noise_dbm=noise_dbm, nlos_db=nlos_db,
    )
    sweep = ["sweep-power", "--powers=" + ",".join(repr(p) for p in powers)]
    render = ["map", "--activation", ",".join(str(m) for m in activation)]
    _run_commands(cfg, (*COMMANDS, sweep, render))


# Finite, non-finite and wrongly typed values for the geometry, channel and solver keys.
# Integers stay small or far over the tensor budget, so a run that is accepted
# stays on a tiny grid with few activations to enumerate.
WRONG_TYPE = st.sampled_from(["1", None, True, [1.0], {}])
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]),
    WRONG_TYPE,
)
SMALL_INT = st.one_of(st.integers(-1, 5), st.sampled_from([10**12, 10**400]), NUMBER)
TAP_X = st.one_of(
    st.lists(st.lists(st.one_of(st.floats(-1.0, 81.0), NUMBER), max_size=4), min_size=1, max_size=3),
    WRONG_TYPE,
)
MUTATIONS = st.one_of(
    st.tuples(st.just("scenario"), st.just("waveguides"), SMALL_INT),
    st.tuples(st.just("region"), st.sampled_from(["x_len", "y_len", "height"]), NUMBER),
    st.tuples(st.just("taps"), st.just("count"), SMALL_INT),
    st.tuples(st.just("taps"), st.just("x"), TAP_X),
    st.tuples(st.just("blockages"), st.sampled_from(["x_min", "x_max", "y_min", "y_max", "height"]), NUMBER),
    st.tuples(st.just("grid"), st.sampled_from(["nx", "ny"]), SMALL_INT),
    st.tuples(st.just("channel"), st.sampled_from(["freq_hz", "n_eff"]), NUMBER),
    st.tuples(st.just("channel"), st.just("n_clusters"), SMALL_INT),
    st.tuples(st.just("solver"), st.sampled_from(["eps_t", "threshold_db"]), NUMBER),
    st.tuples(st.just("solver"), st.sampled_from(["max_sweeps", "seed"]), SMALL_INT),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(MUTATIONS, min_size=1, max_size=3))
def test_cli_contract_over_mutated_geometry_and_solver(mutations):
    # a copy of WALL, which other tests share
    cfg = scenario_dict(waveguides=2, taps=3, nx=6, ny=4, blockages=[dict(WALL[0])])
    cfg["solver"].update(threshold_db=18.0, eps_t=1.0e-3, max_sweeps=50)
    for section, key, value in mutations:
        if section == "scenario":
            cfg[key] = value
        elif section == "taps":
            cfg["taps"] = {key: value}
        elif section == "blockages":
            cfg["blockages"][0][key] = value
        else:
            cfg[section][key] = value
    _run_commands(cfg, COMMANDS)


# how many arrays a section's value is nested in: shallow, or past json.loads' recursion limit
DEPTH = st.one_of(st.integers(1, 5), st.integers(2_000, 10_000))


@settings(max_examples=10, deadline=None)
@given(st.dictionaries(st.sampled_from(["region", "taps", "grid", "channel", "solver"]), DEPTH, min_size=1, max_size=2))
def test_cli_contract_over_nested_sections(nesting):
    _run_commands(scenario_dict(waveguides=2, taps=3, nx=6, ny=4), COMMANDS, nesting)


# a 2x2 grid whose one blockage covers the whole 20 m x 10 m floor; the
# property tests above never block every cell
NO_VALID_CELL = scenario_dict(
    x_len=20.0, y_len=10.0, nx=2, ny=2,
    blockages=[{"x_min": 0.0, "x_max": 20.0, "y_min": -5.0, "y_max": 5.0, "height": 5.0}],
)


@pytest.mark.parametrize(
    "argv",
    [
        ["gainmap"],
        ["map", "--activation", "1,1"],
        ["coverage"],
        ["minmax"],
        ["baseline"],
        ["sweep-threshold"],
        ["sweep-power"],
    ],
    ids=lambda argv: argv[0],
)
def test_scenario_without_valid_cells(tmp_path, capsys, argv):
    # the gain map of such a scenario is a product; every plan or reference is refused
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(NO_VALID_CELL), encoding="utf-8")
    out = tmp_path / "out"
    code = main([*argv, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if argv[0] == "gainmap":
        assert code == 0
        _check_products(out, 4)
    else:
        assert code == 2 and "invalid input: no valid grid cells" in err
        assert not out.exists()


def test_bnb_node_budget_refusal_exits_3(tmp_path, capsys, monkeypatch):
    # the exact max-min solvers refuse a search over the node budget; bisection
    # then plans from the search's best plan without a ceiling, and reports no
    # certified optimum and the nodes the search bounded
    monkeypatch.setattr(minmax, "BNB_NODE_BUDGET", 5)
    for argv in (["minmax", "--exact"], ["sweep-power", "--exact"]):
        out = tmp_path / argv[0]
        code = main([*argv, "--config", "table1", "--grid-scale", "0.05", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "budget refusal" in err and "branch-and-bound" in err and "Traceback" not in err
        assert not out.exists()
    out = tmp_path / "bisection"
    assert main(["minmax", "--config", "table1", "--grid-scale", "0.05", "--out", str(out)]) == 0
    doc = json.loads((out / "minmax_summary.json").read_text(encoding="utf-8"))
    nodes = doc["objective"]["bnb_nodes"]
    assert doc["objective"]["certified_db"] is None and type(nodes) is int and nodes > 5


def test_removed_exact_feasibility_flag_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["minmax", "--exact-feasibility", "--config", "table1", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exact-feasibility" in capsys.readouterr().err
    assert not out.exists()
