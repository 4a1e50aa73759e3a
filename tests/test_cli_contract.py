"""Property test of the CLI contract over the channel inputs.

Every run ends in a documented exit code (0, 2, 3 or 4) without raising,
a run that exits 0 writes strict JSON (no NaN or Infinity), LP files
without inf or nan coefficients and PGM pixels within 0..255, and a run
that exits 2 or 3 leaves no product file behind.
"""

import json
import tempfile
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


def _check_products(out: Path) -> None:
    for path in out.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
    for path in out.glob("*.pgm"):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "P2" and lines[3] == "255"
        pixels = [int(tok) for line in lines[4:] for tok in line.split()]
        assert len(pixels) == 6 * 4
        assert all(0 <= p <= 255 for p in pixels)
    for path in out.glob("*.lp"):
        tokens = set(path.read_text(encoding="utf-8").lower().split())
        assert not tokens & {"inf", "-inf", "+inf", "nan", "-nan", "+nan"}, path.name


@settings(max_examples=30, deadline=None)
@given(DB, DB, DB, st.lists(DB, min_size=1, max_size=3))
def test_cli_exit_codes_and_finite_products(tx_power_dbm, noise_dbm, nlos_db, powers):
    cfg = scenario_dict(
        waveguides=2, taps=3, nx=6, ny=4, blockages=WALL,
        tx_power_dbm=tx_power_dbm, noise_dbm=noise_dbm, nlos_db=nlos_db,
    )
    sweep = ["sweep-power", "--powers=" + ",".join(repr(p) for p in powers)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scn.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for i, argv in enumerate((*COMMANDS, sweep)):
            out = Path(tmp) / f"out{i}"
            code = main([*argv, "--config", str(path), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            if code == 0:
                _check_products(out)
            if code in (2, 3):
                assert not out.exists() or not any(out.iterdir()), argv


def test_bnb_node_budget_refusal_exits_3(tmp_path, capsys, monkeypatch):
    # the exact max-min solvers refuse a search over the node budget; bisection
    # then plans without a ceiling and reports no certified optimum
    monkeypatch.setattr(minmax, "BNB_NODE_BUDGET", 5)
    for argv in (["minmax", "--exact"], ["sweep-power", "--exact"]):
        out = tmp_path / argv[0]
        code = main([*argv, "--config", "table1", "--grid-scale", "0.05", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "budget refusal" in err and "branch-and-bound" in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())
    out = tmp_path / "bisection"
    assert main(["minmax", "--config", "table1", "--grid-scale", "0.05", "--out", str(out)]) == 0
    doc = json.loads((out / "minmax_summary.json").read_text(encoding="utf-8"))
    assert doc["objective"]["certified_db"] is None and doc["objective"]["bnb_nodes"] is None


def test_removed_exact_feasibility_flag_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["minmax", "--exact-feasibility", "--config", "table1", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exact-feasibility" in capsys.readouterr().err
    assert not out.exists()
