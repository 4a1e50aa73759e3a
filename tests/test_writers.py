"""The streaming product writers against per-element reference writers."""

import io

import numpy as np
import pytest

import writer_oracles as oracle
from pinchplan import GridSpec, Region, db_to_linear, emit_milp, export_map, load_bundled
from pinchplan.cli import _write_npz
from pinchplan.mapio import _field_db


def assert_same(new, ref):
    """Equality of two products; on failure report the first differing line only."""
    if new != ref:
        pairs = zip(new.splitlines(), ref.splitlines())
        line = next((i for i, (a, b) in enumerate(pairs) if a != b), None)
        pytest.fail(f"products differ (sizes {len(new)}, {len(ref)}); first differing line: {line}")


@pytest.fixture(scope="module")
def quarter():
    scn = load_bundled("table1").with_grid_scale(0.25)
    vis = scn.visibility()
    return scn, vis, scn.gain_map(vis)


def _field(scn, gm, zero_valid=True):
    """A planned field with a zero cell (-inf dB), valid or not, and a tiny value."""
    field = scn.params.snr_scale * gm.gains[np.arange(gm.n_waveguides), [2, 4, 5, 7]].sum(axis=0)
    cells = np.argwhere(gm.valid == zero_valid)
    field[tuple(cells[len(cells) // 2])] = 0.0
    field[-1, -1] = 1e-300
    return field


# 0.1 + 0.2 prints as 0.30000000000000004: it needs all 17 significant digits
@pytest.mark.parametrize("threshold", [db_to_linear(24.0), 0.1 + 0.2, db_to_linear(18.123456789012345)])
def test_emit_milp_matches_oracle(quarter, threshold):
    scn, _, gm = quarter
    new, ref = io.StringIO(), io.StringIO()
    emit_milp(gm, scn.params, threshold, new)
    oracle.emit_milp(gm, scn.params, threshold, ref)
    assert_same(new.getvalue(), ref.getvalue())
    assert f"- {threshold:.17g} c_" in new.getvalue()


def test_emit_milp_matches_oracle_across_chunks():
    # more valid cells than one row block, and a block edge inside a grid row
    scn = load_bundled("table1").with_grid_scale(0.1)
    gm = scn.gain_map()
    assert np.count_nonzero(gm.valid) > 256
    new, ref = io.StringIO(), io.StringIO()
    emit_milp(gm, scn.params, 0.1 + 0.2, new)
    oracle.emit_milp(gm, scn.params, 0.1 + 0.2, ref)
    assert_same(new.getvalue(), ref.getvalue())


def test_csv_matches_oracle(quarter, tmp_path):
    scn, vis, gm = quarter
    field = _field(scn, gm)
    export_map(field, gm.valid, scn.grid, tmp_path / "new.csv", fmt="csv")
    oracle.write_csv(_field_db(field), gm.valid, scn.grid, tmp_path / "ref.csv")
    data = (tmp_path / "new.csv").read_bytes()
    assert_same(data, (tmp_path / "ref.csv").read_bytes())
    assert b",-inf," in data


def test_csv_matches_oracle_on_irregular_grid(tmp_path):
    # cell centres such as 50/7 need all 9 significant digits
    grid = GridSpec.from_region(Region(x_len=50.0, y_len=30.0, height=10.0), 7, 9)
    rng = np.random.default_rng(3)
    field = rng.uniform(0.0, 1e4, (7, 9))
    field[3, 2] = 0.0
    valid = rng.uniform(size=(7, 9)) < 0.7
    export_map(field, valid, grid, tmp_path / "new.csv", fmt="csv")
    oracle.write_csv(_field_db(field), valid, grid, tmp_path / "ref.csv")
    assert_same((tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes())


@pytest.mark.parametrize("window", [None, (10.0, 30.0), (20.0, 20.0)])
def test_pgm_matches_oracle(quarter, tmp_path, window):
    scn, _, gm = quarter
    # a -inf dB valid cell would make the derived window infinite
    field = _field(scn, gm, zero_valid=window is not None)
    export_map(field, gm.valid, scn.grid, tmp_path / "new.pgm", fmt="pgm", db_window=window)
    oracle.write_pgm(_field_db(field), gm.valid, scn.grid, tmp_path / "ref.pgm", window)
    assert_same((tmp_path / "new.pgm").read_bytes(), (tmp_path / "ref.pgm").read_bytes())


def test_npz_matches_oracle_and_round_trips(quarter, tmp_path):
    scn, vis, gm = quarter
    arrays = {
        "gains": gm.gains,
        "los": vis.los,
        "valid": gm.valid,
        "x_centers": scn.grid.x_centers(),
        "y_centers": scn.grid.y_centers(),
        "strided": gm.gains[:, ::2, :, 1::3],  # made contiguous before writing
    }
    _write_npz(tmp_path / "new.npz", arrays)
    oracle.write_npz(tmp_path / "ref.npz", arrays)
    assert_same((tmp_path / "new.npz").read_bytes(), (tmp_path / "ref.npz").read_bytes())
    with np.load(tmp_path / "new.npz") as npz:
        assert sorted(npz.files) == sorted(arrays)
        for name, arr in arrays.items():
            assert npz[name].dtype == arr.dtype
            assert np.array_equal(npz[name], arr)
