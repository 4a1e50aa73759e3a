import numpy as np
import pytest

from pinchplan import GridSpec, Region, export_map
from pinchplan.mapio import MAP_FORMATS
from conftest import read_map_csv


def small_grid():
    return GridSpec.from_region(Region(x_len=8.0, y_len=4.0, height=10.0), 2, 2)


def test_csv_layout_and_values(tmp_path):
    grid = small_grid()
    field = np.array([[10.0, 100.0], [1000.0, 0.5]])
    valid = np.array([[True, True], [True, False]])
    path = tmp_path / "map.csv"
    export_map(field, valid, grid, path)

    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y,snr_db,valid"
    assert len(lines) == 1 + 4
    # u-major: (2,-1) first, y inner
    assert lines[1].startswith("2,-1,10,")
    assert lines[2].startswith("2,1,20,")
    assert lines[4].endswith(",0")

    x, y, db, v = read_map_csv(path)
    assert x.tolist() == [2.0, 2.0, 6.0, 6.0]
    assert y.tolist() == [-1.0, 1.0, -1.0, 1.0]
    np.testing.assert_allclose(db, 10.0 * np.log10(field).ravel(), atol=1e-6)
    assert v.tolist() == [True, True, True, False]


def test_csv_round_trip_precision(tmp_path):
    rng = np.random.default_rng(80)
    grid = GridSpec.from_region(Region(x_len=50.0, y_len=30.0, height=10.0), 7, 5)
    field = rng.uniform(0.1, 1e4, (7, 5))
    valid = rng.uniform(size=(7, 5)) < 0.8
    path = tmp_path / "map.csv"
    export_map(field, valid, grid, path)
    _, _, db, v = read_map_csv(path)
    np.testing.assert_allclose(db, 10.0 * np.log10(field).ravel(), atol=1e-6)
    assert (v == valid.ravel()).all()


def test_invalid_cells_may_hold_zero_field(tmp_path):
    grid = small_grid()
    field = np.array([[0.0, 1.0], [1.0, 1.0]])  # -inf dB at the invalid cell
    valid = np.array([[False, True], [True, True]])
    path = tmp_path / "map.csv"
    export_map(field, valid, grid, path)
    _, _, db, v = read_map_csv(path)
    assert db[0] == -np.inf and not v[0]


def test_pgm_structure(tmp_path):
    grid = small_grid()
    field = np.array([[1.0, 10.0], [100.0, 1000.0]])
    valid = np.array([[True, True], [True, False]])
    path = tmp_path / "map.pgm"
    export_map(field, valid, grid, path, fmt="pgm")

    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("# snr_db window min=0 max=20")
    assert lines[2] == "2 2" and lines[3] == "255"
    rows = [[int(t) for t in line.split()] for line in lines[4:]]
    # top row is +y: cells (u=0,v=1)=10dB, (u=1,v=1)=invalid
    assert rows[0] == [128, 0]
    assert rows[1] == [0, 255]


def test_pgm_flat_field(tmp_path):
    grid = small_grid()
    field = np.full((2, 2), 100.0)
    valid = np.ones((2, 2), dtype=bool)
    path = tmp_path / "flat.pgm"
    export_map(field, valid, grid, path, fmt="pgm")
    rows = path.read_text().splitlines()[4:]
    assert all(t == "255" for row in rows for t in row.split())


def test_export_validation(tmp_path):
    grid = small_grid()
    field = np.ones((2, 2))
    valid = np.ones((2, 2), dtype=bool)
    with pytest.raises(ValueError, match="format"):
        export_map(field, valid, grid, tmp_path / "x", fmt="png")
    with pytest.raises(ValueError, match="grid shape"):
        export_map(np.ones((3, 2)), valid, grid, tmp_path / "x")
    with pytest.raises(ValueError, match="window"):
        export_map(field, np.zeros((2, 2), dtype=bool), grid, tmp_path / "x.pgm", fmt="pgm")
    with pytest.raises(ValueError, match="header"):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        read_map_csv(bad)
    assert MAP_FORMATS == ("csv", "pgm")
