"""The streaming product writers against per-element reference writers."""

import hashlib
import io

import numpy as np
import pytest

import writer_oracles as oracle
from conftest import WALL, MaxCoverInstance, encode_max_cover, scenario_dict
from pinchplan import (
    GainMap,
    GridSpec,
    Region,
    coverage,
    db_to_linear,
    emit_milp,
    export_map,
    load_bundled,
    scenario_from_dict,
)
from pinchplan.cli import _write_npz, main
from pinchplan.mapio import _field_db


# sha256 of `coverage --milp` on table1 at --grid-scale 0.25 and the scenario
# threshold; the package smoke test in CI checks the installed wheel against it
QUARTER_LP_SHA256 = "550154d00a9c7bed60238fdb19168d8638e35d73c0dff52c7cdba784dcf57e9c"


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


def assert_milp_matches(gm, params, threshold):
    """emit_milp against the oracle; returns the LP text."""
    new, ref = io.StringIO(), io.StringIO()
    emit_milp(gm, params, threshold, new)
    oracle.emit_milp(gm, params, threshold, ref)
    assert_same(new.getvalue(), ref.getvalue())
    return new.getvalue()


# 0.1 + 0.2 prints as 0.30000000000000004: it needs all 17 significant digits
@pytest.mark.parametrize("threshold", [db_to_linear(24.0), 0.1 + 0.2, db_to_linear(18.123456789012345)])
def test_emit_milp_matches_oracle(quarter, threshold):
    scn, _, gm = quarter
    text = assert_milp_matches(gm, scn.params, threshold)
    assert f"- {threshold:.17g} c_" in text


def test_emit_milp_matches_oracle_across_chunks():
    # more valid cells than one row block, and a block edge inside a grid row
    scn = load_bundled("table1").with_grid_scale(0.1)
    gm = scn.gain_map()
    assert np.count_nonzero(gm.valid) > coverage._LP_CHUNK
    assert_milp_matches(gm, scn.params, 0.1 + 0.2)


def _irregular_taps():
    # seeded tap positions off any lattice, so few coefficients repeat
    cfg = scenario_dict(waveguides=3, taps=5, nx=40, ny=12, blockages=WALL)
    rng = np.random.default_rng(11)
    cfg["taps"] = {"x": [sorted(rng.uniform(0.0, 80.0, 5).tolist()) for _ in range(3)]}
    scn = scenario_from_dict(cfg)
    gm = scn.gain_map()
    coefs = scn.params.snr_scale * gm.gains[..., gm.valid]
    assert np.unique(coefs).size > 0.5 * coefs.size
    return gm, scn.params


def _max_cover():
    # coefficients are exact zeros and the threshold
    rng = np.random.default_rng(4)
    subsets = [(rng.choice(300, 20, replace=False) + 1).tolist() for _ in range(6)]
    return encode_max_cover(MaxCoverInstance(n_elements=300, subsets=subsets, budget=3), 0.1 + 0.2)


def _signed_zeros_float32():
    # 0.0 and -0.0 print differently; float32 gains print as their float64 widening
    gm, params = _max_cover()
    gains = gm.gains.astype(np.float32)
    gains[:, ::2] *= -1.0
    return GainMap(gains=gains, valid=gm.valid), params


@pytest.mark.parametrize("make", [_irregular_taps, _max_cover, _signed_zeros_float32])
def test_emit_milp_matches_oracle_on_few_and_many_repeats(make):
    gm, params = make()
    assert np.count_nonzero(gm.valid) > coverage._LP_CHUNK
    assert_milp_matches(gm, params, 0.1 + 0.2)


def test_emit_milp_switches_to_inline_formatting_past_the_memo_cap(quarter, monkeypatch):
    # the memo is dropped after a few row blocks, so the rest of the file is
    # written by the inline template
    scn, _, gm = quarter
    blocks = -(-np.count_nonzero(gm.valid) // coverage._LP_CHUNK)
    memo_sizes = []
    coef_texts = coverage._coef_texts

    def counted(block, memo):
        memo_sizes.append(len(memo))
        return coef_texts(block, memo)

    monkeypatch.setattr(coverage, "_coef_texts", counted)
    monkeypatch.setattr(coverage, "_LP_MEMO_CAP", 3000)
    assert_milp_matches(gm, scn.params, 0.1 + 0.2)
    assert 1 < len(memo_sizes) < blocks
    assert memo_sizes[-1] <= 3000


def test_coverage_milp_keeps_its_pinned_bytes(tmp_path):
    # the oracle tests pass as long as writer and oracle agree; this pins the bytes
    out = tmp_path / "out"
    argv = ["coverage", "--config", "table1", "--grid-scale", "0.25", "--milp", "model.lp", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256((out / "model.lp").read_bytes()).hexdigest() == QUARTER_LP_SHA256


def test_coef_texts_merges_new_keys_around_the_stored_ones():
    # float64 bits order as uint64: 0.0 and the subnormal sort before every
    # positive value, -0.0 and negative values after them all
    first = np.array([[1.0, 2.0], [0.1 + 0.2, 1.0]])
    second = np.array([[0.0, 5e-324, 1.5], [1e300, -0.0, 2.0], [-2.5, 0.1 + 0.2, 0.0]])
    memo = coverage._TextMemo()
    for block, stored in ((first, 3), (second, 9), (second, 9), (first, 9)):
        texts = coverage._coef_texts(block, memo)
        assert texts.tolist() == [["%.17g" % x for x in row] for row in block.T.tolist()]
        assert len(memo) == stored
    texts = memo.texts.tolist()
    assert np.all(np.diff(memo.keys) > 0)
    assert texts == ["%.17g" % x for x in memo.keys.view(np.float64).tolist()]
    assert {"0", "-0", "4.9406564584124654e-324", "0.30000000000000004"} <= set(texts)


def test_emit_milp_without_valid_cells_refuses_before_writing(quarter, tmp_path):
    scn, _, gm = quarter
    empty = GainMap(gains=gm.gains, valid=np.zeros_like(gm.valid))
    path = tmp_path / "model.lp"
    with pytest.raises(ValueError, match="no valid grid cells"):
        emit_milp(empty, scn.params, 1.0, str(path))
    assert not path.exists()


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


def test_pgm_matches_oracle(quarter, tmp_path):
    scn, _, gm = quarter
    # the oracle's window spans every valid cell, so the zero cell is an invalid one
    field = _field(scn, gm, zero_valid=False)
    export_map(field, gm.valid, scn.grid, tmp_path / "new.pgm", fmt="pgm")
    oracle.write_pgm(_field_db(field), gm.valid, scn.grid, tmp_path / "ref.pgm")
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
