"""The streaming product writers against per-element reference writers."""

import hashlib
import importlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import writer_oracles as oracle
from conftest import WALL, MaxCoverInstance, TensorMap, encode_max_cover, scenario_dict
from pinchplan import (
    GridSpec,
    Region,
    coverage,
    db_to_linear,
    emit_milp,
    export_map,
    load_bundled,
    load_scenario,
    scenario_from_dict,
)
from pinchplan.cli import _write_npz, main
from pinchplan.mapio import _field_db


# sha256 of `coverage --milp` on table1 at --grid-scale 0.25 and at the full
# grid, at the scenario threshold; the package smoke test in CI checks the
# installed wheel against both
QUARTER_LP_SHA256 = "550154d00a9c7bed60238fdb19168d8638e35d73c0dff52c7cdba784dcf57e9c"
FULL_LP_SHA256 = "583f59162442df196440b9f2c0ec06d582b7df6adcd997f2237939f273a71148"
# sha256 of the gainmap.npz that `gainmap` writes on table1 at --grid-scale 0.25;
# CI checks the installed wheel against it too
QUARTER_NPZ_SHA256 = "d4d0ded5c1d9735db63b52c89be3856c11bec40eda4fcb4d3713aa5aa00f9445"
# sha256 of the `coverage --milp` LP (at the scenario threshold) and of the
# gainmap.npz of the full-grid 6x16-tap stress scenario that
# perfbench/workloads.py generates at seed 7; CI checks the wheel against both
STRESS_LP_SHA256 = "adfe3b6e0feca6f57a183ba286303139b889bb4e8917e17f4061cc02bd0c6db6"
STRESS_NPZ_SHA256 = "93629f6e18185ace2e05235114920cad75d191272dc4c30e49168a88e9545ee2"


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


def _signed_zeros():
    # 0.0 and -0.0 print differently
    gm, params = _max_cover()
    gains = gm.gains.copy()
    gains[:, ::2] *= -1.0
    return TensorMap(gains, gm.valid), params


@pytest.mark.parametrize("make", [_irregular_taps, _max_cover, _signed_zeros])
def test_emit_milp_matches_oracle_on_few_and_many_repeats(make):
    gm, params = make()
    assert np.count_nonzero(gm.valid) > coverage._LP_CHUNK
    assert_milp_matches(gm, params, 0.1 + 0.2)


def test_emit_milp_keeps_its_memo_past_the_cap(quarter, monkeypatch):
    # the memo fills after a few row blocks; every later block still reads it,
    # and the texts that would take it past its cap are formatted unstored.
    # The bytes are the uncapped memo's.
    scn, _, gm = quarter
    uncapped = io.StringIO()
    emit_milp(gm, scn.params, 0.1 + 0.2, uncapped)
    blocks = -(-np.count_nonzero(gm.valid) // coverage._LP_CHUNK)
    memo_sizes = []
    coef_texts = coverage._coef_texts

    def counted(block, memo):
        memo_sizes.append(len(memo))
        return coef_texts(block, memo)

    monkeypatch.setattr(coverage, "_coef_texts", counted)
    monkeypatch.setattr(coverage, "_LP_MEMO_CAP", 3000)
    assert assert_milp_matches(gm, scn.params, 0.1 + 0.2) == uncapped.getvalue()
    assert len(memo_sizes) == blocks
    assert memo_sizes[0] == 0 and max(memo_sizes) <= 3000
    assert memo_sizes.count(memo_sizes[-1]) > 1  # blocks past the cap stored nothing


def test_coverage_milp_keeps_its_pinned_bytes(tmp_path):
    # the oracle tests pass as long as writer and oracle agree; this pins the bytes
    out = tmp_path / "out"
    argv = ["coverage", "--config", "table1", "--grid-scale", "0.25", "--milp", "model.lp", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256((out / "model.lp").read_bytes()).hexdigest() == QUARTER_LP_SHA256


class HashingSink:
    """A text stream that keeps only the sha256 of the UTF-8 bytes written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode("utf-8"))


def test_full_grid_milp_keeps_its_pinned_bytes():
    # the same bytes `coverage --milp` writes on full table1 (52 MB),
    # hashed as they stream
    scn = load_bundled("table1")
    sink = HashingSink()
    emit_milp(scn.gain_map(), scn.params, scn.threshold_linear, sink)
    assert sink.sha.hexdigest() == FULL_LP_SHA256


def test_stress_products_keep_their_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(Path(__file__).parents[1] / "perfbench")
    workloads = importlib.import_module("workloads")
    config = tmp_path / "stress.json"
    config.write_text(json.dumps(workloads.stress_scenario_dict(7)))
    scn = load_scenario(config)
    sink = HashingSink()
    emit_milp(scn.gain_map(), scn.params, scn.threshold_linear, sink)
    assert sink.sha.hexdigest() == STRESS_LP_SHA256
    out = tmp_path / "out"
    assert main(["gainmap", "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "gainmap.npz").read_bytes()).hexdigest() == STRESS_NPZ_SHA256


def texts_of(block):
    return [["%.17g" % x for x in row] for row in block.T.tolist()]


def test_coef_texts_merges_new_keys_around_the_stored_ones(monkeypatch):
    # With the multiplier 1 a key's home slot is the top 5 bits of its
    # pattern in a 32-slot table: sign and high exponent bits. So 1.0, 1.5
    # and 0.30000000000000004 share slot 7, 0.0 and the subnormal slot 0,
    # and -inf and the NaNs with the sign bit set slot 31, from which they
    # wrap past the last slot onto 0, 1, ...
    monkeypatch.setattr(coverage, "_HASH_MULTIPLIER", np.uint64(1))
    nans = np.array([0xFFF8000000000000, 0xFFF0000000000001], np.uint64).view(np.float64)
    first = np.array([[1.0, 2.0], [0.1 + 0.2, 1.0]])
    second = np.array([[-np.inf, nans[0], 1.5], [nans[1], 1e300, 2.0], [-2.5, -0.0, -np.inf]])
    third = np.array([[0.0, 5e-324, 0.1 + 0.2], [-0.0, 0.0, nans[1]]])
    memo = coverage._TextMemo(12)
    assert len(memo.used) == 32
    for block, stored in ((first, 3), (second, 10), (third, 12), (second, 12), (first, 12)):
        assert coverage._coef_texts(block, memo).tolist() == texts_of(block)
        assert len(memo) == np.count_nonzero(memo.used) == stored
    slots = memo.used.nonzero()[0]
    keys = memo.keys[slots]
    assert memo.texts[slots].tolist() == ["%.17g" % x for x in keys.view(np.float64).tolist()]
    assert {"0", "-0", "4.9406564584124654e-324", "0.30000000000000004", "-inf", "nan"} <= set(memo.texts[slots])
    # linear probing: every slot from a key's home to its own is taken
    homes = (keys >> memo.shift).astype(int)
    for home, slot in zip(homes, slots):
        assert memo.used[np.arange(home, home + (slot - home) % 32 + 1) % 32].all()
    assert np.any(slots < homes)  # wrapped past the last slot
    assert np.count_nonzero(slots != homes) >= 5  # collided


def test_coef_texts_keeps_no_texts_past_its_cap():
    block = np.array([[1.0, 2.0], [3.0, 1.0]])
    memo = coverage._TextMemo(4)
    assert coverage._coef_texts(block, memo).tolist() == texts_of(block)
    assert len(memo) == 3
    block = np.array([[4.0, 5.0], [1.0, 2.0]])  # two more texts would make 5
    assert coverage._coef_texts(block, memo).tolist() == texts_of(block)
    assert len(memo) == 3
    block = np.array([[4.0, 1.0], [2.0, 3.0]])  # one more text fits
    assert coverage._coef_texts(block, memo).tolist() == texts_of(block)
    assert len(memo) == 4


# bit patterns: signed zeros, subnormals, the largest finite floats, signed
# infinities, quiet and signalling NaNs with payloads, then anything
SIGN = 1 << 63
SPECIAL_BITS = st.sampled_from(
    [0, SIGN, 1, SIGN | 1, (1 << 52) - 1, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, SIGN | 0x7FF0000000000000,
     0x7FF8000000000000, SIGN | 0x7FF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF, (1 << 64) - 1]
)
BITS = SPECIAL_BITS | st.integers(1, (1 << 52) - 1).map(lambda m: m | SIGN * (m & 1)) | st.integers(0, (1 << 64) - 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_coef_texts_formats_every_bit_pattern_like_the_format_operator(data):
    # blocks drawn from one small pool, so patterns repeat within and across blocks
    pool = data.draw(st.lists(BITS, min_size=1, max_size=40, unique=True))
    rows = data.draw(st.integers(1, 5))
    memo = coverage._TextMemo(data.draw(st.integers(0, 48)))
    seen = set()
    for _ in range(data.draw(st.integers(1, 5))):
        bits = data.draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=8 * rows))
        bits = bits[: len(bits) // rows * rows]
        block = np.array(bits, np.uint64).reshape(rows, -1).view(np.float64)
        assert coverage._coef_texts(block, memo).tolist() == texts_of(block)
        seen.update(bits)
        assert len(memo) <= memo.cap
        assert set(memo.keys[memo.used].tolist()) <= seen
        if len(seen) <= memo.cap:
            assert len(memo) == len(seen)


def test_emit_milp_without_valid_cells_refuses_before_writing(quarter, tmp_path):
    scn, _, gm = quarter
    empty = TensorMap(gm.gains, np.zeros_like(gm.valid), scn.params)
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
        # over 16 MiB, so the oracle's write_array formats it in several chunks
        "large": np.arange(2_500_000, dtype=np.float64).reshape(500, 5000),
        "empty": np.zeros((0, 3)),
    }
    _write_npz(tmp_path / "new.npz", arrays)
    oracle.write_npz(tmp_path / "ref.npz", arrays)
    assert_same((tmp_path / "new.npz").read_bytes(), (tmp_path / "ref.npz").read_bytes())
    with np.load(tmp_path / "new.npz") as npz:
        assert sorted(npz.files) == sorted(arrays)
        for name, arr in arrays.items():
            assert npz[name].dtype == arr.dtype
            assert np.array_equal(npz[name], arr)


def test_gainmap_keeps_its_pinned_bytes(tmp_path):
    out = tmp_path / "out"
    assert main(["gainmap", "--config", "table1", "--grid-scale", "0.25", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "gainmap.npz").read_bytes()).hexdigest() == QUARTER_NPZ_SHA256
