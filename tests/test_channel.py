import dataclasses
import hashlib
import math

import numpy as np
import pytest

from pinchplan import (
    CandidateGrid,
    ChannelParams,
    GridSpec,
    Region,
    WaveguideLayout,
    avg_snr,
    compute_visibility,
    db_to_linear,
    dbm_to_watt,
    fixed_array_gain_map,
    linear_to_db,
    load_bundled,
    points_visibility,
    precompute_gain_map,
)
from pinchplan.channel import _point_gains
from conftest import distance_sq, random_scenario, sample_instantaneous_snr


# SHA-256 of the full-table1 gain tensors of the taps and of the fixed array:
# any change in the order or rounding of the gain arithmetic shows here
TABLE1_GAINS_SHA256 = "5aa6bb89b29ec378284d4d8237de9bb5da4c95ff03eb2955e67d7db4483579f0"
TABLE1_FIXED_GAINS_SHA256 = "f0b8ff5fcacadb943274a1d4d78e8b7976734ee509e2243ce3e45eff57f75b75"


def table1_params():
    return ChannelParams.from_db(
        freq_hz=28.0e9, tx_power_dbm=40.0, noise_dbm=-70.0, nlos_db=-60.0
    )


def test_db_helpers():
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert linear_to_db(100.0) == pytest.approx(20.0)
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3)


def test_params_derived_constants():
    p = table1_params()
    assert p.snr_scale == pytest.approx(1e11)
    assert p.wavelength == pytest.approx(0.0107068735)
    # free-space reference gain at 28 GHz, frozen from (lambda / 4 pi)^2
    assert p.los_ref_gain == pytest.approx(7.2594817e-07, rel=1e-6)
    assert abs(p.los_ref_gain - (p.wavelength / (4 * math.pi)) ** 2) <= 1e-12 * p.los_ref_gain
    assert p.nlos_power == pytest.approx(1e-6, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(freq_hz=0.0, tx_power_w=1.0, noise_power_w=1.0, nlos_power=1e-6)
    for bad in (-1e-6, math.inf, math.nan):
        with pytest.raises(ValueError):
            ChannelParams(freq_hz=1e9, tx_power_w=1.0, noise_power_w=1.0, nlos_power=bad)
    # non-finite inputs, and derived constants that overflow, are refused with their cause
    for kwargs, message in (
        ({"freq_hz": math.inf}, "carrier frequency must be positive and finite"),
        ({"tx_power_w": math.inf}, "powers must be positive and finite"),
        ({"tx_power_w": math.inf, "noise_power_w": math.inf}, "powers must be positive and finite"),
        ({"noise_power_w": math.nan}, "powers must be positive and finite"),
        ({"tx_power_w": 1e300, "noise_power_w": 1e-300}, "power ratio .* overflows"),
        ({"freq_hz": 1e-300}, "free-space gain .* overflows"),  # the wavelength overflows
        ({"freq_hz": 1e-190}, "free-space gain .* overflows"),  # its square does
    ):
        with pytest.raises(ValueError, match=message):
            ChannelParams(**{"freq_hz": 1e9, "tx_power_w": 1.0, "noise_power_w": 1.0, "nlos_power": 0.0, **kwargs})
    with pytest.raises(TypeError):  # the average SNR has no phase term, so no guide index
        ChannelParams(freq_hz=1e9, tx_power_w=1.0, noise_power_w=1.0, nlos_power=1e-6, n_eff=1.4)
    with pytest.raises(TypeError):  # the scatter is one draw; there are no clusters to count
        ChannelParams.from_db(1e9, 40.0, -70.0, -60.0, n_clusters=4)


def test_distance_sq_examples():
    region = Region(x_len=200.0, y_len=60.0, height=10.0)
    layout = WaveguideLayout.uniform(region, 4)
    # waveguide 0 at y = -30, grid (0, 0) center at (5, -25): offsets (0, 5) -> 125
    taps2 = CandidateGrid(x_taps=np.tile(np.array([5.0, 15.0]), (4, 1)))
    grid = GridSpec.from_region(region, 20, 6)
    assert distance_sq(0, 0, 0, 0, layout, taps2, grid) == pytest.approx(125.0)
    # directly below a tap: cell center (5, -5) under tap x=5, waveguide y=-5
    layout3 = WaveguideLayout(count=2, spacing=10.0, height=10.0)
    taps3 = CandidateGrid(x_taps=np.tile(np.array([5.0]), (2, 1)))
    grid3 = GridSpec(nx=1, ny=2, cell_x=10.0, cell_y=10.0)
    assert distance_sq(0, 0, 0, 0, layout3, taps3, grid3) == pytest.approx(100.0)
    # offset (3, 4) horizontally at height 10 -> 9 + 16 + 100
    taps4 = CandidateGrid(x_taps=np.tile(np.array([2.0]), (2, 1)))
    layout4 = WaveguideLayout(count=2, spacing=2.0, height=10.0)
    assert distance_sq(0, 0, 0, 0, layout4, taps4, grid3) == pytest.approx(125.0)


def test_distance_sq_floor():
    rng = np.random.default_rng(3)
    for _ in range(10):
        scn = random_scenario(rng, k_max=0)
        layout, taps, grid = scn.layout, scn.taps, scn.grid
        for _ in range(10):
            n = int(rng.integers(layout.count))
            m = int(rng.integers(taps.count))
            u = int(rng.integers(grid.nx))
            v = int(rng.integers(grid.ny))
            assert distance_sq(n, m, u, v, layout, taps, grid) >= layout.height**2


def test_avg_gain_branches():
    # one cell centred at (5, 0) and two taps at (5, 5, 10): d^2 = 125
    grid = GridSpec(nx=1, ny=1, cell_x=10.0, cell_y=10.0)
    points = np.array([[5.0, 5.0, 10.0], [5.0, 5.0, 10.0]])
    los = np.array([False, True]).reshape(2, 1, 1)
    p = table1_params()
    blocked, clear = _point_gains(points, los, grid, p).ravel()
    assert blocked == pytest.approx(1e-6 / 125.0, rel=1e-9)
    assert clear == pytest.approx((p.los_ref_gain + 1e-6) / 125.0, rel=1e-12)
    p0 = ChannelParams(freq_hz=28e9, tx_power_w=10.0, noise_power_w=1e-10, nlos_power=0.0)
    assert _point_gains(points, los, grid, p0)[0, 0, 0] == 0.0


def test_gain_map_all_los_limit():
    region = Region(x_len=60.0, y_len=24.0, height=8.0)
    layout = WaveguideLayout.uniform(region, 3)
    taps = CandidateGrid.uniform(region, 3, 3)
    grid = GridSpec.from_region(region, 6, 4)
    vis = compute_visibility(layout, taps, [], grid)
    p = ChannelParams(freq_hz=28e9, tx_power_w=10.0, noise_power_w=1e-10, nlos_power=0.0)
    gm = precompute_gain_map(layout, taps, grid, vis, p)
    assert gm.gains.shape == (3, 3, 6, 4)
    d2 = np.array([
        distance_sq(n, m, u, v, layout, taps, grid) for n, m, u, v in np.ndindex(gm.gains.shape)
    ]).reshape(gm.gains.shape)
    assert np.allclose(gm.gains, p.los_ref_gain / d2, rtol=1e-15)
    assert np.all(d2 >= region.height**2)


def test_table1_gain_bytes_pinned():
    scn = load_bundled("table1")
    for gm, shape, want in (
        (scn.gain_map(), (4, 10, 400, 120), TABLE1_GAINS_SHA256),
        (scn.fixed_array_map(), (4, 1, 400, 120), TABLE1_FIXED_GAINS_SHA256),
    ):
        assert gm.gains.shape == shape and gm.gains.dtype == np.float64
        assert hashlib.sha256(np.ascontiguousarray(gm.gains).tobytes()).hexdigest() == want


def test_gain_rows_and_lazy_tensor_match_the_eager_tensor():
    # a map computes each tap row from the points and visibility it holds, and builds
    # `gains` only when read: all bit-equal to the eager tensor, for taps and fixed array
    rng = np.random.default_rng(13)
    scn = random_scenario(rng, waveguides=3, taps=4, nx=9, ny=7, k_max=3)
    while not scn.blockages:
        scn = random_scenario(rng, waveguides=3, taps=4, nx=9, ny=7, k_max=3)
    grid, p, n_el = scn.grid, scn.params, scn.layout.count
    vis = scn.visibility()
    taps_eager = _point_gains(scn.layout.tap_points(scn.taps), vis.los.reshape(-1, grid.nx, grid.ny), grid, p)
    elements = np.zeros((n_el, 3))
    elements[:, 0] = scn.region.x_len / 2.0
    elements[:, 1] = (np.arange(n_el) - (n_el - 1) / 2.0) * (p.wavelength / 2.0)
    elements[:, 2] = scn.region.height
    fixed_eager = _point_gains(elements, points_visibility(elements, scn.blockages, grid).los, grid, p)
    for gm, eager in (
        (scn.gain_map(vis), taps_eager.reshape(vis.los.shape)),
        (scn.fixed_array_map(), fixed_eager[:, None]),
    ):
        for sel in np.ndindex(eager.shape[1:2] * n_el):
            want = p.snr_scale * eager[0, sel[0]]
            for n in range(1, n_el):
                want += p.snr_scale * eager[n, sel[n]]
            assert np.array_equal(avg_snr(sel, gm, p), want)
        assert "gains" not in vars(gm)
        assert gm.gains is gm.gains and np.array_equal(gm.gains, eager)


def test_gain_map_height_scaling():
    # grid 3x3 puts a cell center right under the middle tap, so min dist^2 is
    # exactly height^2; doubling the mount height then divides peak gain by 4
    p = table1_params()
    region1 = Region(x_len=60.0, y_len=24.0, height=5.0)
    region2 = Region(x_len=60.0, y_len=24.0, height=10.0)
    out = []
    for region in (region1, region2):
        layout = WaveguideLayout.uniform(region, 3)
        taps = CandidateGrid.uniform(region, 3, 3)
        grid = GridSpec.from_region(region, 3, 3)
        vis = compute_visibility(layout, taps, [], grid)
        out.append(precompute_gain_map(layout, taps, grid, vis, p).gains.max())
    assert out[0] >= 4.0 * out[1] * (1.0 - 1e-12)


def test_gain_map_argmax_is_los_on_bundled():
    scn = load_bundled("table1").with_grid_scale(0.25)
    vis = scn.visibility()
    gm = scn.gain_map(vis)
    assert np.all(np.isfinite(gm.gains))
    assert np.all(gm.gains > 0)
    idx = np.unravel_index(np.argmax(gm.gains), gm.gains.shape)
    assert vis.los[idx]


def test_avg_snr_single_waveguide_and_errors():
    rng = np.random.default_rng(5)
    scn = random_scenario(rng, waveguides=2, taps=3, k_max=1)
    gm = scn.gain_map()
    p = scn.params
    field = avg_snr([1, 2], gm, p)
    manual = p.snr_scale * (gm.gains[0, 1] + gm.gains[1, 2])
    assert np.allclose(field, manual, rtol=1e-14)
    with pytest.raises(ValueError):
        avg_snr([1], gm, p)
    with pytest.raises(ValueError):
        avg_snr([1, 3], gm, p)


def test_avg_snr_power_shift_exact_db():
    rng = np.random.default_rng(6)
    scn = random_scenario(rng, k_max=2)
    gm = scn.gain_map()
    p = scn.params
    sel = [0] * gm.n_waveguides
    base = avg_snr(sel, gm, p)
    boosted = avg_snr(sel, gm, dataclasses.replace(p, tx_power_w=10.0 * p.tx_power_w))
    shift_db = 10.0 * np.log10(boosted / base)
    assert np.all(np.abs(shift_db - 10.0) < 1e-9)


def test_avg_snr_additive_over_waveguides():
    rng = np.random.default_rng(7)
    scn = random_scenario(rng, waveguides=3, taps=3, k_max=2)
    gm = scn.gain_map()
    p = scn.params
    sel = [2, 0, 1]
    total = avg_snr(sel, gm, p)
    parts = sum(p.snr_scale * gm.gains[n, sel[n]] for n in range(3))
    assert np.allclose(total, parts, rtol=1e-12)
    assert np.all(total[gm.valid] > 0)


def test_dominant_term_below_candidate():
    # transmit SNR 1e11 over d^2 = 100 with (eta + mu^2) = 1.7259e-6: 32.37 dB
    p = table1_params()
    term = p.snr_scale * (p.los_ref_gain + p.nlos_power) / 100.0
    assert linear_to_db(term) == pytest.approx(32.3702775, abs=1e-4)


def test_bundled_field_sits_in_threshold_range():
    # mid-region cells land around the 18..30 dB sweep window used downstream
    scn = load_bundled("table1").with_grid_scale(0.25)
    gm = scn.gain_map()
    field = avg_snr([4] * 4, gm, scn.params)
    med_db = linear_to_db(float(np.median(field[gm.valid])))
    assert 18.0 < med_db < 33.0


def test_sampler_degenerate_los_only():
    rng = np.random.default_rng(9)
    scn = random_scenario(rng, k_max=0)
    vis = scn.visibility()
    p = dataclasses.replace(scn.params, nlos_power=0.0)
    sel = np.zeros(scn.layout.count, dtype=int)
    gm = precompute_gain_map(scn.layout, scn.taps, scn.grid, vis, p)
    want = avg_snr(sel, gm, p)
    got = sample_instantaneous_snr(sel, scn.layout, scn.taps, scn.grid, vis, p, seed=1, n_samples=3)
    assert got.shape == (3, scn.grid.nx, scn.grid.ny)
    for k in range(3):
        assert np.allclose(got[k], want, rtol=1e-10)


def test_sampler_seed_determinism():
    rng = np.random.default_rng(10)
    scn = random_scenario(rng, k_max=2)
    vis = scn.visibility()
    sel = np.zeros(scn.layout.count, dtype=int)
    a = sample_instantaneous_snr(sel, scn.layout, scn.taps, scn.grid, vis, scn.params, seed=77, n_samples=5)
    b = sample_instantaneous_snr(sel, scn.layout, scn.taps, scn.grid, vis, scn.params, seed=77, n_samples=5)
    c = sample_instantaneous_snr(sel, scn.layout, scn.taps, scn.grid, vis, scn.params, seed=78, n_samples=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_mean_tracks_closed_form():
    rng = np.random.default_rng(11)
    scn = random_scenario(rng, waveguides=2, taps=2, nx=5, ny=4, k_max=1)
    vis = scn.visibility()
    gm = scn.gain_map(vis)
    sel = np.zeros(2, dtype=int)
    want = avg_snr(sel, gm, scn.params)
    draws = sample_instantaneous_snr(
        sel, scn.layout, scn.taps, scn.grid, vis, scn.params, seed=4, n_samples=20000
    )
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(mean - want) <= 3.5 * se + 1e-30)


def test_sampler_validation():
    rng = np.random.default_rng(12)
    scn = random_scenario(rng, k_max=0)
    vis = scn.visibility()
    sel = np.zeros(scn.layout.count, dtype=int)
    with pytest.raises(ValueError):
        sample_instantaneous_snr(sel, scn.layout, scn.taps, scn.grid, vis, scn.params, seed=1, n_samples=0)
    with pytest.raises(ValueError):
        sample_instantaneous_snr(sel[:-1], scn.layout, scn.taps, scn.grid, vis, scn.params, seed=1)


def test_fixed_array_single_element_open_room():
    region = Region(x_len=50.0, y_len=20.0, height=10.0)
    grid = GridSpec.from_region(region, 10, 4)
    p = table1_params()
    fgm = fixed_array_gain_map(region, [], grid, p, 1)
    assert fgm.gains.shape == (1, 1, 10, 4)
    dx = grid.x_centers() - 25.0
    dy = grid.y_centers() - 0.0
    d2 = dx[:, None] ** 2 + dy[None, :] ** 2 + 100.0
    assert np.allclose((p.los_ref_gain + p.nlos_power) / fgm.gains[0, 0], d2, rtol=1e-14)
    assert np.allclose(fgm.gains[0, 0], (p.los_ref_gain + p.nlos_power) / d2, rtol=1e-14)


def test_fixed_array_elements_share_visibility_on_bundled():
    # the centimeter-scale element span leaves per-element visibility equal on
    # all but a handful of shadow-boundary cells
    scn = load_bundled("table1").with_grid_scale(0.25)
    p = scn.params
    # with no NLoS power a gain is positive exactly where the LoS ray is present
    los = fixed_array_gain_map(
        scn.region, scn.blockages, scn.grid, dataclasses.replace(p, nlos_power=0.0), scn.layout.count
    ).gains > 0
    cells = los[0].size
    for k in range(1, los.shape[0]):
        assert np.count_nonzero(los[k] != los[0]) <= 1e-3 * cells
    # half-wavelength span stays centimeter-scale at 28 GHz
    assert (4 - 1) * p.wavelength / 2.0 < 0.02


def test_fixed_array_validation():
    region = Region(x_len=50.0, y_len=20.0, height=10.0)
    grid = GridSpec.from_region(region, 4, 4)
    with pytest.raises(ValueError):
        fixed_array_gain_map(region, [], grid, table1_params(), 0)
