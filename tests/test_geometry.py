import numpy as np
import pytest

from pinchplan import (
    Blockage,
    CandidateGrid,
    GeometryError,
    GridSpec,
    Region,
    WaveguideLayout,
    compute_visibility,
    load_bundled,
)
from conftest import random_scenario, segment_blocked, segment_box_distance


def test_waveguide_positions_four_over_sixty():
    region = Region(x_len=200.0, y_len=60.0, height=10.0)
    layout = WaveguideLayout.uniform(region, 4)
    y = layout.y_positions()
    assert np.array_equal(y, [-30.0, -10.0, 10.0, 30.0])
    assert abs(layout.spacing * 3 - 60.0) <= 1e-9 * 60.0


def test_waveguide_mirror_pairs_exact():
    # centered construction makes y[n] == -y[N-1-n] bitwise, odd or even N
    for count in (2, 3, 4, 5, 8):
        region = Region(x_len=50.0, y_len=37.3, height=9.0)
        y = WaveguideLayout.uniform(region, count).y_positions()
        assert np.array_equal(y, -y[::-1])


def test_waveguide_validation():
    region = Region(x_len=10.0, y_len=10.0, height=5.0)
    with pytest.raises(GeometryError):
        WaveguideLayout.uniform(region, 1)
    with pytest.raises(GeometryError):
        WaveguideLayout(count=3, spacing=0.0, height=5.0)


def test_region_validation():
    with pytest.raises(GeometryError):
        Region(x_len=0.0, y_len=10.0, height=5.0)
    with pytest.raises(GeometryError):
        Region(x_len=10.0, y_len=10.0, height=-1.0)


def test_candidate_grid_default_positions():
    region = Region(x_len=200.0, y_len=60.0, height=10.0)
    taps = CandidateGrid.uniform(region, 4, 10)
    assert taps.x_taps.shape == (4, 10)
    assert taps.count == 10
    expect = np.arange(10) * 20.0 + 10.0
    for row in taps.x_taps:
        assert np.allclose(row, expect, rtol=0, atol=1e-12)


def test_candidate_grid_validation():
    with pytest.raises(GeometryError):
        CandidateGrid(x_taps=np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(GeometryError):
        CandidateGrid(x_taps=np.array([[1.0, 1.0, 2.0]]))  # not strictly increasing


def test_candidate_position_and_bounds():
    region = Region(x_len=200.0, y_len=60.0, height=10.0)
    layout = WaveguideLayout.uniform(region, 4)
    taps = CandidateGrid.uniform(region, 4, 10)
    points = layout.tap_points(taps)  # row n * taps + m is tap (n, m)
    assert points.shape == (40, 3)
    assert np.allclose(points[0], [10.0, -30.0, 10.0])
    assert np.allclose(points[3 * 10 + 9], [190.0, 30.0, 10.0])
    with pytest.raises(GeometryError):
        WaveguideLayout.uniform(region, 3).tap_points(taps)


def test_grid_centers():
    region = Region(x_len=10.0, y_len=8.0, height=5.0)
    grid = GridSpec.from_region(region, 5, 4)
    assert np.allclose(grid.x_centers(), [1.0, 3.0, 5.0, 7.0, 9.0])
    y = grid.y_centers()
    assert np.allclose(y, [-3.0, -1.0, 1.0, 3.0])
    assert np.array_equal(y, -y[::-1])
    with pytest.raises(GeometryError):
        GridSpec.from_region(region, 0, 4)


def test_blockage_validation():
    with pytest.raises(GeometryError):
        Blockage(x_min=5.0, x_max=5.0, y_min=0.0, y_max=1.0, height=2.0)
    with pytest.raises(GeometryError):
        Blockage(x_min=0.0, x_max=1.0, y_min=3.0, y_max=2.0, height=2.0)
    with pytest.raises(GeometryError):
        Blockage(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, height=0.0)


BLK = Blockage(x_min=10.0, x_max=18.0, y_min=0.0, y_max=20.0, height=6.0)


def test_segment_misses_y_slab():
    assert not segment_blocked([0.0, -5.0, 10.0], [28.0, -5.0, 0.0], BLK)


def test_segment_vertical_through_interior():
    assert segment_blocked([14.0, 10.0, 10.0], [14.0, 10.0, 0.0], BLK)


def test_segment_descends_into_cuboid():
    # height drops to 6 m at x = 11.2, inside the x-slab
    assert segment_blocked([0.0, 10.0, 10.0], [28.0, 10.0, 0.0], BLK)


def test_segment_grazing_counts_as_blocked():
    # slide along the top face z = 6
    assert segment_blocked([0.0, 10.0, 6.0], [20.0, 10.0, 6.0], BLK)
    # slide along the side face y = 0
    assert segment_blocked([0.0, 0.0, 10.0], [20.0, 0.0, 0.0], BLK)
    # slide down the vertical face x = 10
    assert segment_blocked([10.0, -5.0, 10.0], [10.0, 25.0, 0.0], BLK)
    # same paths shifted off the face by 1 mm must clear
    assert not segment_blocked([0.0, 10.0, 6.001], [20.0, 10.0, 6.001], BLK)
    assert not segment_blocked([0.0, -0.001, 10.0], [20.0, -0.001, 10.0], BLK)


def test_segment_endpoint_inside():
    assert segment_blocked([14.0, 10.0, 3.0], [100.0, 10.0, 3.0], BLK)
    assert segment_blocked([100.0, 10.0, 0.0], [14.0, 10.0, 5.0], BLK)


def test_segment_against_distance_oracle():
    # ternary-search distance to the cuboid is an independent intersection test
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(400):
        lo = rng.uniform([-20, -20, 0], [30, 30, 0.0])
        hi = lo + rng.uniform([1, 1, 1], [25, 25, 9])
        blk = Blockage(x_min=lo[0], x_max=hi[0], y_min=lo[1], y_max=hi[1], height=hi[2])
        start = rng.uniform([-30, -30, 10], [60, 60, 12])
        end = rng.uniform([-30, -30, 0], [60, 60, 0.0])
        dist = segment_box_distance(start, end, lo, hi)
        if dist < 1e-9:
            assert segment_blocked(start, end, blk)
            checked += 1
        elif dist > 1e-6:
            assert not segment_blocked(start, end, blk)
            checked += 1
    assert checked >= 390  # the ambiguous band must stay rare


def _mirror_blockage(blk: Blockage) -> Blockage:
    return Blockage(
        x_min=blk.x_min, x_max=blk.x_max, y_min=-blk.y_max, y_max=-blk.y_min, height=blk.height
    )


def test_visibility_no_blockages():
    region = Region(x_len=40.0, y_len=20.0, height=8.0)
    layout = WaveguideLayout.uniform(region, 3)
    taps = CandidateGrid.uniform(region, 3, 2)
    grid = GridSpec.from_region(region, 6, 4)
    vis = compute_visibility(layout, taps, [], grid)
    assert vis.los.shape == (3, 2, 6, 4)
    assert vis.los.all()
    assert vis.valid.all()


def test_valid_mask_closed_footprint():
    # centers at x = 1,3,5,7,9 and y = -3,-1,1,3; footprint edges land on centers
    region = Region(x_len=10.0, y_len=8.0, height=5.0)
    layout = WaveguideLayout.uniform(region, 2)
    taps = CandidateGrid.uniform(region, 2, 1)
    grid = GridSpec.from_region(region, 5, 4)
    blk = Blockage(x_min=3.0, x_max=7.0, y_min=-1.0, y_max=1.0, height=2.0)
    vis = compute_visibility(layout, taps, [blk], grid)
    inside_x = np.isin(grid.x_centers(), [3.0, 5.0, 7.0])
    inside_y = np.isin(grid.y_centers(), [-1.0, 1.0])
    assert np.array_equal(vis.valid, ~(inside_x[:, None] & inside_y[None, :]))


def test_visibility_mirror_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(20):
        scn = random_scenario(rng)
        vis = compute_visibility(scn.layout, scn.taps, scn.blockages, scn.grid)
        mirrored = [_mirror_blockage(b) for b in scn.blockages]
        vis_m = compute_visibility(scn.layout, scn.taps, mirrored, scn.grid)
        assert np.array_equal(vis_m.los, vis.los[::-1, :, :, ::-1])
        assert np.array_equal(vis_m.valid, vis.valid[:, ::-1])


def test_visibility_growth_monotone():
    rng = np.random.default_rng(22)
    for _ in range(20):
        scn = random_scenario(rng, k_max=2)
        if not scn.blockages:
            continue
        vis = compute_visibility(scn.layout, scn.taps, scn.blockages, scn.grid)
        grown = list(scn.blockages)
        b = grown[0]
        grown[0] = Blockage(
            x_min=b.x_min - 1.0,
            x_max=b.x_max + 1.0,
            y_min=b.y_min - 1.0,
            y_max=b.y_max + 1.0,
            height=min(b.height + 1.0, scn.layout.height - 1e-6),
        )
        vis_g = compute_visibility(scn.layout, scn.taps, grown, scn.grid)
        assert np.all(vis_g.los <= vis.los)
        assert np.all(vis_g.valid <= vis.valid)
        # dropping an obstacle can only reveal more
        vis_d = compute_visibility(scn.layout, scn.taps, scn.blockages[1:], scn.grid)
        assert np.all(vis_d.los >= vis.los)
        assert np.all(vis_d.valid >= vis.valid)


def test_visibility_rejects_tall_blockage():
    region = Region(x_len=20.0, y_len=10.0, height=5.0)
    layout = WaveguideLayout.uniform(region, 2)
    taps = CandidateGrid.uniform(region, 2, 2)
    grid = GridSpec.from_region(region, 4, 4)
    blk = Blockage(x_min=1.0, x_max=2.0, y_min=-1.0, y_max=1.0, height=5.0)
    with pytest.raises(GeometryError):
        compute_visibility(layout, taps, [blk], grid)


def test_visibility_rejects_row_mismatch():
    region = Region(x_len=20.0, y_len=10.0, height=5.0)
    layout = WaveguideLayout.uniform(region, 3)
    taps = CandidateGrid.uniform(region, 2, 2)
    grid = GridSpec.from_region(region, 4, 4)
    with pytest.raises(GeometryError):
        compute_visibility(layout, taps, [], grid)


def test_visibility_deterministic():
    rng = np.random.default_rng(23)
    scn = random_scenario(rng, k_max=2)
    a = compute_visibility(scn.layout, scn.taps, scn.blockages, scn.grid)
    b = compute_visibility(scn.layout, scn.taps, scn.blockages, scn.grid)
    assert np.array_equal(a.los, b.los)
    assert np.array_equal(a.valid, b.valid)


def test_bundled_scenario_partially_blocked():
    scn = load_bundled("table1").with_grid_scale(0.25)
    vis = scn.visibility()
    frac = 1.0 - vis.los.mean()
    assert 0.0 < frac < 1.0
    assert 0.0 < vis.valid.mean() < 1.0
