"""The separable visibility tensor against the per-segment slab test.

Blockage faces, taps and array elements are snapped to the lattice of grid
cell edges and centres, so taps stand exactly above grid centres (parallel
segments in x) and obstacle faces pass exactly through centres and segment
endpoints (grazing contacts), the cases where a reordered interval test could
round differently. The shadow-window routine is also checked bit for bit
against the full-tensor separable test on random off-lattice point sets.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchplan import (
    Blockage,
    CandidateGrid,
    ChannelParams,
    GeometryError,
    GridSpec,
    Region,
    WaveguideLayout,
    compute_visibility,
    fixed_array_gain_map,
    load_bundled,
    points_visibility,
)
from pinchplan.channel import C_LIGHT
from pinchplan.geometry import _axis_interval, _padded_bounds
from conftest import segment_blocked

# los / valid of bundled table1 at its full 400x120 grid, measured with the
# per-tap slab loop this routine replaced.
TABLE1_LOS_SHA256 = "dfda63e1fc3eda33a12766321d5505eb528b022d709a43e398320511c941afae"
TABLE1_VALID_SHA256 = "3645dfe886255648ea20b1aeac8c83a2cc1b02aa7c813e51d764cd26c99eadd7"
# los of `seeded_hall(7)`, measured with the full-tensor test that
# `full_tensor_visibility` keeps.
HALL7_LOS_SHA256 = "103c418e021988c85235306b2908786dded6c6080b18530a6f2cb939708c7cdb"


def oracle_visibility(points, blockages, grid):
    """los[k, u, v] and valid[u, v] by one segment_blocked call per link."""
    gx, gy = grid.x_centers(), grid.y_centers()
    los = np.ones((len(points), grid.nx, grid.ny), dtype=bool)
    valid = np.ones((grid.nx, grid.ny), dtype=bool)
    for u in range(grid.nx):
        for v in range(grid.ny):
            cell = (gx[u], gy[v], 0.0)
            for k, p in enumerate(points):
                los[k, u, v] = not any(segment_blocked(p, cell, b) for b in blockages)
            valid[u, v] = not any(
                b.x_min <= gx[u] <= b.x_max and b.y_min <= gy[v] <= b.y_max for b in blockages
            )
    return los, valid


def full_tensor_visibility(points, blockages, grid):
    """los[k, u, v] by the separable interval test over the whole (K, nx, ny) tensor."""
    pts = np.asarray(points, dtype=float)
    sx, sy, sz = pts[:, 0:1], pts[:, 1:2], pts[:, 2:3]
    gx, gy = grid.x_centers(), grid.y_centers()
    blocked = np.zeros((len(pts), grid.nx, grid.ny), dtype=bool)
    for blk in blockages:
        x_bounds, y_bounds, z_bounds = _padded_bounds(blk)
        z_lo, z_hi = _axis_interval(sz, 0.0, *z_bounds)
        t_lo = np.maximum(z_lo, 0.0)
        t_hi = np.minimum(z_hi, 1.0)
        x_lo, x_hi = _axis_interval(sx, gx[None, :], *x_bounds)
        y_lo, y_hi = _axis_interval(sy, gy[None, :], *y_bounds)
        x_lo = np.maximum(x_lo, t_lo)
        x_hi = np.minimum(x_hi, t_hi)
        y_lo = np.maximum(y_lo, t_lo)
        y_hi = np.minimum(y_hi, t_hi)
        blocked |= (x_lo[:, :, None] <= y_hi[:, None, :]) & (y_lo[:, None, :] <= x_hi[:, :, None])
    return ~blocked


def seeded_hall(seed):
    """6 waveguides x 16 taps over a 200 x 60 m hall at 400 x 120 cells, 12 seeded cuboids."""
    rng = np.random.default_rng(seed)
    region = Region(x_len=200.0, y_len=60.0, height=10.0)
    layout = WaveguideLayout.uniform(region, 6)
    taps = CandidateGrid.uniform(region, 6, 16)
    blockages = []
    for c in range(6):
        for r in range(2):
            w, d = rng.uniform(5.0, 10.0), rng.uniform(5.0, 12.0)
            x0 = c * 200.0 / 6 + rng.uniform(1.0, 200.0 / 6 - w - 1.0)
            y0 = -30.0 + r * 30.0 + rng.uniform(0.0, 30.0 - d)
            blockages.append(Blockage(x_min=x0, x_max=x0 + w, y_min=y0, y_max=y0 + d,
                                      height=rng.uniform(3.0, 8.0)))
    return layout, taps, blockages, GridSpec.from_region(region, 400, 120)


@st.composite
def off_lattice_points(draw):
    """A small grid, up to 40 points above it and up to 4 boxes, at arbitrary floats.

    Some points stand exactly above a grid centre or a box face, some boxes
    reach past the grid edge, and a box beyond the points' x range casts no
    shadow on any cell.
    """
    nx = draw(st.integers(1, 12))
    ny = draw(st.integers(1, 10))
    region = Region(x_len=draw(st.floats(2.0, 50.0)), y_len=draw(st.floats(2.0, 30.0)), height=10.0)
    grid = GridSpec.from_region(region, nx, ny)
    gx, gy = grid.x_centers().tolist(), grid.y_centers().tolist()
    x_span = st.floats(-0.2 * region.x_len, 1.2 * region.x_len)
    y_span = st.floats(-0.7 * region.y_len, 0.7 * region.y_len)
    blockages = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            x0, x1 = sorted(draw(st.lists(st.one_of(x_span, st.sampled_from(gx)), min_size=2, max_size=2, unique=True)))
        else:  # beyond every point and every cell
            x0 = 1.5 * region.x_len
            x1 = x0 + 1.0
        y0, y1 = sorted(draw(st.lists(st.one_of(y_span, st.sampled_from(gy)), min_size=2, max_size=2, unique=True)))
        blockages.append(Blockage(x_min=x0, x_max=x1, y_min=y0, y_max=y1, height=draw(st.floats(0.5, 9.5))))
    faces_x = gx + [c for b in blockages for c in (b.x_min, b.x_max) if c < 1.5 * region.x_len]
    faces_y = gy + [c for b in blockages for c in (b.y_min, b.y_max)]
    n_points = draw(st.integers(1, 40))
    points = draw(st.lists(
        st.tuples(
            st.one_of(x_span, st.sampled_from(faces_x)),
            st.one_of(y_span, st.sampled_from(faces_y)),
            st.one_of(st.floats(0.5, 12.0), st.just(10.0)),
        ),
        min_size=n_points, max_size=n_points,
    ))
    return np.array(points, dtype=float), blockages, grid


@settings(max_examples=150, deadline=None)
@given(off_lattice_points())
def test_shadow_windows_match_the_full_tensor(case):
    points, blockages, grid = case
    vis = points_visibility(points, blockages, grid)
    assert vis.los.shape == (len(points), grid.nx, grid.ny)
    assert np.array_equal(vis.los, full_tensor_visibility(points, blockages, grid))


def test_seeded_hall_visibility_bytes_pinned():
    layout, taps, blockages, grid = seeded_hall(7)
    points = layout.tap_points(taps)
    vis = compute_visibility(layout, taps, blockages, grid)
    los = np.ascontiguousarray(vis.los)
    assert hashlib.sha256(los.tobytes()).hexdigest() == HALL7_LOS_SHA256
    # 93 points end in a partial chunk
    part = points_visibility(points[:-3], blockages, grid)
    assert np.array_equal(part.los, los.reshape(len(points), grid.nx, grid.ny)[:-3])


@st.composite
def lattice_scenarios(draw):
    nx = draw(st.integers(1, 6))
    ny = draw(st.integers(1, 5))
    cell_x = draw(st.sampled_from([1.0, 2.0, 2.5, 0.3]))
    cell_y = draw(st.sampled_from([1.0, 1.5, 0.7]))
    height = draw(st.sampled_from([4.0, 10.0]))
    region = Region(x_len=nx * cell_x, y_len=ny * cell_y, height=height)
    grid = GridSpec.from_region(region, nx, ny)
    # half-cell lattice: k * cell / 2 for k = 0 .. 2 * cells hits every edge and centre
    xs = [k * cell_x / 2.0 for k in range(2 * nx + 1)]
    ys = [(k / 2.0 - ny / 2.0) * cell_y for k in range(2 * ny + 1)]
    blockages = []
    for _ in range(draw(st.integers(0, 3))):
        x0, x1 = sorted(draw(st.lists(st.sampled_from(xs), min_size=2, max_size=2, unique=True)))
        y0, y1 = sorted(draw(st.lists(st.sampled_from(ys), min_size=2, max_size=2, unique=True)))
        h = draw(st.sampled_from([0.25, 0.5, 0.75])) * height
        blockages.append(Blockage(x_min=x0, x_max=x1, y_min=y0, y_max=y1, height=h))
    n_wg = draw(st.integers(2, 3))
    n_tap = draw(st.integers(1, 3))
    taps = sorted(draw(st.lists(st.sampled_from(xs), min_size=n_tap, max_size=n_tap, unique=True)))
    layout = WaveguideLayout.uniform(region, n_wg)
    cand = CandidateGrid(x_taps=np.tile(taps, (n_wg, 1)))
    return region, layout, cand, blockages, grid


@settings(max_examples=150, deadline=None)
@given(lattice_scenarios())
def test_tap_visibility_matches_per_link_oracle(case):
    region, layout, taps, blockages, grid = case
    vis = compute_visibility(layout, taps, blockages, grid)
    n_wg, n_tap = taps.x_taps.shape
    points = [
        (taps.x_taps[n, m], layout.y_positions()[n], layout.height)
        for n in range(n_wg)
        for m in range(n_tap)
    ]
    los, valid = oracle_visibility(points, blockages, grid)
    assert vis.los.shape == (n_wg, n_tap, grid.nx, grid.ny)
    assert np.array_equal(vis.los.reshape(los.shape), los)
    assert np.array_equal(vis.valid, valid)


@settings(max_examples=100, deadline=None)
@given(lattice_scenarios(), st.integers(1, 4))
def test_fixed_array_visibility_matches_per_link_oracle(case, n_elements):
    region, _, _, blockages, grid = case
    # half-wavelength element spacing equal to the grid's cell height puts the
    # elements on the y lattice; with no NLoS power a gain is positive iff LoS
    freq = C_LIGHT / (2.0 * grid.cell_y)
    params = ChannelParams(freq_hz=freq, tx_power_w=1.0, noise_power_w=1.0, nlos_power=0.0)
    fgm = fixed_array_gain_map(region, blockages, grid, params, n_elements)
    y_el = (np.arange(n_elements) - (n_elements - 1) / 2.0) * (params.wavelength / 2.0)
    points = [(region.x_len / 2.0, y, region.height) for y in y_el]
    los, valid = oracle_visibility(points, blockages, grid)
    assert fgm.gains.shape == (n_elements, 1, grid.nx, grid.ny)
    assert np.array_equal(fgm.gains[:, 0] > 0, los)
    assert np.array_equal(fgm.valid, valid)


def test_table1_visibility_bytes_pinned():
    vis = load_bundled("table1").visibility()
    assert vis.los.shape == (4, 10, 400, 120) and vis.los.dtype == bool
    assert hashlib.sha256(np.ascontiguousarray(vis.los).tobytes()).hexdigest() == TABLE1_LOS_SHA256
    assert hashlib.sha256(vis.valid.tobytes()).hexdigest() == TABLE1_VALID_SHA256


def test_points_visibility_rows_are_the_taps():
    scn = load_bundled("table1").with_grid_scale(0.1)
    vis = compute_visibility(scn.layout, scn.taps, scn.blockages, scn.grid)
    n_wg, n_tap = scn.taps.x_taps.shape
    points = np.stack(
        [scn.taps.x_taps.ravel(), np.repeat(scn.layout.y_positions(), n_tap),
         np.full(n_wg * n_tap, scn.layout.height)],
        axis=1,
    )
    flat = points_visibility(points, scn.blockages, scn.grid)
    assert np.array_equal(flat.los, vis.los.reshape(n_wg * n_tap, scn.grid.nx, scn.grid.ny))
    assert np.array_equal(flat.valid, vis.valid)
    for bad in (points[:, :2], points.ravel()):
        with pytest.raises(GeometryError):
            points_visibility(bad, scn.blockages, scn.grid)
