"""The separable visibility tensor against the per-segment slab test.

Blockage faces, taps and array elements are snapped to the lattice of grid
cell edges and centres, so taps stand exactly above grid centres (parallel
segments in x) and obstacle faces pass exactly through centres and segment
endpoints (grazing contacts), the cases where a reordered interval test could
round differently.
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
    segment_blocked,
)
from pinchplan.channel import C_LIGHT

# los / valid of bundled table1 at its full 400x120 grid, measured with the
# per-tap slab loop this routine replaced.
TABLE1_LOS_SHA256 = "dfda63e1fc3eda33a12766321d5505eb528b022d709a43e398320511c941afae"
TABLE1_VALID_SHA256 = "3645dfe886255648ea20b1aeac8c83a2cc1b02aa7c813e51d764cd26c99eadd7"


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
