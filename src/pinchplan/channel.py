"""Free-space channel model and the per-grid average gains of every candidate tap.

Each tap-to-grid link combines a deterministic line-of-sight ray (blocked or
not, per the visibility tensor) with Rayleigh-faded diffuse scatter.
Under maximum-ratio transmission the per-grid average SNR has the closed form

    snr(u, v) = snr_scale * sum_n gains[n, m_n, u, v]

with gains[n, m, u, v] = (los * los_ref_gain + nlos_power) / d^2. A
`GainMap` holds the tap points and their visibility, decided once per
scenario, and computes gains from them one tap row at a time: the solvers
read one (waveguide, tap, valid-cell) matrix per map, at its own SNR scale
and checked where it is built, `avg_snr` gives the whole-grid field a product
needs, and only `gainmap.npz` builds the full (waveguide, tap, nx, ny) tensor
(`GainMap.gains`). Powers are linear here; dB lives at the IO boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    Blockage,
    CandidateGrid,
    GridSpec,
    Region,
    VisibilityMap,
    WaveguideLayout,
    points_visibility,
)

C_LIGHT = 299_792_458.0  # m/s, exact
# Floats per (taps, cells) block (`_tap_blocks`): 256 KB, well inside a 2 MB
# L2 cache. The tap scans of `coverage._pick_tap` and the whole-grid gain rows
# of `_scaled_valid_gains` run one block at a time. At a full grid a block is
# one tap. One block of all taps was slower there: 3.5 to 5.8 MB leaves L2,
# and on full table1 the ascent took 14.6 against 11.1 ms and 16 deficit
# descents 266 against 227 ms (2-core machine, 2 MB of L2 per core).
_BLOCK_VALUES = 1 << 15


def _pow10(exponent: float, value: float, unit: str) -> float:
    try:
        out = 10.0 ** float(exponent)
    except OverflowError:
        out = math.inf
    if out == math.inf:
        raise ValueError(f"{float(value):g} {unit} is too large: its linear value overflows")
    return out


def db_to_linear(value_db: float) -> float:
    """10^(value_db/10); ValueError when the result overflows a float."""
    return _pow10(value_db / 10.0, value_db, "dB")


def linear_to_db(value: float) -> float:
    """10*log10(value); ValueError for a value <= 0, such as a zero average SNR."""
    if not value > 0:
        raise ValueError(
            f"an average SNR of {value:g} has no dB value (a valid cell has zero average SNR)"
        )
    return 10.0 * math.log10(value)


def dbm_to_watt(value_dbm: float) -> float:
    """10^((value_dbm - 30)/10) W; ValueError when the result overflows a float."""
    return _pow10((value_dbm - 30.0) / 10.0, value_dbm, "dBm")


@dataclass(frozen=True)
class ChannelParams:
    """Carrier, power and scatter parameters with the derived link constants.

    Attributes
    ----------
    freq_hz : carrier frequency.
    tx_power_w, noise_power_w : transmit power and noise power, linear watts.
    nlos_power : average diffuse scatter gain at 1 m (dimensionless).

    The closed-form average SNR has no phase term, so the waveguide's
    refractive index is not a parameter here.
    """

    freq_hz: float
    tx_power_w: float
    noise_power_w: float
    nlos_power: float

    def __post_init__(self) -> None:
        if not 0 < self.freq_hz < math.inf:
            raise ValueError("carrier frequency must be positive and finite")
        if not (0 < self.tx_power_w < math.inf and 0 < self.noise_power_w < math.inf):
            raise ValueError("transmit and noise powers must be positive and finite")
        if self.snr_scale == math.inf:
            raise ValueError(f"the power ratio {self.tx_power_w:g} W / {self.noise_power_w:g} W overflows a float")
        if not (math.isfinite(self.nlos_power) and self.nlos_power >= 0):
            raise ValueError("NLoS power must be a finite non-negative gain")
        try:
            los_ref_gain = self.los_ref_gain
        except OverflowError:
            los_ref_gain = math.inf
        if los_ref_gain == math.inf:
            raise ValueError(f"the free-space gain at 1 m of a {self.freq_hz:g} Hz carrier overflows a float")

    @classmethod
    def from_db(cls, freq_hz: float, tx_power_dbm: float, noise_dbm: float, nlos_db: float) -> "ChannelParams":
        """Build from the usual dB inputs."""
        return cls(
            freq_hz=freq_hz,
            tx_power_w=dbm_to_watt(tx_power_dbm),
            noise_power_w=dbm_to_watt(noise_dbm),
            nlos_power=db_to_linear(nlos_db),
        )

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.freq_hz

    @property
    def los_ref_gain(self) -> float:
        """Free-space power gain at 1 m, (wavelength / 4 pi)^2."""
        return (self.wavelength / (4.0 * math.pi)) ** 2

    @property
    def snr_scale(self) -> float:
        """Transmit SNR tx_power / noise_power."""
        return self.tx_power_w / self.noise_power_w


class GainMap:
    """Average channel gains of every (waveguide, tap) on the grid, and the footprint mask.

    Built from tap points (N, M, 3), their visibility `los` (N, M, nx, ny;
    held, not copied), the grid and the channel `params`, it computes gains
    a tap row at a time (`_tap_gains`), bit for bit the rows of the eager
    `_point_gains` tensor. Solvers read its one matrix, scaled by
    params.snr_scale, and its per-cell best-tap sum `_envelope_v`, built on
    first use and kept (`_candidate_matrix`); `gains`, the full unscaled
    tensor, is built on first access.
    """

    def __init__(self, *, valid, points, los, grid, params):
        self.valid, self.points, self.los, self.grid, self.params = valid, points, los, grid, params

    @cached_property
    def gains(self) -> np.ndarray:
        gains = _point_gains(self.points.reshape(-1, 3), self.los.reshape(-1, *self.valid.shape), self.grid, self.params)
        return gains.reshape(self.los.shape)

    @cached_property
    def _matrix(self) -> np.ndarray:
        """The read-only `_scaled_valid_gains` matrix; keeps its `_envelope` as `_envelope_v`.

        Refuses (ValueError) a non-finite envelope. No field of the non-negative
        gains exceeds it, so no count, margin or deficit a solver compares is NaN.
        """
        with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
            mat = _scaled_valid_gains(self, self.params.snr_scale)
            envelope = _envelope(mat)
        if not np.isfinite(envelope).all():
            raise ValueError("the gain map's best-tap SNR sum is not finite on a valid cell (a NaN or overflowing gain)")
        mat.flags.writeable = envelope.flags.writeable = False
        self._envelope_v = envelope
        return mat

    @property
    def n_waveguides(self) -> int:
        return int(self.los.shape[0])

    @property
    def n_taps(self) -> int:
        return int(self.los.shape[1])

    def _tap_gains(self, n, m, out=None) -> np.ndarray:
        """Unscaled gains of taps (n, m) on the whole grid, a (K, nx, ny) array: `out` when given, else new.

        n and m index the (waveguide, tap) axes as numpy indices do: index
        arrays pick the taps (n[k], m[k]), and an int n with a slice m a block
        of one waveguide's taps, whose visibility is then a view.
        """
        los = self.los[n, m].reshape(-1, *self.valid.shape)
        return _point_gains(self.points[n, m].reshape(-1, 3), los, self.grid, self.params, out)


def _tap_blocks(n_tap: int, n_cells: int) -> list[slice]:
    """Consecutive slices of range(n_tap), each of at most max(1, _BLOCK_VALUES // n_cells) taps.

    A (taps, cells) block of one slice fits in _BLOCK_VALUES floats, so a
    tap scan runs one elementwise operation per block and the block stays in
    cache for the row reductions that follow. The first slice is the longest.
    """
    step = max(1, _BLOCK_VALUES // n_cells)
    return [slice(start, min(start + step, n_tap)) for start in range(0, n_tap, step)]


def _point_gains(points: np.ndarray, los: np.ndarray, grid: GridSpec, params: ChannelParams, out=None) -> np.ndarray:
    """Average gains (los * los_ref_gain + nlos_power) / d^2, shape (K, nx, ny), in `out` when given.

    points is (K, 3) and los the matching (K, nx, ny) visibility. d^2 is built
    in the output array and divided in place, so the only other full-size
    array is the boolean mask of the blocked links.
    """
    px, py, pz = (points[:, i, None, None] for i in range(3))
    dx = grid.x_centers()[None, :, None] - px
    dy = grid.y_centers()[None, None, :] - py
    gains = np.add(dx * dx, dy * dy, out=out)
    gains += pz * pz
    np.divide(params.los_ref_gain + params.nlos_power, gains, out=gains, where=los)
    np.divide(params.nlos_power, gains, out=gains, where=~los)
    return gains


def precompute_gain_map(
    layout: WaveguideLayout,
    taps: CandidateGrid,
    grid: GridSpec,
    vis: VisibilityMap,
    params: ChannelParams,
) -> GainMap:
    """The gain map of every (waveguide, tap, grid) triple: tap points and visibility, gains on demand."""
    shape = (*taps.x_taps.shape, grid.nx, grid.ny)
    if vis.los.shape != shape:
        raise ValueError("visibility tensor shape does not match layout/taps/grid")
    points = layout.tap_points(taps).reshape(*taps.x_taps.shape, 3)
    return GainMap(valid=vis.valid.copy(), points=points, los=vis.los, grid=grid, params=params)


def _scaled_valid_gains(gain_map: GainMap, snr_scale: float) -> np.ndarray:
    """Scaled gains of every (waveguide, tap) on the valid cells, shape (N, M, V), C-contiguous.

    Built one `_tap_blocks` block of a waveguide's taps at a time (one tap at
    a full grid): the block's whole-grid rows in one reused buffer, then
    their valid cells, scaled in place. Bit-equal to scaling the masked
    tensor, as both are elementwise, with no tensor beside the matrix.
    """
    valid = gain_map.valid
    cells = np.flatnonzero(valid)
    mat = np.empty((gain_map.n_waveguides, gain_map.n_taps, len(cells)))
    blocks = _tap_blocks(mat.shape[1], valid.size)
    buf = np.empty((blocks[0].stop, *valid.shape))
    for n in range(mat.shape[0]):
        for taps in blocks:
            rows = mat[n, taps]
            block = gain_map._tap_gains(n, taps, out=buf[: len(rows)])
            np.take(block.reshape(len(rows), -1), cells, axis=1, out=rows)
            rows *= snr_scale
    return mat


def _envelope(gains_v: np.ndarray) -> np.ndarray:
    """Per valid cell, each waveguide's best tap summed in waveguide order (`coverage._field`): no field exceeds it."""
    envelope = gains_v[0].max(axis=0)
    for n in range(1, gains_v.shape[0]):
        envelope += gains_v[n].max(axis=0)
    return envelope


def _candidate_matrix(gain_map: GainMap, params: ChannelParams) -> np.ndarray:
    """The map's read-only `_scaled_valid_gains` matrix, built and checked on the first call and kept.

    A solver plans at the SNR scale its map was built for: params at any
    other snr_scale are refused (ValueError), as is a non-finite map
    (`GainMap._matrix`). A plan's field at another power is `avg_snr`.
    """
    if params.snr_scale != gain_map.params.snr_scale:
        raise ValueError(f"the gain map is scaled for an SNR of {gain_map.params.snr_scale:g}, not {params.snr_scale:g}")
    return gain_map._matrix


def _selection_array(selected, n_waveguides: int, n_taps: int) -> np.ndarray:
    """`selected` as an int array, refused unless it picks one of `n_taps` taps per waveguide."""
    sel = np.asarray(selected)
    if sel.shape != (n_waveguides,):
        raise ValueError(f"selection must pick one tap per waveguide ({n_waveguides} entries)")
    # before the int conversion, which overflows on an index past int64
    if np.any(sel < 0) or np.any(sel >= n_taps):
        raise ValueError(f"tap indices must lie in [0, {n_taps})")
    return sel.astype(int, copy=False)


def avg_snr(selected, gain_map: GainMap, params: ChannelParams) -> np.ndarray:
    """Per-grid average SNR field for one tap selection (one tap per waveguide).

    Each tap's gains are scaled, then added in waveguide order, as the solvers
    sum `_candidate_matrix` rows, so a plan's worst cell is bit-equal to the
    score a solver gave it.
    """
    sel = _selection_array(selected, gain_map.n_waveguides, gain_map.n_taps)
    rows = gain_map._tap_gains(np.arange(len(sel)), sel)
    rows *= params.snr_scale
    field = rows[0].copy()
    for row in rows[1:]:
        field += row
    return field


def fixed_array_gain_map(
    region: Region,
    blockages: tuple[Blockage, ...] | list[Blockage],
    grid: GridSpec,
    params: ChannelParams,
    n_elements: int,
) -> GainMap:
    """Gain map of the conventional baseline: a half-wavelength-spaced array.

    n_elements antennas sit at the region center (x_len/2, 0, height), spread
    along y at wavelength/2 spacing. There is nothing to select, so the map
    has a single tap per element and the baseline field is
    avg_snr([0]*n_elements, ...).
    """
    if n_elements < 1:
        raise ValueError("need at least one array element")
    e = np.arange(n_elements, dtype=float)
    y_el = (e - (n_elements - 1) / 2.0) * (params.wavelength / 2.0)

    points = np.empty((n_elements, 3))
    points[:, 0] = region.x_len / 2.0
    points[:, 1] = y_el
    points[:, 2] = region.height
    vis = points_visibility(points, blockages, grid)
    return GainMap(valid=vis.valid, points=points[:, None], los=vis.los[:, None], grid=grid, params=params)
