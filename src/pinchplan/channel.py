"""Free-space channel model and the precomputed per-grid average-gain tensor.

Each tap-to-grid link combines a deterministic line-of-sight ray (blocked or
not, per the visibility tensor) with Rayleigh-faded diffuse scatter.
Under maximum-ratio transmission the per-grid average SNR has the closed form

    snr(u, v) = snr_scale * sum_n gains[n, m_n, u, v]

with gains[n, m, u, v] = (los * los_ref_gain + nlos_power) / d^2, which is
what `precompute_gain_map` tabulates once per scenario. All power quantities
are linear here; dB conversions live at the IO boundary.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

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
        if not self.freq_hz > 0:
            raise ValueError("carrier frequency must be positive")
        if not (self.tx_power_w > 0 and self.noise_power_w > 0):
            raise ValueError("transmit and noise powers must be positive")
        if not (math.isfinite(self.nlos_power) and self.nlos_power >= 0):
            raise ValueError("NLoS power must be a finite non-negative gain")

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


@dataclass(frozen=True)
class GainMap:
    """Per-tap-per-grid average channel gains and the footprint mask."""

    gains: np.ndarray  # (waveguides, taps, nx, ny)
    valid: np.ndarray  # (nx, ny) bool

    @property
    def n_waveguides(self) -> int:
        return int(self.gains.shape[0])

    @property
    def n_taps(self) -> int:
        return int(self.gains.shape[1])


def _point_gains(points: np.ndarray, los: np.ndarray, grid: GridSpec, params: ChannelParams) -> np.ndarray:
    """Average gains (los * los_ref_gain + nlos_power) / d^2, shape (K, nx, ny).

    points is (K, 3) and los the matching (K, nx, ny) visibility. d^2 is built
    in the output array and divided in place, so the only other full-size
    array is the boolean mask of the blocked links.
    """
    px, py, pz = (points[:, i, None, None] for i in range(3))
    dx = grid.x_centers()[None, :, None] - px
    dy = grid.y_centers()[None, None, :] - py
    gains = dx * dx + dy * dy
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
    """Tabulate average gains for every (waveguide, tap, grid) triple."""
    shape = (*taps.x_taps.shape, grid.nx, grid.ny)
    if vis.los.shape != shape:
        raise ValueError("visibility tensor shape does not match layout/taps/grid")
    gains = _point_gains(layout.tap_points(taps), vis.los.reshape(-1, grid.nx, grid.ny), grid, params)
    return GainMap(gains=gains.reshape(shape), valid=vis.valid.copy())


def _scaled_valid_gains(gain_map: GainMap, params: ChannelParams) -> np.ndarray:
    """Scaled gains of every (waveguide, tap) on the valid cells, shape (N, M, V).

    Bit-equal to scaling the boolean-masked tensor, but C-contiguous: a
    boolean mask over the two trailing axes puts the cell axis outermost, so
    every (waveguide, tap) row a solver reads would step over N*M values per
    cell.
    """
    n_wg, n_tap = gain_map.n_waveguides, gain_map.n_taps
    cells = np.flatnonzero(gain_map.valid)
    mat = np.take(gain_map.gains.reshape(n_wg, n_tap, -1), cells, axis=2)
    mat *= params.snr_scale
    return mat


# The open `_shared_matrix` scopes of this thread or task, innermost first:
# (gain map, snr_scale, read-only matrix) tuples.
_SCOPES: ContextVar[tuple] = ContextVar("_SCOPES", default=())


def _candidate_matrix(gain_map: GainMap, params: ChannelParams) -> np.ndarray:
    """The `_scaled_valid_gains` matrix a solver reads: shared inside a scope, else a new copy.

    Inside a `_shared_matrix` scope for this map and `snr_scale` it is the
    scope's read-only array; elsewhere it is built per call, and solvers keep
    no copy past their return.
    """
    for held, scale, mat in _SCOPES.get():
        if held is gain_map and scale == params.snr_scale:
            return mat
    return _scaled_valid_gains(gain_map, params)


@contextmanager
def _shared_matrix(gain_map: GainMap, params: ChannelParams):
    """Scope in which `_candidate_matrix` returns one read-only matrix for this map and scale.

    A solve that runs a solver many times on one map opens it, so the matrix
    is built once. The matrix is held in `_SCOPES`, never on the map, and
    dropped on exit, also when the body raises.
    """
    mat = _scaled_valid_gains(gain_map, params)
    mat.flags.writeable = False
    token = _SCOPES.set(((gain_map, params.snr_scale, mat), *_SCOPES.get()))
    try:
        yield
    finally:
        _SCOPES.reset(token)


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
    field = params.snr_scale * gain_map.gains[0, sel[0]]
    for n in range(1, len(sel)):
        field += params.snr_scale * gain_map.gains[n, sel[n]]
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
    gains = _point_gains(points, vis.los, grid, params)
    return GainMap(gains=gains[:, None], valid=vis.valid)
