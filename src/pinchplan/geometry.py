"""Deployment geometry: waveguides on the ceiling, candidate taps, obstacles, floor grid.

Coordinates: x runs along the waveguides (0 .. x_len), y across them
(-y_len/2 .. +y_len/2), z up. Waveguides hang at z = height, receivers sit
at z = 0. Line of sight between a tap and a grid center is decided by exact
segment/cuboid intersection (slab method, closed sets), so the visibility
tensor of a layout is bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Touching an obstacle face or edge counts as blocked; slab bounds are padded
# by this absolute tolerance so exact grazing contacts land inside.
SLAB_TOL = 1e-12

# Points per shadow window in `points_visibility`. Tap rows are waveguide-major
# and sorted in x, so neighbouring points share most of a blockage's shadow.
# Measured per call in interleaved runs on a busy 2-core machine: chunks of
# 2 to 8 points stay within 15% of each other on the 6x16-tap stress grid and
# on table1; 1 point pays the per-window overhead (quarter table1 7.1 against
# 3.1 ms), and one window per blockage tests 41% of the stress tensor, against
# 13% at 8 points (94 against 48 ms).
VIS_CHUNK = 8


class GeometryError(ValueError):
    """A deployment description violates a structural constraint."""


@dataclass(frozen=True)
class Region:
    """Rectangular service area with the waveguide mounting height."""

    x_len: float
    y_len: float
    height: float

    def __post_init__(self) -> None:
        if not (self.x_len > 0 and self.y_len > 0 and self.height > 0):
            raise GeometryError("region x_len, y_len and height must all be positive")


@dataclass(frozen=True)
class WaveguideLayout:
    """Parallel waveguides, uniformly spaced across y at a common height."""

    count: int
    spacing: float
    height: float

    def __post_init__(self) -> None:
        if self.count < 2:
            raise GeometryError("need at least two waveguides")
        if not (self.spacing > 0 and self.height > 0):
            raise GeometryError("waveguide spacing and height must be positive")

    @classmethod
    def uniform(cls, region: Region, count: int) -> "WaveguideLayout":
        if count < 2:
            raise GeometryError("need at least two waveguides")
        return cls(count=count, spacing=region.y_len / (count - 1), height=region.height)

    def y_positions(self) -> np.ndarray:
        """Waveguide y coordinates, first at -y_len/2, last at +y_len/2.

        Computed in the centered form (n - (count-1)/2) * spacing so mirror
        pairs negate exactly in floating point.
        """
        n = np.arange(self.count, dtype=float)
        return (n - (self.count - 1) / 2.0) * self.spacing

    def tap_points(self, taps: CandidateGrid) -> np.ndarray:
        """(count * taps, 3) candidate tap coordinates; row n * taps + m is tap (n, m)."""
        n_wg, n_tap = taps.x_taps.shape
        if n_wg != self.count:
            raise GeometryError("candidate grid row count must match the number of waveguides")
        points = np.empty((n_wg, n_tap, 3))
        points[:, :, 0] = taps.x_taps
        points[:, :, 1] = self.y_positions()[:, None]
        points[:, :, 2] = self.height
        return points.reshape(-1, 3)


@dataclass(frozen=True)
class CandidateGrid:
    """Per-waveguide candidate tap x coordinates, shape (waveguides, taps)."""

    x_taps: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x_taps, dtype=float)
        if x.ndim != 2 or x.shape[1] < 1:
            raise GeometryError("x_taps must be a 2-D array with at least one tap per waveguide")
        if x.shape[1] > 1 and not np.all(np.diff(x, axis=1) > 0):
            raise GeometryError("tap x coordinates must be strictly increasing per waveguide")
        object.__setattr__(self, "x_taps", x)

    @classmethod
    def uniform(cls, region: Region, n_waveguides: int, count: int) -> "CandidateGrid":
        """Cell-centered taps x_m = (m + 1/2) * x_len / count, same on every waveguide."""
        if count < 1:
            raise GeometryError("need at least one candidate tap per waveguide")
        x = (np.arange(count, dtype=float) + 0.5) * (region.x_len / count)
        return cls(x_taps=np.tile(x, (n_waveguides, 1)))

    @property
    def count(self) -> int:
        return int(self.x_taps.shape[1])


@dataclass(frozen=True)
class Blockage:
    """Axis-aligned cuboid obstacle standing on the floor."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    height: float

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise GeometryError("blockage needs x_min < x_max")
        if not self.y_min < self.y_max:
            raise GeometryError("blockage needs y_min < y_max")
        if not self.height > 0:
            raise GeometryError("blockage height must be positive")


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid of cell centers over the region floor."""

    nx: int
    ny: int
    cell_x: float
    cell_y: float

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise GeometryError("grid needs at least one cell per axis")
        if not (self.cell_x > 0 and self.cell_y > 0):
            raise GeometryError("grid cell sizes must be positive")

    @classmethod
    def from_region(cls, region: Region, nx: int, ny: int) -> "GridSpec":
        if nx < 1 or ny < 1:
            raise GeometryError("grid needs at least one cell per axis")
        return cls(nx=nx, ny=ny, cell_x=region.x_len / nx, cell_y=region.y_len / ny)

    def x_centers(self) -> np.ndarray:
        return (np.arange(self.nx, dtype=float) + 0.5) * self.cell_x

    def y_centers(self) -> np.ndarray:
        # centered form: exact +/- mirror pairs in floating point
        v = np.arange(self.ny, dtype=float)
        return (v + 0.5 - self.ny / 2.0) * self.cell_y


@dataclass(frozen=True)
class VisibilityMap:
    """los[n, m, u, v]: tap (n, m) sees grid (u, v); valid[u, v]: center outside footprints."""

    los: np.ndarray
    valid: np.ndarray


def _padded_bounds(blk: Blockage) -> tuple[tuple[float, float], ...]:
    """Closed (lo, hi) extent of the cuboid per axis, padded by SLAB_TOL."""
    return (
        (blk.x_min - SLAB_TOL, blk.x_max + SLAB_TOL),
        (blk.y_min - SLAB_TOL, blk.y_max + SLAB_TOL),
        (-SLAB_TOL, blk.height + SLAB_TOL),
    )


def _axis_interval(start, end, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Parameter interval [t_lo, t_hi] on which start + t*(end - start) lies in [lo, hi].

    Broadcasts over start and end. A segment parallel to the slab gets
    (-inf, inf) when it runs inside it and the empty (inf, -inf) otherwise,
    so no NaN ever reaches the comparisons. A nearly parallel segment's
    parameters may overflow to +-inf, which orders the same way.
    """
    d = np.asarray(end, dtype=float) - start
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = (lo - start) / d
        t2 = (hi - start) / d
    ax_lo = np.minimum(t1, t2)
    ax_hi = np.maximum(t1, t2)
    parallel = d == 0.0
    if np.any(parallel):
        inside = (start >= lo) & (start <= hi)
        ax_lo = np.where(parallel, np.where(inside, -np.inf, np.inf), ax_lo)
        ax_hi = np.where(parallel, np.where(inside, np.inf, -np.inf), ax_hi)
    return ax_lo, ax_hi


def _distinct_pairs(first: np.ndarray, second: np.ndarray):
    """(first value of each distinct pair, a row holding the pair, the pair of every row).

    Each (first, second) row is viewed as one complex number, so np.unique
    sorts and merges the rows without a structured dtype. Rows that compare
    equal share a pair, so 0.0 and -0.0 merge; their slab intervals are the
    same. NaN rows stay apart.
    """
    pairs = np.stack((first, second), axis=1).view(np.complex128).ravel()
    keys, first_row, pair_of = np.unique(
        pairs, return_index=True, return_inverse=True, equal_nan=False
    )
    return keys.real, first_row, pair_of.reshape(-1)


def points_visibility(
    points,
    blockages: tuple[Blockage, ...] | list[Blockage],
    grid: GridSpec,
) -> VisibilityMap:
    """Visibility from arbitrary transmitter points down to every grid center.

    points is a (K, 3) array; the result has los[k, u, v] (K, nx, ny) and the
    footprint mask valid[u, v] of `compute_visibility`. Every grid center
    lies at z = 0, so each segment's slab intervals separate: the x interval
    depends on (x_k, gx[u]) only, the y interval on (y_k, gy[v]) only and
    the z interval on z_k only. A link is blocked when
    max(0, Lz, Lx, Ly) <= min(1, Hz, Hx, Hy), so the per-link work is two
    comparisons of a (K, nx) against a (K, ny) table; max and min are exact
    and order-free on non-NaN values, so this is bit-for-bit the
    per-segment slab test. The x table is computed once per distinct (x, z)
    pair of the points and the y table once per distinct (y, z) pair (taps
    on a lattice share a few), then gathered per point.

    A link whose z-clipped x or y interval is empty is never blocked, so per
    blockage and per chunk of `VIS_CHUNK` points the comparisons run only on
    the box spanned by the first and last column, and the first and last
    row, where some point of the chunk has a non-empty interval: the
    blockage's shadow window. Everything outside it stays unblocked.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise GeometryError("transmitter points must be a (K, 3) array")
    sz = pts[:, 2:3]
    x_pair, x_first, x_of = _distinct_pairs(pts[:, 0], pts[:, 2])
    y_pair, y_first, y_of = _distinct_pairs(pts[:, 1], pts[:, 2])
    gx = grid.x_centers()
    gy = grid.y_centers()
    starts = range(0, len(pts), VIS_CHUNK)

    blocked = np.zeros((len(pts), grid.nx, grid.ny), dtype=bool)
    valid = np.ones((grid.nx, grid.ny), dtype=bool)
    for blk in blockages:
        x_bounds, y_bounds, z_bounds = _padded_bounds(blk)
        z_lo, z_hi = _axis_interval(sz, 0.0, *z_bounds)
        t_lo = np.maximum(z_lo, 0.0)
        t_hi = np.minimum(z_hi, 1.0)
        x_lo, x_hi = _axis_interval(x_pair[:, None], gx[None, :], *x_bounds)
        y_lo, y_hi = _axis_interval(y_pair[:, None], gy[None, :], *y_bounds)
        x_lo = np.maximum(x_lo, t_lo[x_first])[x_of]
        x_hi = np.minimum(x_hi, t_hi[x_first])[x_of]
        y_lo = np.maximum(y_lo, t_lo[y_first])[y_of]
        y_hi = np.minimum(y_hi, t_hi[y_first])[y_of]
        # Blocked iff max(Lx, Ly) <= min(Hx, Hy). Both intervals carry the same
        # z clip, so Lx <= Hy and Ly <= Hx already imply Lx <= Hx and Ly <= Hy,
        # and an empty x or y interval fails one of the two comparisons.
        cols = np.logical_or.reduceat(x_lo <= x_hi, starts, axis=0)
        rows = np.logical_or.reduceat(y_lo <= y_hi, starts, axis=0)
        for k0, col_open, row_open in zip(starts, cols, rows):
            u = np.flatnonzero(col_open)
            v = np.flatnonzero(row_open)
            if u.size == 0 or v.size == 0:
                continue
            ks = slice(k0, k0 + VIS_CHUNK)
            us = slice(u[0], u[-1] + 1)
            vs = slice(v[0], v[-1] + 1)
            hit = x_lo[ks, us, None] <= y_hi[ks, None, vs]
            hit &= y_lo[ks, None, vs] <= x_hi[ks, us, None]
            blocked[ks, us, vs] |= hit
        in_x = (gx >= blk.x_min) & (gx <= blk.x_max)
        in_y = (gy >= blk.y_min) & (gy <= blk.y_max)
        valid &= ~(in_x[:, None] & in_y[None, :])
    return VisibilityMap(los=np.logical_not(blocked, out=blocked), valid=valid)


def compute_visibility(
    layout: WaveguideLayout,
    taps: CandidateGrid,
    blockages: tuple[Blockage, ...] | list[Blockage],
    grid: GridSpec,
) -> VisibilityMap:
    """Evaluate the full tap-to-grid visibility tensor and the footprint mask.

    los[n, m, u, v] is False when any obstacle intersects the segment from
    tap (n, m) down to grid center (u, v); an empty obstacle list gives an
    all-ones tensor. valid[u, v] is False exactly when the center lies inside
    some obstacle footprint (closed intervals). Because every center lies on
    the floor, each segment's slab intervals separate into an x part per
    (tap, column), a y part per (tap, row) and a z part per tap. Per
    obstacle, the two comparisons per link run only inside the shadow
    window of each chunk of neighbouring taps (see `points_visibility`).
    """
    points = layout.tap_points(taps)
    for blk in blockages:
        if not blk.height < layout.height:
            raise GeometryError("blockage height must stay below the waveguide height")
    vis = points_visibility(points, blockages, grid)
    return VisibilityMap(los=vis.los.reshape(*taps.x_taps.shape, grid.nx, grid.ny), valid=vis.valid)
