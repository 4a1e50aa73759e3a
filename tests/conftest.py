"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from pinchplan import (
    Activation,
    ChannelParams,
    GainMap,
    GeometryError,
    avg_snr,
    deficit_feasibility,
    maxmin_upper_bound,
    scenario_from_dict,
)
from pinchplan.channel import _candidate_matrix
from pinchplan.coverage import _check_threshold, _require_valid
from pinchplan.geometry import SLAB_TOL

UNIT_PARAMS = ChannelParams(freq_hz=1e9, tx_power_w=1.0, noise_power_w=1.0, nlos_power=0.0)


class TensorMap(GainMap):
    """A `GainMap` that holds a given (N, M, nx, ny) gain tensor and slices its rows.

    A test builds one from synthetic gains that no tap geometry gives. Its
    channel defaults to unit SNR scale, so its candidate matrix is the
    tensor's valid cells.
    """

    def __init__(self, gains, valid, params=UNIT_PARAMS):
        self.gains, self.valid, self.params = gains, valid, params  # gains shadows the cached property

    n_waveguides = property(lambda self: self.gains.shape[0])
    n_taps = property(lambda self: self.gains.shape[1])

    def _tap_gains(self, n, m, out=None):
        rows = self.gains[n, m].reshape(-1, *self.valid.shape)
        if out is None:
            return np.array(rows, dtype=float)
        out[...] = rows
        return out


def scenario_dict(
    *,
    x_len=80.0,
    y_len=30.0,
    height=10.0,
    waveguides=2,
    taps=3,
    blockages=None,
    nx=8,
    ny=6,
    freq_hz=28.0e9,
    tx_power_dbm=40.0,
    noise_dbm=-70.0,
    nlos_db=-60.0,
    seed=0,
):
    cfg = {
        "version": 1,
        "region": {"x_len": x_len, "y_len": y_len, "height": height},
        "waveguides": waveguides,
        "taps": {"count": taps},
        "grid": {"nx": nx, "ny": ny},
        "channel": {
            "freq_hz": freq_hz,
            "tx_power_dbm": tx_power_dbm,
            "noise_dbm": noise_dbm,
            "nlos_db": nlos_db,
        },
        "solver": {"seed": seed},
    }
    if blockages is not None:
        cfg["blockages"] = blockages
    return cfg


# a 9 m wall across the default 80 m x 30 m hall: it shadows the far cells
# from the first taps
WALL = [{"x_min": 20.0, "x_max": 30.0, "y_min": -15.0, "y_max": 15.0, "height": 9.0}]


def random_blockage(rng, x_len, y_len, max_height):
    # stay a margin inside the region so rounded bounds always validate
    x0 = rng.uniform(0.001, 0.75 * x_len)
    w = rng.uniform(0.05, 0.25) * x_len
    y0 = rng.uniform(-0.5 * y_len + 0.001, 0.25 * y_len)
    d = rng.uniform(0.1, 0.35) * y_len
    return {
        "x_min": round(x0, 6),
        "x_max": round(min(x0 + w, x_len - 0.001), 6),
        "y_min": round(y0, 6),
        "y_max": round(min(y0 + d, 0.5 * y_len - 0.001), 6),
        "height": round(rng.uniform(0.3, 0.9) * max_height, 6),
    }


def random_scenario(rng, *, waveguides=None, taps=None, nx=None, ny=None, k_max=2):
    """Small randomized scenario; redraws until at least one grid cell is valid."""
    while True:
        x_len = round(rng.uniform(40.0, 120.0), 6)
        y_len = round(rng.uniform(20.0, 60.0), 6)
        n = waveguides if waveguides is not None else int(rng.integers(2, 4))
        cfg = scenario_dict(
            x_len=x_len,
            y_len=y_len,
            waveguides=n,
            taps=taps if taps is not None else int(rng.integers(2, 4)),
            nx=nx if nx is not None else int(rng.integers(4, 11)),
            ny=ny if ny is not None else int(rng.integers(3, 11)),
            freq_hz=float(rng.uniform(6.0, 30.0)) * 1e9,
            tx_power_dbm=float(rng.uniform(25.0, 40.0)),
            noise_dbm=float(rng.uniform(-90.0, -60.0)),
            nlos_db=float(rng.uniform(-70.0, -50.0)),
            blockages=[
                random_blockage(rng, x_len, y_len, 10.0)
                for _ in range(int(rng.integers(0, k_max + 1)))
            ],
        )
        scn = scenario_from_dict(cfg)
        if np.count_nonzero(scn.visibility().valid) > 0:
            return scn


def segment_box_distance(start, end, lo, hi, iters=200):
    """Min distance from segment to box, by ternary search on a convex profile.

    Independent of the production slab test: relies only on the fact that the
    distance from a moving point to a convex set is convex along the line.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def dist(t):
        p = start + t * (end - start)
        gap = np.maximum(np.maximum(lo - p, p - hi), 0.0)
        return float(np.sqrt((gap * gap).sum()))

    a, b = 0.0, 1.0
    for _ in range(iters):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if dist(m1) <= dist(m2):
            b = m2
        else:
            a = m1
    return dist(0.5 * (a + b))


def segment_blocked(p_start, p_end, blockage) -> bool:
    """True when the closed segment intersects the closed cuboid (grazing counts).

    Slab method, one axis at a time: the segment is blocked when the
    parameter intervals of its three axes and [0, 1] share a point. Each
    cuboid bound is padded by SLAB_TOL. The interval code is this oracle's
    own, so it stays independent of the `points_visibility` it checks.
    """
    p0 = np.asarray(p_start, dtype=float)
    p1 = np.asarray(p_end, dtype=float)
    if p0.shape != (3,) or p1.shape != (3,):
        raise GeometryError("segment endpoints must be 3-D points")
    b = blockage
    t_lo, t_hi = 0.0, 1.0
    for start, end, lo, hi in zip(p0, p1, (b.x_min, b.y_min, 0.0), (b.x_max, b.y_max, b.height)):
        lo, hi = lo - SLAB_TOL, hi + SLAB_TOL
        d = end - start
        if d == 0.0:  # parallel to the slab: all of t, or none
            if not lo <= start <= hi:
                return False
            continue
        with np.errstate(over="ignore"):
            t1, t2 = (lo - start) / d, (hi - start) / d
        t_lo = max(t_lo, min(t1, t2))
        t_hi = min(t_hi, max(t1, t2))
    return bool(t_lo <= t_hi)


def brute_max_cover(universe_size, subsets, budget):
    """Exhaustive Maximum-Coverage optimum over all budget-sized picks."""
    best = 0
    for pick in combinations(range(len(subsets)), budget):
        union = set()
        for j in pick:
            union |= subsets[j]
        best = max(best, len(union))
    return best


@dataclass(frozen=True)
class MaxCoverInstance:
    """Abstract maximum-coverage instance: pick `budget` subsets, cover elements.

    Elements are 1-based labels 1..n_elements.
    """

    n_elements: int
    subsets: tuple[frozenset[int], ...]
    budget: int

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ValueError("need at least one element")
        subsets = tuple(frozenset(int(e) for e in s) for s in self.subsets)
        if len(subsets) < 1:
            raise ValueError("need at least one subset")
        for s in subsets:
            if any(not 1 <= e <= self.n_elements for e in s):
                raise ValueError(f"subset elements must lie in [1, {self.n_elements}]")
        if not 1 <= self.budget <= len(subsets):
            raise ValueError("budget must lie in [1, number of subsets]")
        object.__setattr__(self, "subsets", subsets)


def encode_max_cover(instance: MaxCoverInstance, threshold: float):
    """Encode a max-coverage instance as (gain map, params) with unit SNR scale.

    One synthetic waveguide per budget slot, one tap per subset, one grid
    cell per element; a tap contributes exactly `threshold` to the cells of
    its subset, so a cell is covered iff some chosen subset contains it and
    the optimal covered counts of the two problems coincide.
    """
    _check_threshold(threshold)
    k, j, g = instance.budget, len(instance.subsets), instance.n_elements
    gains = np.zeros((k, j, g, 1))
    for m, s in enumerate(instance.subsets):
        for e in s:
            gains[:, m, e - 1, 0] = threshold
    return TensorMap(gains, np.ones((g, 1), dtype=bool)), UNIT_PARAMS


def all_activation_fields(gain_map, params):
    """Yield (selection tuple, snr field) for every one-hot activation.

    Recomputes each field from scratch through avg_snr, so it cross-checks
    the incremental sums used by the production enumerators.
    """
    n, m = gain_map.n_waveguides, gain_map.n_taps
    for sel in product(range(m), repeat=n):
        yield sel, avg_snr(np.array(sel), gain_map, params)


def score_activations(gain_map, params, score, shape=()):
    """score(valid-cell SNR field) of every activation, in lexicographic order.

    The field-walk reference for `coverage._coverage_counts`: it forms each
    field by adding the last tap to the running partial sum, in the same
    waveguide order from zero. `score` returns one value, or `shape` values
    (the result is then (activations, *shape)). Entry i belongs to
    `coverage._activation_at(i, gain_map)`. Row n+1 of `partial` holds the
    running sum of waveguides 0..n; a new prefix recomputes only the rows
    from its first changed tap on. The field handed to `score` is one reused
    buffer.
    """
    n_wg, n_tap = gain_map.n_waveguides, gain_map.n_taps
    gains_v = _candidate_matrix(gain_map, params)
    n_cells = gains_v.shape[2]
    last = n_wg - 1
    partial = np.zeros((n_wg, n_cells))
    field = np.empty(n_cells)
    scores = np.empty((n_tap**n_wg, *shape))
    i = 0
    for head in product(range(n_tap), repeat=last):
        # lexicographic order: the last nonzero tap of the prefix moved, later ones reset
        first = max((n for n, m in enumerate(head) if m), default=0)
        for n in range(first, last):
            np.add(partial[n], gains_v[n, head[n]], out=partial[n + 1])
        for m in range(n_tap):
            np.add(partial[last], gains_v[last, m], out=field)
            scores[i] = score(field)
            i += 1
    return scores


def brute_best_coverage(gain_map, params, threshold):
    """(best count, lexicographically smallest argmax selection)."""
    valid = gain_map.valid
    slack = threshold * (1.0 - 1e-12)
    best_count, best_sel = -1, None
    for sel, field in all_activation_fields(gain_map, params):
        count = int(np.count_nonzero((field >= slack) & valid))
        if count > best_count:
            best_count, best_sel = count, sel
    return best_count, Activation(best_sel)


def brute_best_worst(gain_map, params):
    """(best worst-grid SNR, lexicographically smallest argmax selection)."""
    valid = gain_map.valid
    best_val, best_sel = -np.inf, None
    for sel, field in all_activation_fields(gain_map, params):
        worst = float(field[valid].min())
        if worst > best_val:
            best_val, best_sel = worst, sel
    return best_val, Activation(best_sel)


def envelope_quantile(gain_map, params, q):
    """Quantile of the per-cell best-achievable SNR over valid cells."""
    env = params.snr_scale * gain_map.gains.max(axis=1).sum(axis=0)
    return float(np.quantile(env[gain_map.valid], q))


def distance_sq(wg, tap, u, v, layout, taps, grid) -> float:
    """Squared tap-to-grid-center distance (indices 0-based)."""
    if not (0 <= u < grid.nx and 0 <= v < grid.ny):
        raise GeometryError(f"grid index ({u}, {v}) out of range")
    x_tap = taps.x_taps[wg, tap]
    y_wg = layout.y_positions()[wg]
    dx = grid.x_centers()[u] - x_tap
    dy = grid.y_centers()[v] - y_wg
    return float(dx * dx + dy * dy + layout.height**2)


# the guide's effective refractive index: it sets the LoS phase of each draw,
# which the average SNR does not depend on
GUIDE_INDEX = 1.4


def sample_instantaneous_snr(selected, layout, taps, grid, vis, params, seed, n_samples=1):
    """Draw instantaneous post-beamforming SNR fields, shape (n_samples, nx, ny).

    Per sample and per waveguide the active tap's channel is the deterministic
    LoS ray (zeroed when blocked) plus one circularly-symmetric complex
    Gaussian scatter term with variance nlos_power / d^2.
    Maximum-ratio transmission makes the SNR snr_scale * sum_n |h_n|^2.
    Same seed, same arguments: bit-identical output.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    sel = np.asarray(selected, dtype=int)
    if sel.shape != (layout.count,):
        raise ValueError(f"selection must pick one tap per waveguide ({layout.count} entries)")
    n_grid = grid.nx * grid.ny

    x_sel = taps.x_taps[np.arange(layout.count), sel]  # (N,)
    dx = grid.x_centers()[None, :, None] - x_sel[:, None, None]
    dy = grid.y_centers()[None, None, :] - layout.y_positions()[:, None, None]
    dist = np.sqrt(dx * dx + dy * dy + layout.height**2).reshape(layout.count, n_grid)
    los_mask = vis.los[np.arange(layout.count), sel].reshape(layout.count, n_grid)

    guide_wavelength = params.wavelength / GUIDE_INDEX
    phase = (
        -2.0 * np.pi / params.wavelength * dist
        + 2.0 * np.pi / guide_wavelength * x_sel[:, None]
    )
    h_los = np.where(los_mask, math.sqrt(params.los_ref_gain) * np.exp(1j * phase) / dist, 0.0)

    scatter_std = math.sqrt(params.nlos_power / 2.0) / dist  # per real/imag part
    rng = np.random.default_rng(seed)
    out = np.empty((n_samples, n_grid))
    # chunk the sample axis so the draw buffer stays modest
    chunk = max(1, min(n_samples, int(4e6 // max(1, layout.count * n_grid)) + 1))
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        shape = (stop - start, layout.count, n_grid)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h *= scatter_std
        h += h_los
        out[start:stop] = params.snr_scale * (np.abs(h) ** 2).sum(axis=1)
    return out.reshape(n_samples, grid.nx, grid.ny)


def read_map_csv(path):
    """Read back an exported CSV map: (x, y, snr_db, valid) as flat u-major arrays."""
    xs, ys, db, valid = [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "x,y,snr_db,valid":
            raise ValueError(f"unexpected map CSV header: {header!r}")
        for line in fh:
            fx, fy, fdb, fvalid = line.strip().split(",")
            xs.append(float(fx))
            ys.append(float(fy))
            db.append(float(fdb))
            valid.append(bool(int(fvalid)))
    return np.asarray(xs), np.asarray(ys), np.asarray(db), np.asarray(valid)


def total_deficit(selected, gain_map, params, target: float) -> float:
    """sum over valid cells of max(target - snr, 0); zero iff target is met."""
    if target < 0:
        raise ValueError("SNR target must be non-negative")
    _require_valid(gain_map)
    field = avg_snr(selected, gain_map, params)
    return float(np.maximum(target - field[gain_map.valid], 0.0).sum())


def exhaustive_feasibility(gain_map, params):
    """Exact feasibility check for `all_restarts_bisection`.

    Reads every activation's worst valid cell once (through avg_snr); a probe
    meets its target iff some activation reaches it, and then returns the
    first such activation in lexicographic order.
    """
    worsts = [
        (sel, float(field[gain_map.valid].min()))
        for sel, field in all_activation_fields(gain_map, params)
    ]

    def feasibility(target, gm, p, initial, restarts, seed):
        for sel, worst in worsts:
            if worst >= target:
                return True, Activation(sel)
        return False, initial

    return feasibility


def all_restarts_bisection(gm, p, eps_t, seed, feasibility=deficit_feasibility, start=None, t_hi=None):
    """Bisection without a ceiling: every probe asks `feasibility` for all 16 restarts.

    It starts from `start` (default the centred plan) with the bracket
    [0, t_hi] (default `maxmin_upper_bound`).
    """
    best = Activation.centered(gm.n_waveguides, gm.n_taps) if start is None else start
    t_lo = 0.0
    if t_hi is None:
        t_hi = maxmin_upper_bound(gm, p)
    iters = 0
    while t_hi - t_lo > eps_t:
        t_mid = 0.5 * (t_lo + t_hi)
        if not t_lo < t_mid < t_hi:
            break
        ok, found = feasibility(t_mid, gm, p, best, restarts=16, seed=seed + iters)
        iters += 1
        if ok:
            best, t_lo = found, t_mid
        else:
            t_hi = t_mid
    return best, iters


def loop_best_tap(resid_v, gains_v, threshold):
    """(tap, count) of the per-tap scan `coverage._best_tap` replaced.

    The reference for the blocked scan: one tap at a time, the best kept
    while a later tap has a strictly higher count, or the same count and a
    strictly larger margin.
    """
    thr_eff = threshold * (1.0 - 1e-12)
    cand = np.empty_like(resid_v)
    over = np.empty_like(resid_v)
    hit = np.empty(resid_v.shape, dtype=bool)
    best = None
    for m in range(gains_v.shape[0]):
        np.add(resid_v, gains_v[m], out=cand)
        count = int(np.count_nonzero(np.greater_equal(cand, thr_eff, out=hit)))
        np.subtract(cand, threshold, out=over)
        margin = float(np.maximum(over, 0.0, out=over).sum())
        if best is None or count > best[1] or (count == best[1] and margin > best[2]):
            best = (m, count, margin)
    return best[:2]


def loop_deficit_descent(target, gains_v, sel, max_sweeps):
    """The per-tap scan `minmax._deficit_descent` replaced; mutates `sel`.

    The reference for the blocked descent: one tap at a time, the best kept
    while a later tap's (deficit, worst-cell deficit) compares strictly below.
    """
    n_wg, n_tap = gains_v.shape[0], gains_v.shape[1]
    field_v = gains_v[np.arange(n_wg), sel].sum(axis=0)
    deficit = float(np.maximum(target - field_v, 0.0).sum())
    if deficit == 0.0:
        return 0.0

    resid_v = np.empty_like(field_v)
    gap = np.empty_like(field_v)
    for _ in range(max_sweeps):
        improved = False
        for n in range(n_wg):
            np.subtract(field_v, gains_v[n, sel[n]], out=resid_v)
            best = None
            for m in range(n_tap):
                np.add(resid_v, gains_v[n, m], out=gap)
                np.subtract(target, gap, out=gap)
                np.maximum(gap, 0.0, out=gap)
                key = (float(gap.sum()), float(gap.max()))
                if best is None or key < best[1]:
                    best = (m, key)
            m, (new_deficit, _) = best
            sel[n] = m
            np.add(resid_v, gains_v[n, m], out=field_v)
            if new_deficit < deficit:
                improved = True
            deficit = new_deficit
            if deficit == 0.0:
                return 0.0
        if not improved:
            break
    return deficit
