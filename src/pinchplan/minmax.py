"""Worst-grid (max-min) activation planning via bisection on the SNR target.

For a target t the total deficit sum_cells max(t - snr, 0) is zero exactly
when every valid cell reaches t, so feasibility of a target reduces to
driving the deficit to zero. A coordinate-descent heuristic does that cheaply
(and soundly: it reports feasible only with a zero-deficit certificate,
never the other way around); bisection over t then brackets the best
achievable worst-grid SNR. Exhaustive variants serve as ground truth on
small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, GainMap, _candidate_matrix, _selection_array, avg_snr
from .coverage import (
    Activation,
    DEFAULT_MAX_SWEEPS,
    _activation_at,
    _require_valid,
    _score_activations,
)

DEFAULT_EPS_T = 1e-3  # linear-SNR bracket width at which bisection stops
DEFAULT_FEAS_RESTARTS = 16  # descent starts per feasibility check (first = caller's initial)


@dataclass
class MinMaxResult:
    activation: Activation
    t_star: float  # achieved worst-grid average SNR, recomputed at return
    bisection_iters: int
    feasibility_evals: int
    exact: bool
    snr_field: np.ndarray


def worst_grid_snr(selected, gain_map: GainMap, params: ChannelParams) -> float:
    """Minimum average SNR over the valid grid cells."""
    _require_valid(gain_map)
    field = avg_snr(selected, gain_map, params)
    return float(field[gain_map.valid].min())


def total_deficit(selected, gain_map: GainMap, params: ChannelParams, target: float) -> float:
    """sum over valid cells of max(target - snr, 0); zero iff target is met."""
    if target < 0:
        raise ValueError("SNR target must be non-negative")
    _require_valid(gain_map)
    field = avg_snr(selected, gain_map, params)
    return float(np.maximum(target - field[gain_map.valid], 0.0).sum())


def _deficit_descent(target: float, gains_v: np.ndarray, sel: list, max_sweeps: int) -> float:
    """Coordinate descent on the total deficit, mutating `sel`; returns the final deficit.

    Each single-waveguide update picks the tap minimizing the updated total
    deficit (ties: smaller worst single-cell deficit, then smallest index),
    so the deficit never increases. Stops on a zero deficit, a sweep with no
    strict deficit decrease, or `max_sweeps` sweeps.
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


def deficit_feasibility(
    target: float,
    gain_map: GainMap,
    params: ChannelParams,
    initial: Activation,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    restarts: int = DEFAULT_FEAS_RESTARTS,
    seed: int = 0,
) -> tuple[bool, Activation]:
    """Try to meet `target` everywhere by coordinate descent on the deficit.

    Runs up to `restarts` descents: the first from `initial`, the rest from
    seeded uniform selections. Returns (True, activation) as soon as one
    reaches a zero deficit, which certifies the target outright, so a True
    verdict is always sound no matter how the starts were chosen; otherwise
    (False, activation) with the lowest-deficit end state (the first start's
    when no deficit compares below it, e.g. NaN), which may be conservative.
    """
    if target < 0:
        raise ValueError("SNR target must be non-negative")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    _require_valid(gain_map)
    _selection_array(initial.selected, gain_map)
    n_wg, n_tap = gain_map.n_waveguides, gain_map.n_taps
    gains_v = _candidate_matrix(gain_map, params)

    rng = np.random.default_rng(seed)
    best_deficit, best_sel = np.inf, None
    for start in range(restarts):
        if start == 0:
            sel = list(initial.selected)
        else:
            sel = [int(m) for m in rng.integers(0, n_tap, n_wg)]
        deficit = _deficit_descent(target, gains_v, sel, max_sweeps)
        if deficit == 0.0:
            return True, Activation(selected=tuple(sel))
        if start == 0 or deficit < best_deficit:
            best_deficit, best_sel = deficit, tuple(sel)
    return False, Activation(selected=best_sel)


def maxmin_upper_bound(gain_map: GainMap, params: ChannelParams) -> float:
    """Upper bound on any activation's worst-grid SNR: each cell takes its best taps."""
    _require_valid(gain_map)
    best_per_wg = gain_map.gains.max(axis=1)  # (N, nx, ny)
    envelope = params.snr_scale * best_per_wg.sum(axis=0)
    return float(envelope[gain_map.valid].min())


def _first_meeting(worst: np.ndarray, target: float, gain_map: GainMap):
    """Exact feasibility: (True, first activation whose worst cell meets target), else (False, None)."""
    meets = worst >= target
    if not meets.any():
        return False, None
    return True, _activation_at(int(np.argmax(meets)), gain_map)


def _maxmin_result(act, gain_map, params, iters, evals, exact) -> MinMaxResult:
    """The result of planning `act`; t_star is the valid minimum of its field."""
    field = avg_snr(act.as_array(), gain_map, params)
    return MinMaxResult(
        activation=act,
        t_star=float(field[gain_map.valid].min()),
        bisection_iters=iters,
        feasibility_evals=evals,
        exact=exact,
        snr_field=field,
    )


def bisection_maxmin(
    gain_map: GainMap,
    params: ChannelParams,
    eps_t: float = DEFAULT_EPS_T,
    initial: Activation | None = None,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    exact_feasibility: bool = False,
    restarts: int = DEFAULT_FEAS_RESTARTS,
    seed: int = 0,
) -> MinMaxResult:
    """Bisect the worst-grid SNR target, returning the last certified activation.

    The bracket starts at [0, per-cell best-tap envelope minimum] and halves
    until its width is at most eps_t (linear SNR), so the iteration count is
    bounded by ceil(log2(t_max / eps_t)). Each feasibility check runs
    `restarts` deficit descents, warm-starting from the last feasible
    activation; with exact_feasibility=True every activation's worst cell is
    scored once per solve (budget-guarded), each check takes the first
    activation (lexicographic) whose score meets the target, and the bracket
    holds the true optimum to eps_t.
    """
    if not eps_t > 0:
        raise ValueError("eps_t must be positive")
    _require_valid(gain_map)
    if initial is None:
        initial = Activation.centered(gain_map.n_waveguides, gain_map.n_taps)
    else:
        _selection_array(initial.selected, gain_map)
    if exact_feasibility:
        worst = _score_activations(gain_map, params, np.min)

    # any activation meets target 0, so the initial selection starts certified
    best = initial
    t_lo, t_hi = 0.0, maxmin_upper_bound(gain_map, params)
    if not math.isfinite(t_hi):
        raise ValueError("SNR upper bound is not finite; check the channel parameters")
    iters = 0
    evals = 0
    while t_hi - t_lo > eps_t:
        t_mid = 0.5 * (t_lo + t_hi)
        if not t_lo < t_mid < t_hi:
            break  # adjacent floats: at large SNR they lie more than eps_t apart
        if exact_feasibility:
            ok, found = _first_meeting(worst, t_mid, gain_map)
        else:
            ok, found = deficit_feasibility(
                t_mid, gain_map, params, best, max_sweeps, restarts, seed + iters
            )
        iters += 1
        evals += 1
        if ok:
            best = found
            t_lo = t_mid
        else:
            t_hi = t_mid

    return _maxmin_result(best, gain_map, params, iters, evals, exact=False)


def exact_maxmin(gain_map: GainMap, params: ChannelParams) -> MinMaxResult:
    """Exhaustively maximize the worst-grid SNR (lexicographically smallest argmax)."""
    _require_valid(gain_map)
    worst = _score_activations(gain_map, params, np.min)
    act = _activation_at(int(np.argmax(worst)), gain_map)
    return _maxmin_result(act, gain_map, params, 0, len(worst), exact=True)
