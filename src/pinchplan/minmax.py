"""Worst-grid (max-min) activation planning: bisection on the SNR target, and an exact search.

For a target t the total deficit sum_cells max(t - snr, 0) is zero exactly
when every valid cell reaches t. A coordinate descent on the deficit tests
a target soundly: it reports feasible only with a zero-deficit plan.
Bisection over t brackets the best worst-grid SNR with such tests. A
branch-and-bound search within a node budget returns its best plan, and
certifies it as the optimum when it finishes. It is the exact solver, and
it gives bisection its first start (which meets every probe at or below
its value), its bracket top (the worst cell of `GainMap._envelope_v`) and,
once certified, a ceiling above which no probe can succeed. Every planner
reads its map through the gate of `GainMap._matrix`, whose envelope sum
also bounds the deficit at any target within the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, GainMap, _candidate_matrix, _require_valid, _selection_array, avg_snr
from .coverage import Activation, BudgetError, DEFAULT_MAX_SWEEPS, _field, _pick_tap, _scan_buffer, _starts

DEFAULT_EPS_T = 1e-3  # linear-SNR bracket width at which bisection stops
DEFAULT_FEAS_RESTARTS = 16  # descent starts per feasibility check (first = caller's initial)

# Search-tree nodes the branch-and-bound may bound; a larger search stops
# uncertified (`exact_maxmin` refuses it, bisection starts from its best plan).
BNB_NODE_BUDGET = 2_000_000
# A probe this far (relatively) above the certified optimum runs one descent:
# it cannot succeed, and the margin dwarfs the descent's field rounding.
CEILING_MARGIN = 1e-9
_BNB_CELLS = 1024  # cells per side of the bounding subset


@dataclass
class MinMaxResult:
    activation: Activation
    t_star: float  # achieved worst-grid average SNR, recomputed at return
    bisection_iters: int
    feasibility_evals: int
    exact: bool
    certified: float | None  # the true optimum (linear); None when the search did not finish
    bnb_nodes: int  # nodes the branch-and-bound bounded (both solvers run it)
    upper_bound: float  # `maxmin_upper_bound` (linear): no plan's worst cell exceeds it


def worst_grid_snr(selected, gain_map: GainMap, params: ChannelParams) -> float:
    """Minimum average SNR over the valid grid cells."""
    _require_valid(gain_map)
    field = avg_snr(selected, gain_map, params)
    return float(field[gain_map.valid].min())


def _deficit_descent(target: float, gains_v: np.ndarray, sel: list, max_sweeps: int) -> float:
    """Coordinate descent on the total deficit, mutating `sel`; returns the final deficit.

    Each single-waveguide update is the `_pick_tap` with key the updated
    total deficit and tie key the worst single-cell deficit, so the deficit
    never increases. Stops on a zero deficit, a sweep with no strict deficit
    decrease, or `max_sweeps` sweeps.
    """
    field_v = _field(gains_v, sel, np.empty(gains_v.shape[2]))
    deficit = float(np.maximum(target - field_v, 0.0).sum())
    if deficit == 0.0:
        return 0.0

    def gaps(rows):  # max(target - field, 0) per cell, in place
        return np.maximum(np.subtract(target, rows, out=rows), 0.0, out=rows)

    def total(rows):
        return gaps(rows).sum(axis=1)

    def worst(rows):
        return gaps(rows).max(axis=1)

    resid_v = np.empty_like(field_v)
    buf = _scan_buffer(*gains_v.shape[1:])
    for _ in range(max_sweeps):
        improved = False
        for n in range(len(sel)):
            np.subtract(field_v, gains_v[n, sel[n]], out=resid_v)
            m, new_deficit = _pick_tap(resid_v, gains_v[n], total, worst, buf)
            sel[n] = m
            np.add(resid_v, gains_v[n, m], out=field_v)
            improved |= bool(new_deficit < deficit)
            deficit = float(new_deficit)
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
    (False, activation) with the first lowest-deficit end state, which may be
    conservative.
    """
    if not 0 <= target < math.inf:
        raise ValueError("SNR target must be non-negative and finite")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    _selection_array(initial.selected, gain_map.n_waveguides, gain_map.n_taps)
    gains_v = _candidate_matrix(gain_map, params)

    ends = []
    for sel in _starts(initial.selected, gain_map.n_taps, restarts, seed):
        deficit = _deficit_descent(target, gains_v, sel, max_sweeps)
        if deficit == 0.0:
            return True, Activation(selected=tuple(sel))
        ends.append((deficit, tuple(sel)))
    # min keeps the first of equal deficits, also of deficit sums that overflow to inf
    return False, Activation(selected=min(ends, key=lambda end: end[0])[1])


def maxmin_upper_bound(gain_map: GainMap, params: ChannelParams) -> float:
    """Upper bound on any activation's worst-grid SNR: each cell takes its best taps (`GainMap._envelope_v`)."""
    _candidate_matrix(gain_map, params)  # builds and checks the envelope
    return float(gain_map._envelope_v.min())


def _reach(gains: np.ndarray) -> np.ndarray:
    """Row n: per-cell sum of the best taps of waveguides n.. (row N is zero)."""
    reach = np.zeros((gains.shape[0] + 1, gains.shape[2]))
    for n in range(gains.shape[0] - 1, -1, -1):
        np.add(gains[n].max(axis=0), reach[n + 1], out=reach[n])
    return reach


@dataclass
class _Search:
    activation: Activation  # the best plan found
    value: float  # its worst cell, summed in waveguide order like `coverage._field`
    nodes: int  # search-tree nodes bounded
    leaves: int  # activations scored on every valid cell
    certified: bool  # the search finished, so `value` is the optimum


def _bnb_maxmin(gain_map: GainMap, params: ChannelParams) -> _Search:
    """Search the max-min optimum by depth-first branch-and-bound over waveguides.

    A node fixes the taps of waveguides 0..n-1; its bound is the minimum,
    over a cell subset S, of the partial field plus each later waveguide's
    per-cell best tap. A minimum over a subset is at least the minimum over
    all cells, so the bound holds for every activation below the node.
    The first incumbent is the centred plan; S is the _BNB_CELLS weakest-
    envelope cells and its _BNB_CELLS worst cells. Children are searched best
    bound first. A leaf is checked on S and, if it can still win, scored on
    every valid cell. A node is pruned only when its bound, raised by the
    rounding slack of the envelope sum, lies below the incumbent; an equal
    leaf score keeps the lexicographically smaller activation, so the result
    is the first argmax, in lexicographic order, of every activation's
    worst cell summed in waveguide order (`coverage._field`). Stops, with
    its best plan so far and `certified` false, once more than
    BNB_NODE_BUDGET nodes have been bounded.
    """
    gains_v = _candidate_matrix(gain_map, params)
    n_wg, n_tap, n_cells = gains_v.shape
    k = min(_BNB_CELLS, n_cells)
    in_s = np.zeros(n_cells, dtype=bool)
    in_s[np.argpartition(gain_map._envelope_v, k - 1)[:k]] = True
    best_sel = Activation.centered(n_wg, n_tap).selected
    field = _field(gains_v, best_sel, np.empty(n_cells))
    best = float(field.min())
    in_s[np.argpartition(field, k - 1)[:k]] = True
    cells = np.flatnonzero(in_s)
    gains_s = np.take(gains_v, cells, axis=2)
    # child bound rows of depth n: tap gain plus the reach of the later
    # waveguides (max and sum are elementwise, so this is reach over S)
    child_reach = gains_s + _reach(gains_s)[1:, None, :]
    # The bound sums the partial field and reach[n] in another order than a
    # leaf sums its taps; over N non-negative terms the two roundings differ
    # by well under this factor.
    slack = 1.0 + 4 * n_wg * np.finfo(float).eps
    bounds_buf = np.empty((n_tap, len(cells)))
    last = n_wg - 1
    nodes = leaves = 0
    # entries: (bound, prefix, the parent's partial field on S)
    stack = [(math.inf, (), np.zeros(len(cells)))]
    while stack:
        bound, prefix, partial = stack.pop()
        if bound * slack < best:
            continue
        n = len(prefix)
        if n:
            partial = partial + gains_s[n - 1, prefix[-1]]
        np.add(child_reach[n], partial, out=bounds_buf)
        bounds = bounds_buf.min(axis=1)
        nodes += n_tap
        if nodes > BNB_NODE_BUDGET:
            break
        order = np.argsort(-bounds, kind="stable").tolist()  # best first; ties by tap
        if n < last:
            for m in reversed(order):
                if bounds[m] * slack >= best:
                    stack.append((bounds[m], prefix + (m,), partial))
            continue
        for m in order:  # leaves: bounds[m] is the worst cell of S
            if bounds[m] < best:
                break
            sel = prefix + (m,)
            if bounds[m] == best and sel > best_sel:
                continue
            value = float(_field(gains_v, sel, field).min())
            leaves += 1
            if value > best or (value == best and sel < best_sel):
                best, best_sel = value, sel
    return _Search(Activation(selected=best_sel), best, nodes, leaves, nodes <= BNB_NODE_BUDGET)


def _maxmin_result(act, gain_map, iters, evals, exact, search: _Search) -> MinMaxResult:
    """The result of planning `act`; t_star is its worst cell on the map's matrix (`_field`, bit-equal to `avg_snr`)."""
    gains_v = gain_map._matrix
    return MinMaxResult(
        activation=act,
        t_star=float(_field(gains_v, act.selected, np.empty(gains_v.shape[2])).min()),
        bisection_iters=iters,
        feasibility_evals=evals,
        exact=exact,
        certified=search.value if search.certified else None,
        bnb_nodes=search.nodes,
        upper_bound=float(gain_map._envelope_v.min()),
    )


def bisection_maxmin(
    gain_map: GainMap,
    params: ChannelParams,
    eps_t: float = DEFAULT_EPS_T,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    seed: int = 0,
) -> MinMaxResult:
    """Bisect the worst-grid SNR target, returning the last certified activation.

    The branch-and-bound search runs first. The bracket starts at [0,
    `maxmin_upper_bound`] and halves until its width is at most eps_t (linear SNR), so
    the iteration count is bounded by ceil(log2(t_max / eps_t)). Each
    feasibility check runs DEFAULT_FEAS_RESTARTS deficit descents, the first
    from the last feasible activation, which starts as the search's plan: a
    probe at or below that plan's value succeeds on it with no descent, so
    the plan returned is at least as good. When the search is certified
    (it finished within its node budget), a probe above its optimum by more
    than CEILING_MARGIN cannot succeed, so it runs a single descent of one
    sweep (it still makes its one `deficit_feasibility` call) and the
    bracket's top drops to that ceiling: at most one probe lies above it,
    and the plan is the certified one. Otherwise every probe runs all its
    restarts. The search and every probe read the map's candidate matrix
    (`_candidate_matrix`).
    """
    if not eps_t > 0:
        raise ValueError("eps_t must be positive")

    search = _bnb_maxmin(gain_map, params)
    best, t_lo, t_hi = search.activation, 0.0, maxmin_upper_bound(gain_map, params)
    ceiling = search.value * (1 + CEILING_MARGIN) if search.certified else math.inf
    iters = 0
    while t_hi - t_lo > eps_t:
        t_mid = 0.5 * (t_lo + t_hi)
        if not t_lo < t_mid < t_hi:
            break  # adjacent floats: at large SNR they lie more than eps_t apart
        # a probe above the ceiling cannot succeed: one start of one sweep
        below = t_mid <= ceiling
        ok, found = deficit_feasibility(
            t_mid, gain_map, params, best,
            max_sweeps if below else 1, DEFAULT_FEAS_RESTARTS if below else 1, seed + iters,
        )
        iters += 1
        if ok:
            best = found
            t_lo = t_mid
        else:
            t_hi = min(t_mid, ceiling)

    return _maxmin_result(best, gain_map, iters, iters, exact=False, search=search)


def exact_maxmin(gain_map: GainMap, params: ChannelParams) -> MinMaxResult:
    """Maximize the worst-grid SNR by branch-and-bound (lexicographically smallest argmax).

    `feasibility_evals` counts the activations scored on every valid cell.
    Refuses with BudgetError when the search needs more than BNB_NODE_BUDGET
    nodes.
    """
    search = _bnb_maxmin(gain_map, params)
    if not search.certified:
        raise BudgetError(f"branch-and-bound search needs more than {BNB_NODE_BUDGET} nodes")
    return _maxmin_result(search.activation, gain_map, 0, search.leaves, exact=True, search=search)
