"""Threshold-coverage activation planning over a precomputed gain map.

The planner picks one active tap per waveguide to maximize the number of
valid grid cells whose average SNR clears a threshold. The selection problem
embeds maximum coverage (so it is NP-hard in general); the workhorse is a
coordinate ascent with a closed-form single-waveguide update, backed by an
exhaustive enumerator for small instances and an LP-file emitter for
external MILP solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, IO

import numpy as np

from .channel import ChannelParams, GainMap, _candidate_matrix, _selection_array, avg_snr

# A field value this close (relatively) below the threshold still counts as
# covered, so closed comparisons survive float roundoff.
COVERAGE_SLACK = 1e-12

# Activations an exhaustive search may score; larger instances are refused.
ENUM_BUDGET = 1_000_000
# Bytes the (waveguide, tap, nx, ny) float64 gain tensor may take; scenarios
# over it are refused before anything is allocated.
TENSOR_BYTES_BUDGET = 1 << 30
DEFAULT_MAX_SWEEPS = 50

# Valid cells per block of LP linking rows: the coefficient block is
# (N*M, _LP_CHUNK) floats, so no full (N*M, V) copy is made.
_LP_CHUNK = 256
# Distinct coefficient texts the LP writer keeps. Gains over a regular grid
# and tap lattice repeat (1.7% of a 6x16-tap stress scenario's coefficients
# are distinct, 2.9% of full table1's), so each text is formatted once. Past
# this many entries the writer drops them and formats the rest of the file
# inline, which bounds memory and the extra work on inputs whose coefficients
# rarely repeat. At the cap the memo takes about 12 MB on a 6x16-tap
# scenario, nearly all of it the texts themselves.
_LP_MEMO_CAP = 1 << 17
# Floats per (taps, cells) block of a tap scan (`_tap_blocks`): 256 KB, well
# inside a 2 MB L2 cache. At a full grid a block is one tap. One block of all
# taps was slower there: 3.5 to 5.8 MB leaves L2, and on full table1 the
# ascent took 14.6 against 11.1 ms and 16 deficit descents 266 against 227 ms
# (2-core machine, 2 MB of L2 per core).
_BLOCK_VALUES = 1 << 15


class BudgetError(RuntimeError):
    """An exhaustive enumeration or a gain tensor would exceed its budget."""


@dataclass(frozen=True)
class Activation:
    """One active tap per waveguide, stored as 0-based tap indices."""

    selected: tuple[int, ...]

    def __post_init__(self) -> None:
        sel = tuple(int(m) for m in self.selected)
        if len(sel) == 0 or any(m < 0 for m in sel):
            raise ValueError("activation needs one non-negative tap index per waveguide")
        object.__setattr__(self, "selected", sel)

    @classmethod
    def centered(cls, n_waveguides: int, n_taps: int) -> "Activation":
        """Middle tap on every waveguide (ceil(n_taps/2) in 1-based terms)."""
        return cls(selected=tuple([(n_taps - 1) // 2] * n_waveguides))

    @classmethod
    def from_one_based(cls, indices) -> "Activation":
        return cls(selected=tuple(int(m) - 1 for m in indices))

    def one_based(self) -> list[int]:
        return [m + 1 for m in self.selected]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.selected, dtype=int)


@dataclass
class CoverageResult:
    activation: Activation
    covered_count: int
    coverage_fraction: float
    snr_field: np.ndarray
    threshold: float
    sweeps_used: int
    method: str


def _check_threshold(threshold: float) -> None:
    if not threshold > 0:
        raise ValueError("SNR threshold must be positive")


def _require_valid(gain_map: GainMap) -> None:
    if not np.any(gain_map.valid):
        raise ValueError("no valid grid cells")


def _covered(field: np.ndarray, threshold: float) -> np.ndarray:
    return field >= threshold * (1.0 - COVERAGE_SLACK)


def coverage_count(selected, gain_map: GainMap, params: ChannelParams, threshold: float) -> int:
    """Number of valid grid cells whose average SNR reaches the threshold."""
    _check_threshold(threshold)
    field = avg_snr(selected, gain_map, params)
    return int(np.count_nonzero(_covered(field, threshold) & gain_map.valid))


def _tap_blocks(n_tap: int, n_cells: int) -> list[slice]:
    """Consecutive slices of range(n_tap), each of at most max(1, _BLOCK_VALUES // n_cells) taps.

    A (taps, cells) block of one slice fits in _BLOCK_VALUES floats, so a
    tap scan runs one elementwise operation per block and the block stays in
    cache for the row reductions that follow. The first slice is the longest.
    """
    step = max(1, _BLOCK_VALUES // n_cells)
    return [slice(start, min(start + step, n_tap)) for start in range(0, n_tap, step)]


def _first_min(keys: np.ndarray) -> int:
    """Where a scan that keeps the first key and takes each strictly smaller one ends.

    That is 0 when keys[0] is NaN (nothing compares below it), else the first
    minimum of the non-NaN keys (a NaN key never wins). argmin settles
    every array without a NaN; it lands on a NaN only when there is one.
    """
    m = int(keys.argmin())
    if np.isnan(keys[m]):
        return 0 if np.isnan(keys[0]) else int(np.nanargmin(keys))
    return m


def _pick_tap(resid_v: np.ndarray, gains_v: np.ndarray, key: Callable, tie_key: Callable, buf: np.ndarray):
    """(tap, key) of the single-waveguide update both coordinate loops share.

    Picks the tap m whose field row resid_v + gains_v[m] has the smallest
    key(row); among the taps tied there, the smallest tie_key(row), then the
    smallest index. Both minima follow `_first_min`. `key` and `tie_key`
    map a (taps, cells) block of field rows to one value per row and may
    overwrite the rows. Keys are taken for every tap, block by block
    (`_tap_blocks`) in `buf`, which holds a waveguide's rows; tie keys only
    for the tied taps, each block gathered into `buf`.
    """
    n_tap, n_cells = gains_v.shape
    keys = np.concatenate([
        key(np.add(resid_v, gains_v[taps], out=buf[: taps.stop - taps.start]))
        for taps in _tap_blocks(n_tap, n_cells)
    ])
    m = _first_min(keys)
    tied = (keys == keys[m]).nonzero()[0]  # empty when keys[m] is NaN
    if len(tied) > 1:
        ties = []
        for rows in _tap_blocks(len(tied), n_cells):
            block = np.take(gains_v, tied[rows], axis=0, out=buf[: rows.stop - rows.start])
            ties.append(tie_key(np.add(resid_v, block, out=block)))
        m = int(tied[_first_min(np.concatenate(ties))])
    return m, keys[m]


def _best_tap(resid_v: np.ndarray, gains_v: np.ndarray, threshold: float, buf=None):
    """(tap, count) maximizing the covered count of the fields resid_v + gains_v[m].

    The `_pick_tap` of the coverage ascent: key -count, tie key -margin,
    where the margin is sum(max(field - threshold, 0)). So ties go to the
    larger margin, then to the smaller tap; a NaN margin never wins, but the
    first tied tap stays when its own margin is NaN. `buf` is scratch of
    gains_v's shape, allocated here when not given.
    """
    thr_eff = threshold * (1.0 - COVERAGE_SLACK)

    def neg_count(rows):
        # an int32 row sum of the hits is about twice as fast as count_nonzero(axis=1)
        return -(rows >= thr_eff).sum(axis=1, dtype=np.int32)

    def neg_margin(rows):
        np.subtract(rows, threshold, out=rows)
        return -np.maximum(rows, 0.0, out=rows).sum(axis=1)

    if buf is None:
        buf = np.empty(gains_v.shape)
    m, key = _pick_tap(resid_v, gains_v, neg_count, neg_margin, buf)
    return m, -int(key)


def _field(gains_v: np.ndarray, sel, out: np.ndarray) -> np.ndarray:
    """Valid-cell field of `sel`, summed in waveguide order like `_score_activations`."""
    np.copyto(out, gains_v[0, sel[0]])  # 0 + g is g, the first partial-sum row
    for n in range(1, len(sel)):
        np.add(out, gains_v[n, sel[n]], out=out)
    return out


def _starts(initial, n_tap: int, restarts: int, seed: int):
    """Start selections of a restarted loop, as lists: `initial`, then seeded uniform draws."""
    yield list(initial)
    rng = np.random.default_rng(seed)
    for _ in range(restarts - 1):
        yield [int(m) for m in rng.integers(0, n_tap, len(initial))]


def _ascent_once(
    sel: list[int],
    gains_v: np.ndarray,
    threshold: float,
    max_sweeps: int,
    on_update: Callable[[int, int, int], None] | None,
) -> int:
    """Coordinate ascent from `sel`, mutating it; returns the sweeps used."""
    n_wg = gains_v.shape[0]
    field_v = _field(gains_v, sel, np.empty(gains_v.shape[2]))
    resid_v = np.empty_like(field_v)
    buf = np.empty(gains_v.shape[1:])
    for sweep in range(1, max_sweeps + 1):
        changed = False
        for n in range(n_wg):
            np.subtract(field_v, gains_v[n, sel[n]], out=resid_v)
            m, count = _best_tap(resid_v, gains_v[n], threshold, buf)
            changed |= m != sel[n]
            sel[n] = m
            np.add(resid_v, gains_v[n, m], out=field_v)
            if on_update is not None:
                on_update(n, m, count)
        if not changed:
            break
    return sweep


def coordinate_ascent(
    initial: Activation,
    gain_map: GainMap,
    params: ChannelParams,
    threshold: float,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    on_update: Callable[[int, int, int], None] | None = None,
    restarts: int = 1,
    seed: int = 0,
) -> CoverageResult:
    """Sweep the waveguides, re-picking each tap against the others' field.

    Every update maximizes the covered count (margin, then smallest index, on
    ties), so the count never decreases. A run stops after a sweep that
    changes nothing, or after `max_sweeps` sweeps; the cap only matters under
    pathological floating-point tie cycles. With `restarts` > 1 additional
    runs start from seeded uniform selections and the best final count wins
    (first winner kept on ties). `on_update(wg, tap, count)` is invoked after
    every single-waveguide update when given.
    """
    _check_threshold(threshold)
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    _require_valid(gain_map)
    _selection_array(initial.selected, gain_map)

    gains_v = _candidate_matrix(gain_map, params)
    thr_eff = threshold * (1.0 - COVERAGE_SLACK)

    field_v = np.empty(gains_v.shape[2])
    best = None  # (count, sel, sweeps)
    for sel in _starts(initial.selected, gain_map.n_taps, restarts, seed):
        sweeps_used = _ascent_once(sel, gains_v, threshold, max_sweeps, on_update)
        count = int(np.count_nonzero(_field(gains_v, sel, field_v) >= thr_eff))
        if best is None or count > best[0]:
            best = (count, sel, sweeps_used)

    _, sel, sweeps_used = best
    act = Activation(selected=tuple(sel))
    return _coverage_result(act, gain_map, params, threshold, sweeps_used, "coordinate_ascent")


def _coverage_result(act, gain_map, params, threshold, sweeps_used, method) -> CoverageResult:
    """The result of planning `act`, its field and count recomputed from the gain map."""
    field = avg_snr(act.as_array(), gain_map, params)
    covered = int(np.count_nonzero(_covered(field, threshold) & gain_map.valid))
    return CoverageResult(
        activation=act,
        covered_count=covered,
        coverage_fraction=covered / int(np.count_nonzero(gain_map.valid)),
        snr_field=field,
        threshold=threshold,
        sweeps_used=sweeps_used,
        method=method,
    )


def _score_activations(
    gain_map: GainMap, params: ChannelParams, score: Callable[[np.ndarray], object], shape=()
) -> np.ndarray:
    """score(valid-cell SNR field) of every activation, in lexicographic order.

    `score` returns one value, or `shape` values (the result is then
    (activations, *shape)). Entry i belongs to `_activation_at(i, gain_map)`,
    so the first argmax of the scores (per column) is the lexicographically
    smallest argmax. Row n+1 of `partial` holds the running sum of
    waveguides 0..n from zero; a new prefix recomputes only the rows from
    its first changed tap on. The field handed to `score` is one reused
    buffer. Refuses with BudgetError, before anything is allocated, when
    there are more than ENUM_BUDGET activations.
    """
    n_wg, n_tap = gain_map.n_waveguides, gain_map.n_taps
    total = n_tap**n_wg
    if total > ENUM_BUDGET:
        raise BudgetError(
            f"exhaustive search needs {total} activations "
            f"({n_tap}^{n_wg}), over the budget of {ENUM_BUDGET}"
        )
    gains_v = _candidate_matrix(gain_map, params)
    n_cells = gains_v.shape[2]
    last = n_wg - 1
    partial = np.zeros((n_wg, n_cells))
    field = np.empty(n_cells)
    scores = np.empty((total, *shape))
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


def _activation_at(index: int, gain_map: GainMap) -> Activation:
    """Activation of entry `index` of the `_score_activations` order."""
    shape = (gain_map.n_taps,) * gain_map.n_waveguides
    return Activation(selected=np.unravel_index(index, shape))


def exact_enumerate(gain_map: GainMap, params: ChannelParams, threshold: float) -> CoverageResult:
    """Exhaustively maximize the covered count (lexicographically smallest argmax)."""
    return _exact_coverages(gain_map, params, [threshold])[0]


def _exact_coverages(gain_map: GainMap, params: ChannelParams, thresholds) -> list[CoverageResult]:
    """`exact_enumerate` at each threshold, from one walk over the activations."""
    for threshold in thresholds:
        _check_threshold(threshold)
    _require_valid(gain_map)
    thr_eff = [threshold * (1.0 - COVERAGE_SLACK) for threshold in thresholds]
    hit = np.empty(int(np.count_nonzero(gain_map.valid)), dtype=bool)

    def counts(field):
        return [np.count_nonzero(np.greater_equal(field, thr, out=hit)) for thr in thr_eff]

    scores = _score_activations(gain_map, params, counts, (len(thr_eff),))
    return [
        _coverage_result(_activation_at(i, gain_map), gain_map, params, threshold, 0, "exact")
        for i, threshold in zip(np.argmax(scores, axis=0).tolist(), thresholds)
    ]


def _one_based_cells(cells: np.ndarray, ny: int):
    """1-based (u, v) of flat cell indices, converted _LP_CHUNK cells at a time."""
    for start in range(0, len(cells), _LP_CHUNK):
        u, v = np.divmod(cells[start : start + _LP_CHUNK], ny)
        yield from zip((u + 1).tolist(), (v + 1).tolist())


def _lp_terms(parts: list[str], per_line: int = 6) -> list[str]:
    lines = []
    for i in range(0, len(parts), per_line):
        lines.append(" ".join(parts[i : i + per_line]))
    return lines


class _TextMemo:
    """'%.17g' texts keyed on float64 bits: sorted uint64 keys and their texts, in step."""

    def __init__(self) -> None:
        self.keys = np.empty(0, np.uint64)
        self.texts = np.empty(0, object)

    def __len__(self) -> int:
        return len(self.keys)


def _coef_texts(block: np.ndarray, memo: _TextMemo) -> np.ndarray:
    """'%.17g' texts of `block.T` (an object array), formatting only bit patterns not in `memo`.

    Keying on the float64 bits keeps every pattern's own text (0.0 and -0.0
    differ). The texts formatted here are merged into `memo` at their sorted
    positions.
    """
    keys, inverse = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
    pos = np.searchsorted(memo.keys, keys)
    hit = pos < len(memo)
    hit[hit] = memo.keys[pos[hit]] == keys[hit]
    texts = np.empty(len(keys), object)
    texts[hit] = memo.texts[pos[hit]]
    miss = ~hit
    if miss.any():
        new = keys[miss]
        texts[miss] = ["%.17g" % x for x in new.view(np.float64).tolist()]
        memo.keys = np.insert(memo.keys, pos[miss], new)
        memo.texts = np.insert(memo.texts, pos[miss], texts[miss])
    return texts[inverse].reshape(block.shape).T


def emit_milp(
    gain_map: GainMap,
    params: ChannelParams,
    threshold: float,
    out: str | IO[str],
) -> None:
    """Write the coverage selection problem as an LP-format MILP file.

    Binary a_<wg>_<tap> pick the taps (exactly one per waveguide), binary
    c_<u>_<v> mark covered cells; each valid cell contributes one linking row
    sum_nm snr_scale*gain * a_n_m - threshold * c_u_v >= 0 (no big-M needed
    since the threshold itself scales the indicator). Names are 1-based.
    Coefficients carry 17 significant digits so parsing the file back
    reproduces them bit-exactly. UTF-8, LF line endings. Refuses a threshold
    that is not positive or a map without valid cells (ValueError) before
    a file is opened.
    """
    _check_threshold(threshold)
    _require_valid(gain_map)
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            emit_milp(gain_map, params, threshold, fh)
        return

    n_wg, n_tap = gain_map.n_waveguides, gain_map.n_taps
    rho = params.snr_scale
    cells = np.flatnonzero(gain_map.valid)
    ny = gain_map.valid.shape[1]
    gains_flat = gain_map.gains.reshape(n_wg * n_tap, -1)

    w = out.write
    w("\\ tap-activation coverage MILP\n")
    w("Maximize\n")
    cell_vars = [f"c_{u}_{v}" for u, v in _one_based_cells(cells, ny)]
    obj = [cell_vars[0]] + [f"+ {name}" for name in cell_vars[1:]]
    for line in _lp_terms(["covered:"] + obj, per_line=8):
        w(f" {line}\n")
    w("Subject To\n")

    def row_template(coef: str) -> str:
        # One %-template per linking row, laid out by the same _lp_terms split;
        # '%.17g' % x formats exactly like f"{x:.17g}".
        parts = ["snr_%d_%d:"]
        parts += [f"+ {coef} a_{n + 1}_{m + 1}" for n in range(n_wg) for m in range(n_tap)]
        parts.append(f"- {threshold:.17g} c_%d_%d")
        parts.append(">= 0")
        return "".join(f" {line}\n" for line in _lp_terms(parts, per_line=4))

    cached_row, inline_row = row_template("%s"), row_template("%.17g")
    memo: _TextMemo | None = _TextMemo()
    for start in range(0, len(cells), _LP_CHUNK):
        chunk = cells[start : start + _LP_CHUNK]
        # float64 whatever the tensor's dtype: widening is exact, so the texts are unchanged
        block = (rho * gains_flat[:, chunk]).astype(np.float64, copy=False)
        # one row of %-arguments per cell: u, v, its coefficients, u, v
        args = np.empty((len(chunk), n_wg * n_tap + 4), dtype=object)
        u, v = np.divmod(chunk, ny)
        args[:, 0] = args[:, -2] = u + 1
        args[:, 1] = args[:, -1] = v + 1
        if memo is None:
            row, coefs = inline_row, block.T
        else:
            row, coefs = cached_row, _coef_texts(block, memo)
            if len(memo) > _LP_MEMO_CAP:
                memo = None
        args[:, 2:-2] = coefs
        w((row * len(chunk)) % tuple(args.ravel().tolist()))
    for n in range(n_wg):
        parts = [f"pick_{n + 1}:", f"a_{n + 1}_1"]
        parts += [f"+ a_{n + 1}_{m + 1}" for m in range(1, n_tap)]
        parts.append("= 1")
        for line in _lp_terms(parts, per_line=8):
            w(f" {line}\n")
    w("Binaries\n")
    tap_vars = [f"a_{n + 1}_{m + 1}" for n in range(n_wg) for m in range(n_tap)]
    for line in _lp_terms(tap_vars + cell_vars, per_line=10):
        w(f" {line}\n")
    w("End\n")
