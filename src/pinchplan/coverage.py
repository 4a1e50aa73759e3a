"""Threshold-coverage activation planning over a precomputed gain map.

The planner picks one active tap per waveguide to maximize the number of
valid grid cells whose average SNR clears a threshold. The selection problem
embeds maximum coverage (so it is NP-hard in general); the workhorse is a
coordinate ascent with a closed-form single-waveguide update, backed by an
exhaustive enumerator for small instances and an LP-file emitter for
external MILP solvers.

The enumerator walks every activation over cache-sized blocks of valid
cells. At one threshold it compares each partial sum with exact last-tap
thresholds (`_last_tap_thresholds`) instead of adding the last tap, which
gives the same counts bit for bit; at several thresholds it adds the last
tap once and compares the field with each.

The LP emitter writes each block of linking rows as one string join. A
row's fixed text is split once into fragments around its per-cell texts
(cell indices and coefficients), and each distinct coefficient bit
pattern is formatted once and looked up in a hash table (`_TextMemo`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, IO

import numpy as np

from .channel import ChannelParams, GainMap, _candidate_matrix, _selection_array, _tap_blocks, avg_snr

# A field value this close (relatively) below the threshold still counts as
# covered, so closed comparisons survive float roundoff.
COVERAGE_SLACK = 1e-12

# Activations an exhaustive search may score, and taps a restarted ascent may
# score per sweep; larger instances are refused.
ENUM_BUDGET = 1_000_000
# Bytes the (waveguide, tap, nx, ny) float64 gain tensor, or the random draws'
# fields, may take; inputs over it are refused before anything is allocated.
TENSOR_BYTES_BUDGET = 1 << 30
DEFAULT_MAX_SWEEPS = 50

# Valid cells per block of LP linking rows: the coefficient block is
# (N*M, _LP_CHUNK) floats and the row block an (_LP_CHUNK, 2*N*M + 9) object
# array of text pieces, joined into one write, so no full (N*M, V) copy of
# either is made.
_LP_CHUNK = 256
# Distinct coefficient texts the LP writer keeps. Gains over a regular grid
# and tap lattice repeat (1.7% of a 6x16-tap stress scenario's coefficients
# are distinct, 2.9% of full table1's), so each text is formatted once. A
# block's new texts that would take the table past this many are formatted
# but not stored, which bounds memory on inputs whose coefficients rarely
# repeat; texts already stored are still looked up. The table may hold
# the smaller of this cap and the file's coefficient count, in the least
# power of two of slots at least twice that: 2**18 slots of 17 bytes (4.5 MB)
# on full table1 and stress, 2**18 on quarter table1 (111k coefficients).
# The texts themselves take about 67 bytes each (4.8 MB for stress's 71,480).
_LP_MEMO_CAP = 1 << 17
# Valid cells per block of the exhaustive coverage walk (`_coverage_counts`).
# A block's rows of the last two waveguides, its field or table and its hits
# stay in a 2 MB L2 cache. On full table1 (2 cores, in-process A/B against a
# walk over all cells at once) 6144 cells beat 4096 and 8192 with three
# thresholds, where 8192 was no faster than no blocks at all.
_WALK_CELLS = 6144
# Cells per chunk of a block's threshold table build, which bounds its
# temporaries (some twenty (taps, chunk) arrays).
_TABLE_CHUNK = 2048
_MAGNITUDE_BITS = np.int64((1 << 63) - 1)  # every bit of a float64 but the sign


class BudgetError(RuntimeError):
    """Work over a budget, refused before it starts: activations or restarted-ascent taps
    to score, gain-tensor, random-draw or per-threshold bytes, or branch-and-bound nodes.
    """


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
    threshold: float
    sweeps_used: int
    method: str


def _check_threshold(threshold: float) -> None:
    if not 0 < threshold < np.inf:
        raise ValueError("SNR threshold must be positive and finite")


def _covered(field: np.ndarray, threshold: float) -> np.ndarray:
    return field >= threshold * (1.0 - COVERAGE_SLACK)


def coverage_count(selected, gain_map: GainMap, params: ChannelParams, threshold: float) -> int:
    """Number of valid grid cells whose average SNR reaches the threshold."""
    _check_threshold(threshold)
    field = avg_snr(selected, gain_map, params)
    return int(np.count_nonzero(_covered(field, threshold) & gain_map.valid))


def _scan_buffer(n_tap: int, n_cells: int) -> np.ndarray:
    """Scratch for the tap scans of `_pick_tap`: the rows of one full `_tap_blocks` block.

    At a full grid that is one tap's row, not every tap's (0.36 against
    5.8 MB for 16 taps of 45k cells).
    """
    first = _tap_blocks(n_tap, n_cells)[0]
    return np.empty((first.stop - first.start, n_cells))


def _pick_tap(resid_v: np.ndarray, gains_v: np.ndarray, key: Callable, tie_key: Callable, buf: np.ndarray):
    """(tap, key) of the single-waveguide update both coordinate loops share.

    Picks the tap m whose field row resid_v + gains_v[m] has the smallest
    key(row); among the taps tied there, the smallest tie_key(row), then the
    smallest index. `key` and `tie_key` map a (taps, cells) block of field
    rows to one number per row (`GainMap._matrix`) and may overwrite the
    rows. Keys are taken for every tap, block by block (`_tap_blocks`), each
    block's rows formed in `buf`; tie keys only for the tied taps, each
    block of them gathered into `buf`. So `buf` holds one block
    (`_scan_buffer`), never more rows than the first block's.
    """
    n_tap, n_cells = gains_v.shape
    keys = np.concatenate([
        key(np.add(resid_v, gains_v[taps], out=buf[: taps.stop - taps.start]))
        for taps in _tap_blocks(n_tap, n_cells)
    ])
    m = int(keys.argmin())
    tied = (keys == keys[m]).nonzero()[0]
    if len(tied) > 1:
        ties = []
        for rows in _tap_blocks(len(tied), n_cells):
            block = np.take(gains_v, tied[rows], axis=0, out=buf[: rows.stop - rows.start])
            ties.append(tie_key(np.add(resid_v, block, out=block)))
        m = int(tied[np.concatenate(ties).argmin()])
    return m, keys[m]


def _best_tap(resid_v: np.ndarray, gains_v: np.ndarray, threshold: float, buf=None):
    """(tap, count) maximizing the covered count of the fields resid_v + gains_v[m].

    The `_pick_tap` of the coverage ascent: key -count, tie key -margin,
    where the margin is sum(max(field - threshold, 0)). So ties go to the
    larger margin, then to the smaller tap. `buf` is the scan's scratch
    (`_scan_buffer`), allocated here when not given.
    """
    thr_eff = threshold * (1.0 - COVERAGE_SLACK)

    def neg_count(rows):
        # an int32 row sum of the hits is about twice as fast as count_nonzero(axis=1)
        return -(rows >= thr_eff).sum(axis=1, dtype=np.int32)

    def neg_margin(rows):
        np.subtract(rows, threshold, out=rows)
        return -np.maximum(rows, 0.0, out=rows).sum(axis=1)

    if buf is None:
        buf = _scan_buffer(*gains_v.shape)
    m, key = _pick_tap(resid_v, gains_v, neg_count, neg_margin, buf)
    return m, -int(key)


def _field(gains_v: np.ndarray, sel, out: np.ndarray) -> np.ndarray:
    """Valid-cell field of `sel`, summed in waveguide order from zero like `_coverage_counts`."""
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
    buf = _scan_buffer(*gains_v.shape[1:])
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
    every single-waveguide update when given. Refuses with BudgetError, before
    the first run, when the runs would score more than ENUM_BUDGET taps per
    sweep (restarts * N * M).
    """
    _check_threshold(threshold)
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    n_wg, n_tap = gain_map.n_waveguides, gain_map.n_taps
    if restarts * n_wg * n_tap > ENUM_BUDGET:
        # the factors, not their product: Python formats no int of over 4,300 digits
        raise BudgetError(
            f"{restarts} ascent restarts of {n_wg}x{n_tap} taps score over the budget of {ENUM_BUDGET} per sweep"
        )
    _selection_array(initial.selected, n_wg, n_tap)

    gains_v = _candidate_matrix(gain_map, params)
    thr_eff = threshold * (1.0 - COVERAGE_SLACK)

    field_v = np.empty(gains_v.shape[2])
    best = None  # (count, sel, sweeps)
    for sel in _starts(initial.selected, n_tap, restarts, seed):
        sweeps_used = _ascent_once(sel, gains_v, threshold, max_sweeps, on_update)
        count = int(np.count_nonzero(_field(gains_v, sel, field_v) >= thr_eff))
        if best is None or count > best[0]:
            best = (count, sel, sweeps_used)

    _, sel, sweeps_used = best
    act = Activation(selected=tuple(sel))
    return _coverage_result(act, gains_v, threshold, sweeps_used, "coordinate_ascent")


def _coverage_result(act, gains_v, threshold, sweeps_used, method) -> CoverageResult:
    """The result of planning `act`, its count recomputed on the candidate matrix (`_field`, bit-equal to `avg_snr`)."""
    field_v = _field(gains_v, act.selected, np.empty(gains_v.shape[2]))
    covered = int(np.count_nonzero(_covered(field_v, threshold)))
    return CoverageResult(
        activation=act,
        covered_count=covered,
        coverage_fraction=covered / len(field_v),
        threshold=threshold,
        sweeps_used=sweeps_used,
        method=method,
    )


def _order_keys(bits: np.ndarray) -> np.ndarray:
    """int64 keys in the order of the floats whose int64 bit patterns are `bits`.

    The non-NaN floats get consecutive keys from -inf to +inf, with -0.0
    just below +0.0. The map is its own inverse: keys in, bit patterns out.
    """
    return bits ^ ((bits >> 63) & _MAGNITUDE_BITS)


def _last_tap_thresholds(gains_last: np.ndarray, threshold: float) -> np.ndarray:
    """h[m, c] with fl(p + gains_last[m, c]) >= threshold exactly when p >= h[m, c], for every float p.

    Write pass(p) for fl(p + g) >= t, with g = gains_last[m, c] and
    t = threshold > -inf, and order the non-NaN floats by `_order_keys`; the
    float below x is the one whose key is one less. Rounded addition is
    monotone in each operand, so pass is an up-set: if pass(p) and p <= q,
    then fl(p + g) is not NaN, so g is not NaN and p is not -inf; for finite
    g, fl(q + g) >= fl(p + g); for g = +inf, q > -inf and fl(q + g) = inf >= t;
    g = -inf never passes. A NaN p never passes and compares false with every
    entry. So the entry is NaN where +inf fails, since nothing compares >= NaN,
    and else the least float h that passes.

    A candidate h is accepted only when pass(h) and the float below h fails.
    That makes it least: every float below h in key order is at most the
    float below h, so it fails too; -0.0 and +0.0 pass alike, so the least
    float is also the least value. The candidates are the first of h0 - 1,
    h0 and h0 + 1 (in keys) that passes, for h0 = fl(fl(t - g) - gap / 2)
    with gap = t - nextafter(t, -inf): a sum rounds to t or above from half
    that gap below t. Entries left open (none on the bundled scenario at 12
    to 40 dB) are bisected over the keys of (-inf, +inf], keeping pass(hi)
    and not pass(lo), down to adjacent keys: then the key of hi is the least
    that passes. -inf fails, since fl(-inf + g) is -inf or NaN.
    """

    def passes(p, g=gains_last):
        return p + g >= threshold

    def floats(keys):
        return _order_keys(keys).view(np.float64)

    with np.errstate(over="ignore", invalid="ignore"):
        # where rounding to nearest turns a sum into t: half the gap below t
        h0 = (threshold - gains_last) - 0.5 * (threshold - np.nextafter(threshold, -np.inf))
        keys = _order_keys(h0.view(np.int64))
        h = [floats(k) for k in (keys - 2, keys - 1, keys, keys + 1)]
        ok = [passes(x) for x in h]
        # the first of h[1..3] that passes, accepted when the float below it fails
        cand = np.where(ok[1], h[1], np.where(ok[2], h[2], h[3]))
        exact = np.where(ok[1], ~ok[0], ok[2] | ok[3])
        table = np.where(exact, cand, np.nan)
        rest = np.nonzero(passes(np.inf) & ~exact)
        if len(rest[0]):
            g = gains_last[rest]
            key_lo, key_hi = (np.full(len(g), k) for k in _order_keys(np.array([-np.inf, np.inf]).view(np.int64)))
            while True:
                # floor((key_lo + key_hi) / 2) without overflow; above key_lo while they are 2 apart
                mid = (key_lo >> 1) + (key_hi >> 1) + (key_lo & key_hi & 1)
                step = mid > key_lo
                if not step.any():
                    break
                ok_mid = passes(floats(mid), g)
                key_hi = np.where(step & ok_mid, mid, key_hi)
                key_lo = np.where(step & ~ok_mid, mid, key_lo)
            table[rest] = floats(key_hi)
    return table


def _coverage_counts(gains_v: np.ndarray, thr_eff: list[float]) -> np.ndarray:
    """Covered counts of every activation at each of `thr_eff`: (activations, K), lexicographic order.

    Row i belongs to `_activation_at(i, ...)`, so the first argmax of a
    column is the lexicographically smallest argmax. The walk runs once per
    block of _WALK_CELLS valid cells and adds that block's counts. Row n+1
    of `partial` holds the running sum of waveguides 0..n from zero; a new
    prefix recomputes only the rows from its first changed tap on. The
    last waveguide's taps are scored together at each prefix. With one
    threshold a cell of tap m counts when its partial sum p >= h[m]
    (`_last_tap_thresholds`), the same bits as fl(p + g) >= t without the
    add. With K > 1 thresholds one add per tap serves K compares, and K
    tables would cost more than they save, so the field is formed.
    Refuses with BudgetError, before anything is allocated, when there are
    more than ENUM_BUDGET activations.
    """
    n_wg, n_tap, n_cells = gains_v.shape
    total = n_tap**n_wg
    if total > ENUM_BUDGET:
        raise BudgetError(f"exhaustive search needs {n_tap}^{n_wg} activations, over the budget of {ENUM_BUDGET}")
    last = n_wg - 1
    n_thr = len(thr_eff)
    counts = np.zeros((total, n_thr), dtype=np.int64)
    tally = np.empty((n_thr, n_tap), dtype=np.uint16)  # hits per tap of a block (< 2**16 cells)
    thresholds = np.reshape(thr_eff, (-1, 1, 1))
    for start in range(0, n_cells, _WALK_CELLS):
        block = gains_v[:, :, start : start + _WALK_CELLS]
        width = block.shape[2]
        partial = np.zeros((n_wg, width))
        # hit rows padded with False to whole words; each uint64 word holds 8
        # hits as bytes 0 or 1, so a sum of at most 255 words counts 8 cells
        # per byte without a carry, in an eighth of the additions
        hits = np.zeros((n_thr, n_tap, -(-width // 8) * 8), dtype=bool)
        words = hits.view(np.uint64)
        runs = np.arange(0, words.shape[2], 255)
        lanes = np.empty((n_thr, n_tap, len(runs)), dtype=np.uint64)
        if n_thr == 1:
            table = np.empty((n_tap, width))
            for c in range(0, width, _TABLE_CHUNK):
                cols = slice(c, c + _TABLE_CHUNK)
                table[:, cols] = _last_tap_thresholds(block[last, :, cols], thr_eff[0])
        else:
            field = np.empty((n_tap, width))
        i = 0
        for head in product(range(n_tap), repeat=last):
            # lexicographic order: the last nonzero tap of the prefix moved, later ones reset
            first = max((n for n, m in enumerate(head) if m), default=0)
            for n in range(first, last):
                np.add(partial[n], block[n, head[n]], out=partial[n + 1])
            if n_thr == 1:
                np.greater_equal(partial[last], table, out=hits[0, :, :width])
            else:
                np.copyto(field, block[last])  # then adding in place is faster than one add into it
                np.add(field, partial[last], out=field)
                np.greater_equal(field, thresholds, out=hits[:, :, :width])
            np.add.reduceat(words, runs, axis=2, out=lanes)
            lanes.view(np.uint8).sum(axis=2, dtype=np.uint16, out=tally)
            counts[i : i + n_tap] += tally.T
            i += n_tap
    return counts


def _activation_at(index: int, gain_map: GainMap) -> Activation:
    """Activation of row `index` of the `_coverage_counts` order."""
    shape = (gain_map.n_taps,) * gain_map.n_waveguides
    return Activation(selected=np.unravel_index(index, shape))


def exact_enumerate(gain_map: GainMap, params: ChannelParams, threshold: float) -> CoverageResult:
    """Exhaustively maximize the covered count (lexicographically smallest argmax)."""
    return _exact_coverages(gain_map, params, [threshold])[0]


def _exact_coverages(gain_map: GainMap, params: ChannelParams, thresholds) -> list[CoverageResult]:
    """`exact_enumerate` at each threshold, from one walk over the activations."""
    for threshold in thresholds:
        _check_threshold(threshold)
    thr_eff = [threshold * (1.0 - COVERAGE_SLACK) for threshold in thresholds]
    gains_v = _candidate_matrix(gain_map, params)
    counts = _coverage_counts(gains_v, thr_eff)
    return [
        _coverage_result(_activation_at(i, gain_map), gains_v, threshold, 0, "exact")
        for i, threshold in zip(np.argmax(counts, axis=0).tolist(), thresholds)
    ]


def _lp_terms(parts: list[str], per_line: int) -> list[str]:
    lines = []
    for i in range(0, len(parts), per_line):
        lines.append(" ".join(parts[i : i + per_line]))
    return lines


# Fibonacci hashing: 2**64 / golden ratio (odd); a key's home slot is the top
# bits of its bit pattern times this, modulo 2**64.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


class _TextMemo:
    """'%.17g' texts keyed on float64 bit patterns: an open-addressing table with linear probing.

    `keys`, `used` and `texts` are the slots, in step; a slot's key counts
    only where `used` is set, so every bit pattern is a legal key. The table
    takes at most `cap` = min(n_keys, _LP_MEMO_CAP) texts and has a power of
    two of slots, at least 2 * cap, so it stays at most half full: probes
    are short and always reach a free slot. `len()` counts the stored texts.
    """

    def __init__(self, n_keys: int) -> None:
        self.cap = min(n_keys, _LP_MEMO_CAP)
        bits = max(3, (2 * self.cap - 1).bit_length())
        self.keys = np.zeros(1 << bits, np.uint64)
        self.used = np.zeros(1 << bits, bool)
        self.texts = np.empty(1 << bits, object)
        self.shift = np.uint64(64 - bits)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def probe(self, keys: np.ndarray, slots: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(slots, found): per key its slot when stored, else the first free slot of its probe run.

        A run starts at the key's home slot, or at `slots` when given, and
        steps to the next slot (wrapping past the last) while the slot holds
        another key.
        """
        if slots is None:
            slots = keys * _HASH_MULTIPLIER
            slots >>= self.shift
            slots = slots.view(np.intp)  # below 2**63
        used = self.used[slots]
        found = self.keys[slots] == keys
        found &= used
        (todo,) = (used ^ found).nonzero()  # slots that hold another key
        while len(todo):
            at = (slots[todo] + 1) & (len(self.used) - 1)
            slots[todo] = at
            used = self.used[at]
            hit = self.keys[at] == keys[todo]
            hit &= used
            found[todo[hit]] = True
            todo = todo[used ^ hit]
        return slots, found

    def insert(self, keys: np.ndarray, texts: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Store distinct keys that are not in the table, each from the free slot its probe reached.

        Keys that reached the same free slot take it in turn: per round the
        first of them, and the rest probe on past it. Returns their slots.
        """
        pending = np.arange(len(keys))
        while len(pending):
            slots[pending], _ = self.probe(keys[pending], slots[pending])
            taken, first = np.unique(slots[pending], return_index=True)
            won = pending[first]
            self.used[taken] = True
            self.keys[taken] = keys[won]
            self.texts[taken] = texts[won]
            pending = np.delete(pending, first)
        self.size += len(keys)
        return slots


def _texts(values: np.ndarray) -> np.ndarray:
    """'%.17g' texts of the float64 `values`, as a flat object array."""
    out = np.empty(values.size, object)
    out[:] = ["%.17g" % x for x in values.ravel().tolist()]
    return out


def _coef_texts(block: np.ndarray, memo: _TextMemo) -> np.ndarray:
    """'%.17g' texts of `block.T` (an object array), formatting only bit patterns not in `memo`.

    Keying on the float64 bits keeps every pattern's own text (0.0 and -0.0
    differ). The distinct new patterns are formatted once and stored, unless
    they would take `memo` past its cap: then they are returned unstored.
    """
    keys = block.view(np.uint64).ravel()
    slots, found = memo.probe(keys)
    if found.all():
        return memo.texts[slots].reshape(block.shape).T
    miss = ~found
    new, first, inverse = np.unique(keys[miss], return_index=True, return_inverse=True)
    texts = _texts(new.view(np.float64))
    if len(memo) + len(new) > memo.cap:
        out = np.empty(len(keys), object)
        out[found] = memo.texts[slots[found]]
        out[miss] = texts[inverse]
        return out.reshape(block.shape).T
    slots[miss] = memo.insert(new, texts, slots[miss][first])[inverse]
    return memo.texts[slots].reshape(block.shape).T


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
    reproduces them bit-exactly. UTF-8, LF line endings. Refuses (ValueError),
    before a file is opened, a threshold that is not positive and finite and
    what `_candidate_matrix` refuses (among it a map without valid cells).

    The coefficients are the solver matrix (`_candidate_matrix`), so an
    ascent and the LP of one map share it. The linking rows are written
    _LP_CHUNK cells at a time, each block as one join of a reused object
    array: its even columns hold a row's fixed fragments, its odd ones that
    block's cell indices and coefficient texts (`_coef_texts`).
    """
    _check_threshold(threshold)
    n_wg, n_tap = gain_map.n_waveguides, gain_map.n_taps
    coefs = _candidate_matrix(gain_map, params).reshape(n_wg * n_tap, -1)  # refused before a file opens
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            emit_milp(gain_map, params, threshold, fh)
        return

    cells = np.flatnonzero(gain_map.valid)
    us, vs = np.divmod(cells, gain_map.valid.shape[1])
    index_texts = np.array([str(i + 1) for i in range(max(gain_map.valid.shape))], dtype=object)

    w = out.write
    w("\\ tap-activation coverage MILP\n")
    w("Maximize\n")
    cell_vars = ("c_" + index_texts[us] + "_" + index_texts[vs]).tolist()
    obj = [cell_vars[0]] + [f"+ {name}" for name in cell_vars[1:]]
    for line in _lp_terms(["covered:"] + obj, per_line=8):
        w(f" {line}\n")
    w("Subject To\n")

    # One linking row's text, 4 terms a line (`_lp_terms`), with a NUL where
    # each per-cell text goes: u, v, the N*M coefficients, u, v. Split
    # there, its fixed fragments fill the even columns of `rows`; per block
    # only the odd ones are filled, and each row is the join of its columns.
    parts = ["snr_\0_\0:"]
    parts += [f"+ \0 a_{n + 1}_{m + 1}" for n in range(n_wg) for m in range(n_tap)]
    parts += [f"- {threshold:.17g} c_\0_\0", ">= 0"]
    fragments = "".join(f" {line}\n" for line in _lp_terms(parts, per_line=4)).split("\0")
    rows = np.empty((_LP_CHUNK, 2 * len(fragments) - 1), dtype=object)
    rows[:, ::2] = fragments
    memo = _TextMemo(n_wg * n_tap * len(cells))
    for start in range(0, len(cells), _LP_CHUNK):
        chunk = slice(start, start + _LP_CHUNK)
        block = coefs[:, chunk]
        part = rows[: block.shape[1]]
        part[:, 1] = part[:, -4] = index_texts[us[chunk]]
        part[:, 3] = part[:, -2] = index_texts[vs[chunk]]
        part[:, 5:-4:2] = _coef_texts(block, memo)
        w("".join(part.ravel().tolist()))
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
