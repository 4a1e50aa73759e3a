"""The candidate matrix a map keeps, the exhaustive walk, the blocked tap scans and pinned plans.

The plan pins were measured on the bundled table1 scenario at grid scale
0.25 before the solvers moved onto the contiguous matrix; the move keeps
every elementwise operation in the same order, so the plans, counts and
the worst-grid SNR stay bit-identical.
"""

import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchplan import (
    Activation,
    GainMap,
    GridSpec,
    avg_snr,
    bisection_maxmin,
    coordinate_ascent,
    deficit_feasibility,
    emit_milp,
    exact_enumerate,
    exact_maxmin,
    load_bundled,
    maxmin_upper_bound,
    threshold_sweep,
    worst_grid_snr,
)
from pinchplan.channel import _candidate_matrix, db_to_linear
from pinchplan import channel, coverage, minmax
from pinchplan.coverage import (
    _activation_at,
    _best_tap,
    _coverage_counts,
    _last_tap_thresholds,
    _tap_blocks,
)
from pinchplan.minmax import _deficit_descent
from conftest import (
    UNIT_PARAMS,
    TensorMap,
    all_activation_fields,
    all_restarts_bisection,
    brute_best_coverage,
    brute_best_worst,
    envelope_quantile,
    exhaustive_feasibility,
    loop_best_tap,
    loop_deficit_descent,
    random_scenario,
    score_activations,
)

@pytest.fixture(scope="module")
def quarter_table1():
    scn = load_bundled("table1").with_grid_scale(0.25)
    return scn, scn.gain_map()


def assert_matrix_of(mat, gm, p):
    """`mat` is C-contiguous and bit-equal to scaling the valid cells of the map's full tensor."""
    assert mat.flags.c_contiguous
    assert mat.shape == (gm.n_waveguides, gm.n_taps, int(np.count_nonzero(gm.valid)))
    assert np.array_equal(mat, p.snr_scale * gm.gains[:, :, gm.valid])


def test_candidate_matrix_contiguous_and_bit_equal(quarter_table1):
    scn, gm = quarter_table1
    p = scn.params
    mat = _candidate_matrix(gm, p)
    assert mat is _candidate_matrix(gm, p) is gm._matrix
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0, 0] = 0.0
    assert_matrix_of(mat, gm, p)


def test_candidate_matrix_random_masks():
    # at the map's own scale the kept read-only matrix, built from geometry (the
    # tensor is built last) and bit-equal to a tensor map's; any other scale is refused
    rng = np.random.default_rng(70)
    for _ in range(5):
        scn = random_scenario(rng, k_max=2)
        for gm in (scn.gain_map(), scn.fixed_array_map()):
            own, other = scn.params, scn.with_power_dbm(scn.channel.tx_power_dbm + 3.0).params
            mat = _candidate_matrix(gm, own)
            with pytest.raises(ValueError, match="scaled for an SNR of"):
                _candidate_matrix(gm, other)
            assert "gains" not in vars(gm) and not mat.flags.writeable
            assert_matrix_of(mat, gm, own)
            assert np.array_equal(_candidate_matrix(TensorMap(gm.gains, gm.valid, own), own), mat)
            assert _candidate_matrix(gm, own) is mat


@pytest.fixture
def matrix_builds(monkeypatch):
    """Weak references to every scaled valid-gain matrix built while the test runs."""
    build, refs = channel._scaled_valid_gains, []

    def counting(gain_map, snr_scale):
        mat = build(gain_map, snr_scale)
        refs.append(weakref.ref(mat))
        return mat

    monkeypatch.setattr(channel, "_scaled_valid_gains", counting)
    return refs


@pytest.mark.parametrize("budget", [minmax.BNB_NODE_BUDGET, 1])
def test_bisection_reads_the_maps_one_matrix(monkeypatch, matrix_builds, budget):
    # the search and every probe read the map's read-only matrix, built once and kept
    monkeypatch.setattr(minmax, "BNB_NODE_BUDGET", budget)
    feasibility, seen = minmax.deficit_feasibility, []

    def probe(target, gm, p, *args):
        seen.append(_candidate_matrix(gm, p))
        return feasibility(target, gm, p, *args)

    monkeypatch.setattr(minmax, "deficit_feasibility", probe)
    scn = random_scenario(np.random.default_rng(72), waveguides=3, taps=4, nx=12, ny=6, k_max=2)
    gm, p = scn.gain_map(), scn.params
    res = bisection_maxmin(gm, p)
    assert len(matrix_builds) == 1 and len(seen) == res.bisection_iters > 0
    assert all(mat is gm._matrix for mat in seen) and not gm._matrix.flags.writeable
    assert_matrix_of(gm._matrix, gm, p)
    # a second solve on the map builds nothing
    assert bisection_maxmin(gm, p).activation == res.activation and len(matrix_builds) == 1
    # at another scale the search refuses before it builds a matrix
    other = scn.with_power_dbm(scn.channel.tx_power_dbm - 5.0).params
    with pytest.raises(ValueError, match="scaled for an SNR of"):
        bisection_maxmin(gm, other)
    assert len(matrix_builds) == 1


def test_solvers_refuse_params_at_another_scale(tmp_path, matrix_builds):
    # a map plans at its own SNR scale; every solver refuses another before it
    # builds a matrix, and the LP writer before it opens its file
    scn = random_scenario(np.random.default_rng(74), waveguides=2, taps=3, k_max=2)
    gm, louder = scn.gain_map(), scn.with_power_dbm(scn.channel.tx_power_dbm + 3.0).params
    thr = db_to_linear(scn.solver.threshold_db)
    start = Activation.centered(gm.n_waveguides, gm.n_taps)
    path = tmp_path / "model.lp"
    calls = [
        lambda: coordinate_ascent(start, gm, louder, thr),
        lambda: exact_enumerate(gm, louder, thr),
        lambda: bisection_maxmin(gm, louder),
        lambda: exact_maxmin(gm, louder),
        lambda: deficit_feasibility(1.0, gm, louder, start),
        lambda: maxmin_upper_bound(gm, louder),
        lambda: emit_milp(gm, louder, thr, str(path)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="scaled for an SNR of"):
            call()
    assert matrix_builds == [] and not path.exists()


def test_planners_refuse_a_map_with_a_nan_gain(tmp_path):
    # tap (0, 0) lies on the floor under the centre of cell (0, 0), its link
    # blocked and the NLoS gain 0: d^2 = 0 gives that cell a gain of 0/0
    points = np.array([[[0.5, 0.0, 0.0], [1.5, 0.0, 5.0]], [[0.5, 0.0, 5.0], [1.5, 0.0, 5.0]]])
    los = np.ones((2, 2, 2, 1), dtype=bool)
    los[0, 0, 0, 0] = False
    grid = GridSpec(nx=2, ny=1, cell_x=1.0, cell_y=1.0)
    gm = GainMap(valid=np.ones((2, 1), dtype=bool), points=points, los=los, grid=grid, params=UNIT_PARAMS)
    start, path = Activation(selected=(0, 0)), tmp_path / "model.lp"
    calls = [
        lambda: coordinate_ascent(start, gm, UNIT_PARAMS, 1.0),
        lambda: exact_enumerate(gm, UNIT_PARAMS, 1.0),
        lambda: deficit_feasibility(1.0, gm, UNIT_PARAMS, start),
        lambda: bisection_maxmin(gm, UNIT_PARAMS),
        lambda: exact_maxmin(gm, UNIT_PARAMS),
        lambda: maxmin_upper_bound(gm, UNIT_PARAMS),
        lambda: emit_milp(gm, UNIT_PARAMS, 1.0, str(path)),
    ]
    with np.errstate(invalid="ignore"):  # the 0/0 itself
        for call in calls:
            with pytest.raises(ValueError, match="not finite"):
                call()
        field = avg_snr([0, 0], gm, UNIT_PARAMS)  # an evaluator still returns the field
    assert np.isnan(field[0, 0]) and np.isfinite(field[1, 0])
    assert not path.exists()


def test_a_raising_probe_leaves_the_maps_one_matrix(monkeypatch, matrix_builds):
    feasibility, calls = minmax.deficit_feasibility, []

    def failing(*args):
        calls.append(feasibility(*args))
        if len(calls) == 3:
            raise RuntimeError("probe failed")
        return calls[-1]

    monkeypatch.setattr(minmax, "deficit_feasibility", failing)
    scn = random_scenario(np.random.default_rng(73), waveguides=3, taps=4, nx=12, ny=6, k_max=2)
    gm = scn.gain_map()
    with pytest.raises(RuntimeError, match="probe failed"):
        bisection_maxmin(gm, scn.params)
    assert len(matrix_builds) == 1 and len(calls) == 3
    monkeypatch.setattr(minmax, "deficit_feasibility", feasibility)
    res = bisection_maxmin(gm, scn.params)
    assert len(matrix_builds) == 1
    assert res.activation == bisection_maxmin(scn.gain_map(), scn.params).activation


@pytest.mark.parametrize("exact", [False, True])
def test_threshold_sweep_builds_one_matrix(matrix_builds, exact):
    scn = load_bundled("table1").with_grid_scale(0.1)
    table = threshold_sweep(scn, [12.0, 18.0, 24.0, 30.0], exact=exact, n_random=2)
    assert len(table.columns["optimized"]) == 4
    assert len(matrix_builds) == 1
    gc.collect()
    assert all(ref() is None for ref in matrix_builds)


def test_pinned_plans_table1_quarter(quarter_table1):
    scn, gm = quarter_table1
    p = scn.params
    res = bisection_maxmin(gm, p, eps_t=scn.solver.eps_t, seed=scn.solver.seed)
    assert res.activation.selected == (1, 5, 9, 1)
    assert res.t_star == 122.2581707229541
    assert res.bisection_iters == 18
    assert res.bnb_nodes == 2400

    assert exact_maxmin(gm, p).activation.selected == (1, 5, 9, 1)

    thr = db_to_linear(24.0)
    assert scn.threshold_linear == thr
    res = exact_enumerate(gm, p, thr)
    assert (res.activation.selected, res.covered_count) == ((3, 8, 6, 2), 2134)

    start = Activation.centered(gm.n_waveguides, gm.n_taps)
    res = coordinate_ascent(start, gm, p, thr)
    assert (res.activation.selected, res.covered_count) == ((4, 8, 2, 5), 2083)
    res = coordinate_ascent(start, gm, p, thr, restarts=16, seed=scn.solver.seed)
    assert (res.activation.selected, res.covered_count) == ((9, 5, 3, 8), 2122)


def test_pinned_maxmin_plans_table1_full():
    # the branch-and-bound optimum, and bisection with its ceiling, at the full grid
    scn = load_bundled("table1")
    gm, p = scn.gain_map(), scn.params
    res = exact_maxmin(gm, p)
    assert res.activation.selected == (4, 0, 9, 3)
    assert res.certified == res.t_star == 119.77306000149508
    assert res.bnb_nodes == 2390
    res = bisection_maxmin(gm, p, eps_t=scn.solver.eps_t, seed=scn.solver.seed)
    assert res.activation.selected == (4, 0, 9, 3)
    assert res.t_star == res.certified == 119.77306000149508
    assert res.bisection_iters == res.feasibility_evals == 18


def test_pinned_exact_coverage_table1_full():
    # the full grid walks several cell blocks
    scn = load_bundled("table1")
    gm = scn.gain_map()
    assert np.count_nonzero(gm.valid) > 5 * coverage._WALK_CELLS
    res = exact_enumerate(gm, scn.params, db_to_linear(24.0))
    assert (res.activation.selected, res.covered_count) == ((3, 8, 6, 2), 34162)


def test_exact_feasibility_pinned_table1_quarter(quarter_table1):
    # bisection whose probes read every activation's worst cell brackets the optimum
    scn, gm = quarter_table1
    p = scn.params
    act, iters = all_restarts_bisection(gm, p, scn.solver.eps_t, 0, exhaustive_feasibility(gm, p))
    assert act.selected == (1, 5, 9, 1)
    assert worst_grid_snr(act.as_array(), gm, p) == 122.2581707229541
    assert iters == 21


@pytest.mark.parametrize("n_wg", [1, 2, 3])
def test_score_activations_order_and_values(n_wg):
    rng = np.random.default_rng(71 + n_wg)
    valid = np.ones((3, 2), dtype=bool)
    valid[1, 0] = False
    gm, p = TensorMap(rng.uniform(0.5, 2.0, (n_wg, 3, 3, 2)), valid), UNIT_PARAMS
    seen = []
    scores = score_activations(gm, p, lambda field: seen.append(field.copy()) or field.min())
    want = list(all_activation_fields(gm, p))
    assert len(scores) == len(seen) == len(want) == 3**n_wg
    for i, (sel, field) in enumerate(want):
        assert _activation_at(i, gm).selected == sel  # lexicographic order
        assert np.allclose(seen[i], field[gm.valid], rtol=1e-12, atol=0)
        assert scores[i] == seen[i].min()


def test_exhaustive_search_matches_oracles_three_waveguides():
    # three waveguides exercise the partial-sum rows the two-waveguide tests skip
    rng = np.random.default_rng(72)
    for _ in range(6):
        scn = random_scenario(rng, waveguides=3, taps=3, k_max=2)
        gm, p = scn.gain_map(), scn.params
        thr = envelope_quantile(gm, p, rng.uniform(0.3, 0.9))
        res = exact_enumerate(gm, p, thr)
        assert (res.covered_count, res.activation) == brute_best_coverage(gm, p, thr)
        res = exact_maxmin(gm, p)
        want_val, want_act = brute_best_worst(gm, p)
        assert res.t_star == pytest.approx(want_val, rel=1e-12)
        # without blockages waveguides 0 and 2 mirror each other, so two
        # activations can tie exactly and the oracle's summation order may
        # round the other one up; then the pick must be one of those ties
        ties = {
            Activation(sel)
            for sel, field in all_activation_fields(gm, p)
            if field[gm.valid].min() >= want_val * (1 - 1e-12)
        }
        assert res.activation == want_act or (len(ties) > 1 and res.activation in ties)


def test_exhaustive_search_lexicographic_ties_three_waveguides():
    rng = np.random.default_rng(73)
    base = rng.uniform(1.0, 2.0, (3, 1, 3, 2))
    gains = np.repeat(base, 3, axis=1)  # three identical taps per waveguide
    gm = TensorMap(gains, np.ones((3, 2), dtype=bool))
    assert exact_enumerate(gm, UNIT_PARAMS, 3.5).activation.selected == (0, 0, 0)
    assert exact_maxmin(gm, UNIT_PARAMS).activation.selected == (0, 0, 0)


# Entry strategies of the kernel test maps: floats; small integers, which tie
# counts, margins, deficit sums and worst cells. The tap scans run on the
# finite matrices a map lets through (`GainMap._matrix`); the exhaustive
# walk's thresholds are exact for any floats, so its maps may also hold NaN and inf.
FINITE_VALUES = [st.floats(0.0, 3.0), st.sampled_from([0.0, 1.0, 2.0, 3.0])]
KERNEL_VALUES = FINITE_VALUES + [st.sampled_from([0.0, 1.0, 2.0, np.nan, np.inf])]


@st.composite
def kernel_map(draw, n_wg, strategies=FINITE_VALUES):
    """(gains, values): gains (n_wg, taps, cells) drawn from `values`, one of `strategies`."""
    values = draw(st.sampled_from(strategies))
    n_tap, n_cells = draw(st.integers(1, 7)), draw(st.integers(1, 9))
    flat = draw(st.lists(values, min_size=n_wg * n_tap * n_cells, max_size=n_wg * n_tap * n_cells))
    return np.array(flat).reshape(n_wg, n_tap, n_cells), values


def blocks_of(taps_per_block, n_cells):
    """Patch the block size so `_tap_blocks` cuts `taps_per_block` taps per block."""
    return mock.patch.object(channel, "_BLOCK_VALUES", taps_per_block * n_cells)


def passes(p, g, t):
    """fl(p + g) >= t, the field compare the last-tap thresholds replace."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.float64(p) + np.float64(g) >= t)


def check_last_tap_threshold(g, t, probes=()):
    """h of (g, t) passes, the float below it fails, and p >= h gives the add's verdict on every probe."""
    h = _last_tap_thresholds(np.array([[g]]), t)[0, 0]
    with np.errstate(over="ignore"):  # nextafter of +-max
        below, above = np.nextafter(h, -np.inf), np.nextafter(h, np.inf)
    if np.isnan(h):
        assert not passes(np.inf, g, t)
    else:  # the least float that passes: h does, the float below it does not
        assert passes(h, g, t) and not passes(below, g, t)
    for p in [h, below, above, -np.inf, np.inf, 0.0, -0.0, *probes]:
        assert passes(p, g, t) == (p >= h), (p, h)
    assert not np.nan >= h and not passes(np.nan, g, t)
    return h


def ulps_from(x, n):
    """The float n steps of nextafter from x (n < 0 steps down)."""
    with np.errstate(over="ignore"):
        for _ in range(abs(n)):
            x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return float(x)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
THRESHOLDS = st.sampled_from([1.0, 3.0, 1e-300, 1e300, np.inf]) | st.floats(1e-300, 1e300)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_last_tap_thresholds_are_exact_and_least(data):
    t = data.draw(THRESHOLDS)
    # g at or above t, within a few ulps of t, anywhere, or not finite
    g = data.draw(
        st.floats(t, np.inf)
        | st.integers(-4, 4).map(lambda n: ulps_from(t, n))
        | st.floats(allow_nan=False)
        | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    )
    with np.errstate(over="ignore", invalid="ignore"):
        centre = t - g
    # probes in a range around fl(t - g), where the verdict turns, or anywhere
    if np.isfinite(centre) and data.draw(st.booleans()):
        spread = st.floats(0.0, 1e300) | st.integers(0, 4).map(lambda n: ulps_from(0.0, n))
        lo, hi = centre - data.draw(spread), centre + data.draw(spread)
    else:
        # -0.0 sorts before 0.0 here, as st.floats(lo, hi) needs: sorted() keeps
        # the equal pair [0.0, -0.0] as drawn, and st.floats(0.0, -0.0) is refused
        pair = data.draw(st.lists(st.floats(allow_nan=False), min_size=2, max_size=2))
        lo, hi = sorted(pair, key=lambda x: (x, math.copysign(1.0, x)))
    probes = data.draw(st.lists(st.floats(lo, hi) if np.isfinite(lo) and np.isfinite(hi) else FINITE, max_size=8))
    check_last_tap_threshold(g, t, [lo, hi, *probes])


def same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize(
    "lo, hi, g, t, want",
    [
        # t = inf makes h0 NaN, so the entry is bisected, to a float below max
        (-np.inf, np.inf, 1e300, np.inf, None),
        # fl(t - g) is 1.0 and h0 falls into the finer binade below it: h is
        # two floats above h0, outside the candidates, and is bisected
        (0.0, 2.0, 0.5383963798772445, 1.5383963798772446, 1.0000000000000002),
        (-np.inf, np.inf, np.inf, 1.0, -np.finfo(float).max),  # every p but -inf passes
        (-1.0, 3.0, 2.0, 2.0, -(2.0**-53)),  # g == t: -2**-53 + 2 rounds to 2
        (0.0, np.inf, np.nan, 1.0, np.nan),  # a NaN gain never passes
        (0.5, 3.0, 1.0, 1.0, -(2.0**-54)),  # every p in [0.5, 3] passes, and some below 0 too
        (0.0, 0.5, 0.25, 1.0, 0.75),  # no p in [0, 0.5] passes: the least is t - g, exact
        (np.inf, np.inf, 0.0, 1.0, 1.0),  # g = 0: the least is t, and +inf passes
    ],
)
def test_last_tap_threshold_edges(lo, hi, g, t, want):
    # lo and hi are probes: the entry holds for partial sums anywhere, in [lo, hi] too
    h = check_last_tap_threshold(g, t, (lo, hi))
    assert same_float(h, want) if want is not None else h < np.finfo(float).max


# thresholds of the walk test: near the small-integer sums, anywhere, or inf
WALK_THRESHOLDS = st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0, 6.0, np.inf]) | st.floats(0.1, 12.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_coverage_counts_match_the_field_walk(data):
    gains, _ = data.draw(kernel_map(data.draw(st.integers(1, 4)), KERNEL_VALUES))
    thresholds = data.draw(st.lists(WALK_THRESHOLDS, min_size=1, max_size=3))
    n_cells = gains.shape[2]
    gm = TensorMap(gains[..., None], np.ones((n_cells, 1), dtype=bool))
    cells = data.draw(st.integers(1, n_cells))  # cells per walk block: one block or several
    chunk = data.draw(st.integers(1, 3))  # cells per chunk of the table build
    with (
        mock.patch.object(coverage, "_WALK_CELLS", cells),
        mock.patch.object(coverage, "_TABLE_CHUNK", chunk),
        np.errstate(invalid="ignore"),
    ):
        got = _coverage_counts(gains, thresholds)
        want = score_activations(
            gm, UNIT_PARAMS, lambda field: [np.count_nonzero(field >= t) for t in thresholds], (len(thresholds),)
        )
    assert got.shape == want.shape and np.array_equal(got, want)


def test_tap_blocks_cover_the_taps_in_order():
    assert _tap_blocks(7, 40_000) == [slice(m, m + 1) for m in range(7)]  # a full grid: one tap each
    assert _tap_blocks(10, 2784) == [slice(0, 10)]  # a quarter grid: all taps at once
    with blocks_of(2, 5):
        assert _tap_blocks(5, 5) == [slice(0, 2), slice(2, 4), slice(4, 5)]  # ragged last block


# 1 tap, 2 taps, 3 taps (a ragged last block for 4, 5 or 7 taps) and all taps per block
@pytest.mark.parametrize("taps_per_block", [1, 2, 3, 7])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_blocked_best_tap_matches_the_per_tap_loop(taps_per_block, data):
    gains, values = data.draw(kernel_map(1))
    resid = np.array(data.draw(st.lists(values, min_size=gains.shape[2], max_size=gains.shape[2])))
    threshold = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]) | st.floats(0.1, 6.0))
    with blocks_of(taps_per_block, gains.shape[2]):
        assert _best_tap(resid, gains[0], threshold) == loop_best_tap(resid, gains[0], threshold)


@pytest.mark.parametrize("taps_per_block", [1, 2, 3, 7])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_blocked_deficit_descent_matches_the_per_tap_loop(taps_per_block, data):
    gains, _ = data.draw(kernel_map(data.draw(st.integers(1, 3))))
    n_wg, n_tap, n_cells = gains.shape
    target = data.draw(st.sampled_from([1.0, 2.0, 3.0, 4.5, 6.0]) | st.floats(0.0, 9.0))
    sel = data.draw(st.lists(st.integers(0, n_tap - 1), min_size=n_wg, max_size=n_wg))
    want_sel = list(sel)
    with blocks_of(taps_per_block, n_cells):
        want = loop_deficit_descent(target, gains, want_sel, 50)
        got = _deficit_descent(target, gains, sel, 50)
    assert sel == want_sel and got == want


def test_one_block_scratch_plans_like_an_all_taps_scratch():
    # 7 taps in key blocks of 3 (taps 0-2, 3-5 and 6), so the scratch holds 3
    # rows. The taps tied on the key (1, 2, 4, 5 and 6) span all three blocks,
    # their tie keys take two gathers (1, 2, 4, then 5, 6), and the best tie
    # key lies in the second: tap 5 covers 2 cells at the largest margin, tap
    # 6 misses the target by 2 at the least worst-cell deficit.
    cover = np.array([[1, 0], [1, 1], [1.5, 1], [2, 0], [1, 2], [3, 1], [1, 1.5]])  # threshold 1
    deficit = np.array([[0, 0], [2, 4], [2.5, 3.5], [1, 1], [4, 2], [2, 4], [3, 3]])  # target 4
    shapes, scan_buffer = [], coverage._scan_buffer

    def one_block(n_tap, n_cells):
        buf = scan_buffer(n_tap, n_cells)
        shapes.append(buf.shape)
        return buf

    def all_taps(n_tap, n_cells):
        return np.empty((n_tap, n_cells))

    def plans(gains, scratch):
        with mock.patch.object(coverage, "_scan_buffer", scratch), mock.patch.object(minmax, "_scan_buffer", scratch):
            updates, sel, dsel = [], [3] * len(gains), [3] * len(gains)
            sweeps = coverage._ascent_once(sel, gains, 2.0, 50, lambda *update: updates.append(update))
            return sel, sweeps, updates, dsel, _deficit_descent(4.0, gains, dsel, 50)

    rng = np.random.default_rng(5)
    with blocks_of(3, 2):
        assert _best_tap(np.zeros(2), cover, 1.0, one_block(7, 2)) == loop_best_tap(np.zeros(2), cover, 1.0) == (5, 2)
        sel = [0]
        assert _deficit_descent(4.0, deficit[None], sel, 50) == 2.0 and sel == [6]
        # small-integer gains tie often
        maps = [np.stack([cover, deficit, cover[::-1]])] + [rng.integers(0, 3, (3, 7, 2)).astype(float) for _ in range(20)]
        for gains in maps:
            assert plans(gains, one_block) == plans(gains, all_taps)
    assert set(shapes) == {(3, 2)}
