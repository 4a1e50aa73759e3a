import io
import re

import numpy as np
import pytest

from pinchplan import (
    Activation,
    BudgetError,
    avg_snr,
    coordinate_ascent,
    coverage_count,
    emit_milp,
    exact_enumerate,
)
from pinchplan import coverage
from pinchplan.channel import _candidate_matrix
from pinchplan.coverage import _best_tap
from conftest import (
    UNIT_PARAMS,
    MaxCoverInstance,
    TensorMap,
    brute_best_coverage,
    brute_max_cover,
    encode_max_cover,
    envelope_quantile,
    random_scenario,
)


def synthetic_map(gains, valid=None):
    gains = np.asarray(gains, dtype=float)
    if valid is None:
        valid = np.ones(gains.shape[2:], dtype=bool)
    return TensorMap(gains, valid)


def best_tap(wg, resid, gain_map, params, threshold):
    """The ascent's pick for waveguide `wg` against the others' field `resid`."""
    gains_v = _candidate_matrix(gain_map, params)[wg]
    return _best_tap(resid[gain_map.valid], gains_v, threshold)[0]


def test_activation_basics():
    act = Activation.centered(4, 10)
    assert act.one_based() == [5, 5, 5, 5]
    assert Activation.centered(2, 3).one_based() == [2, 2]
    back = Activation.from_one_based([2, 6, 9, 4])
    assert back.selected == (1, 5, 8, 3)
    assert back.one_based() == [2, 6, 9, 4]
    with pytest.raises(ValueError):
        Activation(selected=())
    with pytest.raises(ValueError):
        Activation(selected=(0, -1))


def test_coverage_count_threshold_extremes():
    rng = np.random.default_rng(30)
    scn = random_scenario(rng, k_max=2)
    gm = scn.gain_map()
    sel = [0] * gm.n_waveguides
    n_valid = int(np.count_nonzero(gm.valid))
    field = avg_snr(sel, gm, scn.params)
    assert coverage_count(sel, gm, scn.params, 1e-30) == n_valid
    assert coverage_count(sel, gm, scn.params, float(field.max()) * 2.0) == 0
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            coverage_count(sel, gm, scn.params, bad)


def test_coverage_count_closed_threshold():
    # a field value exactly at the threshold counts as covered
    gm = synthetic_map(np.full((1, 1, 2, 1), 3.0))
    assert coverage_count([0], gm, UNIT_PARAMS, 3.0) == 2
    assert coverage_count([0], gm, UNIT_PARAMS, 3.0 * (1 + 1e-9)) == 0


def test_best_candidate_single_tap():
    gm = synthetic_map(np.random.default_rng(34).uniform(1, 2, (2, 1, 3, 2)))
    resid = np.zeros((3, 2))
    assert best_tap(0, resid, gm, UNIT_PARAMS, 1.0) == 0


def test_best_candidate_margin_breaks_count_ties():
    # both taps cover both cells; tap 1 has the fatter margin and must win
    gains = np.zeros((1, 2, 2, 1))
    gains[0, 0] = 2.0
    gains[0, 1] = 5.0
    gm = synthetic_map(gains)
    resid = np.zeros((2, 1))
    assert best_tap(0, resid, gm, UNIT_PARAMS, 1.0) == 1
    # identical taps: smallest index wins
    gains[0, 1] = 2.0
    gm = synthetic_map(gains)
    assert best_tap(0, resid, gm, UNIT_PARAMS, 1.0) == 0


def test_best_candidate_matches_brute_scan():
    rng = np.random.default_rng(35)
    for _ in range(20):
        scn = random_scenario(rng, waveguides=2, taps=3, k_max=1)
        gm = scn.gain_map()
        p = scn.params
        thr = envelope_quantile(gm, p, rng.uniform(0.2, 0.8))
        sel = [int(rng.integers(3)), int(rng.integers(3))]
        n = int(rng.integers(2))
        resid = p.snr_scale * gm.gains[1 - n, sel[1 - n]]
        got = best_tap(n, resid, gm, p, thr)
        # independent scan over taps with the same (count, margin, -m) order
        best = None
        for m in range(3):
            cand = resid + p.snr_scale * gm.gains[n, m]
            ok = (cand >= thr * (1 - 1e-12)) & gm.valid
            key = (int(ok.sum()), float(np.maximum(cand - thr, 0.0)[gm.valid].sum()), -m)
            if best is None or key > best[0]:
                best = (key, m)
        assert got == best[1]


def test_ascent_fixed_point_single_sweep():
    rng = np.random.default_rng(36)
    scn = random_scenario(rng, waveguides=2, taps=3, k_max=1)
    gm = scn.gain_map()
    p = scn.params
    thr = envelope_quantile(gm, p, 0.5)
    first = coordinate_ascent(Activation.centered(2, 3), gm, p, thr)
    again = coordinate_ascent(first.activation, gm, p, thr)
    assert again.sweeps_used == 1
    assert again.activation == first.activation
    assert again.covered_count == first.covered_count


def test_ascent_monotone_updates_and_ceiling():
    rng = np.random.default_rng(37)
    for _ in range(25):
        scn = random_scenario(rng, waveguides=3, taps=3, k_max=2)
        gm = scn.gain_map()
        p = scn.params
        thr = envelope_quantile(gm, p, rng.uniform(0.3, 0.9))
        counts = []
        res = coordinate_ascent(
            Activation.centered(3, 3), gm, p, thr, on_update=lambda n, m, c: counts.append(c)
        )
        assert counts == sorted(counts)
        assert counts[-1] == res.covered_count
        exact = exact_enumerate(gm, p, thr)
        assert res.covered_count <= exact.covered_count
        assert res.coverage_fraction <= 1.0
        assert res.method == "coordinate_ascent"
        assert exact.method == "exact"


def test_ascent_determinism_and_restarts():
    rng = np.random.default_rng(38)
    scn = random_scenario(rng, waveguides=3, taps=3, k_max=2)
    gm = scn.gain_map()
    p = scn.params
    thr = envelope_quantile(gm, p, 0.7)
    a = coordinate_ascent(Activation.centered(3, 3), gm, p, thr, restarts=4, seed=9)
    b = coordinate_ascent(Activation.centered(3, 3), gm, p, thr, restarts=4, seed=9)
    assert a.activation == b.activation
    single = coordinate_ascent(Activation.centered(3, 3), gm, p, thr)
    assert a.covered_count >= single.covered_count


def test_ascent_refuses_restarts_past_the_enumeration_budget(monkeypatch):
    # one sweep of the runs scores restarts * N * M taps on every grid cell, counting
    # at least _WALK_CELLS cells: 2 * 2x3 * 6,144 operations for 2 restarts on a 2x2
    # grid; the refusal comes before any run
    gm = synthetic_map(np.ones((2, 3, 2, 2)))
    ops = 2 * 2 * 3 * coverage._WALK_CELLS
    monkeypatch.setattr(coverage, "OPS_BUDGET", ops)
    assert coordinate_ascent(Activation.centered(2, 3), gm, UNIT_PARAMS, 1.0, restarts=2).covered_count == 4
    monkeypatch.setattr(coverage, "_ascent_once", None)  # a run would fail
    monkeypatch.setattr(coverage, "_candidate_matrix", None)  # so would the solver matrix
    want = f"a sweep of 3 ascent restarts of 2x3 taps on a 2x2 grid: over the budget of {ops} cell operations"
    with pytest.raises(BudgetError, match=want):
        coordinate_ascent(Activation.centered(2, 3), gm, UNIT_PARAMS, 1.0, restarts=3)
    monkeypatch.setattr(coverage, "OPS_BUDGET", ops - 1)
    with pytest.raises(BudgetError, match=f"2 ascent restarts of 2x3 taps on a 2x2 grid: over the budget of {ops - 1} cell"):
        coordinate_ascent(Activation.centered(2, 3), gm, UNIT_PARAMS, 1.0, restarts=2)


def test_ascent_validation():
    gm = synthetic_map(np.ones((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        coordinate_ascent(Activation.centered(2, 2), gm, UNIT_PARAMS, 1.0, max_sweeps=0)
    with pytest.raises(ValueError):
        coordinate_ascent(Activation.centered(2, 2), gm, UNIT_PARAMS, 1.0, restarts=0)
    with pytest.raises(ValueError):
        coordinate_ascent(Activation(selected=(0,)), gm, UNIT_PARAMS, 1.0)
    with pytest.raises(ValueError):
        coordinate_ascent(Activation(selected=(0, 2)), gm, UNIT_PARAMS, 1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        coordinate_ascent(Activation.centered(2, 2), gm, UNIT_PARAMS, np.inf)
    empty = synthetic_map(np.ones((2, 2, 2, 2)), valid=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        coordinate_ascent(Activation.centered(2, 2), empty, UNIT_PARAMS, 1.0)


def test_exact_enumerate_matches_brute_force():
    rng = np.random.default_rng(39)
    for _ in range(20):
        scn = random_scenario(rng, waveguides=2, taps=3, k_max=2)
        gm = scn.gain_map()
        p = scn.params
        thr = envelope_quantile(gm, p, rng.uniform(0.3, 0.9))
        res = exact_enumerate(gm, p, thr)
        want_count, want_act = brute_best_coverage(gm, p, thr)
        assert res.covered_count == want_count
        assert res.activation == want_act


def test_exact_enumerate_lexicographic_ties():
    # two identical taps per waveguide: the all-zeros selection must win
    rng = np.random.default_rng(40)
    base = rng.uniform(1.0, 2.0, (2, 1, 3, 2))
    gains = np.repeat(base, 2, axis=1)
    gm = synthetic_map(gains)
    res = exact_enumerate(gm, UNIT_PARAMS, 2.5)
    assert res.activation.selected == (0, 0)


def test_exact_enumerate_budget_refusal(monkeypatch):
    gm = synthetic_map(np.ones((8, 20, 2, 1)))
    with pytest.raises(BudgetError) as err:
        exact_enumerate(gm, UNIT_PARAMS, 1.0)
    # the factors, not the product: 3^10000 activations would not format
    assert str(err.value) == "exhaustive search needs 20^8 activations on a 2x1 grid: over the budget of 4294967296 cell operations"
    # Table-I size stays inside the default budget
    gm4 = synthetic_map(np.ones((4, 10, 2, 1)))
    assert exact_enumerate(gm4, UNIT_PARAMS, 1.0).covered_count == 2
    # 3^2 activations, each on 2 cells at 2 thresholds, counted as _WALK_CELLS cells, and
    # 2 * (8 * 9 + 3 * 2) = 156 kept bytes (an int64 count per activation, a hit per tap
    # and cell of a block)
    gm2 = synthetic_map(np.ones((2, 3, 2, 1)))
    ops = 9 * coverage._WALK_CELLS
    monkeypatch.setattr(coverage, "OPS_BUDGET", ops)
    monkeypatch.setattr(coverage, "TENSOR_BYTES_BUDGET", 156)
    assert [r.covered_count for r in coverage._exact_coverages(gm2, UNIT_PARAMS, [1.0, 3.0])] == [2, 0]
    monkeypatch.setattr(coverage, "_candidate_matrix", None)  # the walk's work would fail
    monkeypatch.setattr(coverage, "_coverage_counts", None)
    monkeypatch.setattr(coverage, "OPS_BUDGET", ops - 1)
    with pytest.raises(BudgetError, match=rf"needs 3\^2 activations at 2 thresholds on a 2x1 grid: over the budget of {ops - 1} cell"):
        coverage._exact_coverages(gm2, UNIT_PARAMS, [1.0, 3.0])
    monkeypatch.setattr(coverage, "OPS_BUDGET", ops)
    monkeypatch.setattr(coverage, "TENSOR_BYTES_BUDGET", 155)
    with pytest.raises(BudgetError, match="on a 2x1 grid: over the budget of 155 kept bytes"):
        coverage._exact_coverages(gm2, UNIT_PARAMS, [1.0, 3.0])


def _parse_lp(text):
    """Constraint dict name -> (list of (coefficient, variable), sense, rhs)."""
    body = text.split("Subject To\n", 1)[1].split("Binaries\n", 1)[0]
    joined = " ".join(line.strip() for line in body.splitlines())
    rows = re.split(r"(?=\b\w+:)", joined)
    out = {}
    for row in rows:
        row = row.strip()
        if not row:
            continue
        name, rest = row.split(":", 1)
        sense = ">=" if ">=" in rest else "="
        lhs, rhs = rest.rsplit(sense, 1)
        parsed = []
        sign, coeff = 1.0, None
        for tok in lhs.split():
            if tok == "+":
                sign, coeff = 1.0, None
            elif tok == "-":
                sign, coeff = -1.0, None
            elif re.fullmatch(r"[a-z]\w*", tok):
                parsed.append((sign * (1.0 if coeff is None else coeff), tok))
                sign, coeff = 1.0, None
            else:
                coeff = float(tok)
        out[name] = (parsed, sense, float(rhs))
    return out


def test_emit_milp_minimal_instance():
    gm = synthetic_map(np.full((1, 1, 1, 1), 4.0))
    buf = io.StringIO()
    emit_milp(gm, UNIT_PARAMS, 2.0, buf)
    text = buf.getvalue()
    rows = _parse_lp(text)
    assert set(rows) == {"snr_1_1", "pick_1"}
    terms, sense, rhs = rows["snr_1_1"]
    assert sense == ">=" and rhs == 0.0
    assert ("a_1_1" in dict((v, c) for c, v in terms))
    assert text.startswith("\\ tap-activation coverage MILP\n")
    assert text.endswith("End\n")
    assert "\r" not in text


def test_emit_milp_constraint_count_and_coefficients():
    rng = np.random.default_rng(41)
    scn = random_scenario(rng, waveguides=2, taps=3, nx=4, ny=3, k_max=1)
    gm = scn.gain_map()
    p = scn.params
    thr = envelope_quantile(gm, p, 0.5)
    buf = io.StringIO()
    emit_milp(gm, p, thr, buf)
    rows = _parse_lp(buf.getvalue())
    n_valid = int(np.count_nonzero(gm.valid))
    snr_rows = [k for k in rows if k.startswith("snr_")]
    pick_rows = [k for k in rows if k.startswith("pick_")]
    assert len(snr_rows) == n_valid
    assert len(pick_rows) == gm.n_waveguides
    assert len(rows) == n_valid + gm.n_waveguides
    # every linking coefficient reparses to the exact float that built it
    for u, v in np.argwhere(gm.valid):
        terms, _, _ = rows[f"snr_{u + 1}_{v + 1}"]
        coeff = dict((var, c) for c, var in terms)
        for n in range(2):
            for m in range(3):
                assert coeff[f"a_{n + 1}_{m + 1}"] == p.snr_scale * gm.gains[n, m, u, v]
        assert coeff[f"c_{u + 1}_{v + 1}"] == -thr
    for n, name in enumerate(sorted(pick_rows)):
        terms, sense, rhs = rows[name]
        assert sense == "=" and rhs == 1.0
        assert all(c == 1.0 for c, _ in terms)
        assert len(terms) == 3


def test_emit_milp_to_path(tmp_path):
    gm = synthetic_map(np.full((2, 2, 2, 1), 3.0))
    path = tmp_path / "cover.lp"
    emit_milp(gm, UNIT_PARAMS, 1.5, str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").count("pick_") == 2


def test_max_cover_instance_validation():
    with pytest.raises(ValueError):
        MaxCoverInstance(n_elements=3, subsets=(frozenset({1, 4}),), budget=1)
    with pytest.raises(ValueError):
        MaxCoverInstance(n_elements=3, subsets=(frozenset({1}),), budget=2)
    with pytest.raises(ValueError):
        MaxCoverInstance(n_elements=0, subsets=(frozenset({1}),), budget=1)


def test_encode_max_cover_known_instance():
    inst = MaxCoverInstance(
        n_elements=3,
        subsets=(frozenset({1, 2}), frozenset({2, 3}), frozenset({3})),
        budget=1,
    )
    gm, p = encode_max_cover(inst, 5.0)
    assert gm.gains.shape == (1, 3, 3, 1)
    assert p.snr_scale == 1.0
    res = exact_enumerate(gm, p, 5.0)
    assert res.covered_count == 2
    # full budget reaches the whole union
    inst_all = MaxCoverInstance(n_elements=3, subsets=inst.subsets, budget=3)
    gm, p = encode_max_cover(inst_all, 5.0)
    assert exact_enumerate(gm, p, 5.0).covered_count == 3


def test_encode_max_cover_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(30):
        g = int(rng.integers(3, 13))
        j = int(rng.integers(2, 7))
        subsets = tuple(
            frozenset(int(e) + 1 for e in np.flatnonzero(rng.random(g) < rng.uniform(0.2, 0.7)))
            or frozenset({int(rng.integers(1, g + 1))})
            for _ in range(j)
        )
        k = int(rng.integers(1, min(3, j) + 1))
        inst = MaxCoverInstance(n_elements=g, subsets=subsets, budget=k)
        gm, p = encode_max_cover(inst, 7.0)
        res = exact_enumerate(gm, p, 7.0)
        assert res.covered_count == brute_max_cover(g, subsets, k)
