import dataclasses
import math

import numpy as np
import pytest

from pinchplan import (
    Activation,
    BudgetError,
    ChannelParams,
    bisection_maxmin,
    deficit_feasibility,
    exact_maxmin,
    maxmin_upper_bound,
    worst_grid_snr,
)
from pinchplan import minmax
from pinchplan.coverage import _activation_at
from conftest import (
    UNIT_PARAMS,
    TensorMap,
    all_restarts_bisection,
    brute_best_worst,
    exhaustive_feasibility,
    random_scenario,
    score_activations,
    total_deficit,
)

def synthetic_map(gains, valid=None):
    gains = np.asarray(gains, dtype=float)
    if valid is None:
        valid = np.ones(gains.shape[2:], dtype=bool)
    return TensorMap(gains, valid)


def test_worst_grid_basics():
    gains = np.zeros((1, 1, 2, 2))
    gains[0, 0] = [[5.0, 9.0], [7.0, 3.0]]
    valid = np.array([[True, False], [False, False]])
    gm = synthetic_map(gains, valid)
    assert worst_grid_snr([0], gm, UNIT_PARAMS) == 5.0
    empty = synthetic_map(gains, np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        worst_grid_snr([0], empty, UNIT_PARAMS)


def test_worst_grid_power_scaling():
    rng = np.random.default_rng(50)
    scn = random_scenario(rng, k_max=2)
    gm = scn.gain_map()
    p = scn.params
    sel = [0] * gm.n_waveguides
    base = worst_grid_snr(sel, gm, p)
    scaled = worst_grid_snr(sel, gm, dataclasses.replace(p, tx_power_w=3.0 * p.tx_power_w))
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_total_deficit_cases():
    rng = np.random.default_rng(51)
    scn = random_scenario(rng, k_max=1)
    gm = scn.gain_map()
    p = scn.params
    sel = [0] * gm.n_waveguides
    worst = worst_grid_snr(sel, gm, p)
    assert total_deficit(sel, gm, p, 0.0) == 0.0
    assert total_deficit(sel, gm, p, worst) == 0.0
    assert total_deficit(sel, gm, p, worst * (1 + 1e-9)) > 0.0
    with pytest.raises(ValueError):
        total_deficit(sel, gm, p, -1.0)


def test_deficit_feasibility_trivial_target():
    rng = np.random.default_rng(52)
    scn = random_scenario(rng, k_max=1)
    gm = scn.gain_map()
    init = Activation.centered(gm.n_waveguides, gm.n_taps)
    ok, act = deficit_feasibility(0.0, gm, scn.params, init)
    assert ok
    assert act == init


def test_deficit_feasibility_sound_and_bounded():
    # a True verdict always carries a zero-deficit certificate; any verdict's
    # activation never beats the enumeration optimum
    rng = np.random.default_rng(53)
    for _ in range(20):
        scn = random_scenario(rng, waveguides=3, taps=4, nx=12, ny=6, k_max=2)
        gm = scn.gain_map()
        p = scn.params
        exact = exact_maxmin(gm, p)
        init = Activation.centered(3, 4)
        for frac in (0.5, 0.9, 0.999, 1.001, 1.2):
            t = exact.t_star * frac
            ok, act = deficit_feasibility(t, gm, p, init)
            if ok:
                assert total_deficit(act.as_array(), gm, p, t) == 0.0
                assert t <= exact.t_star * (1 + 1e-12)
            d0 = total_deficit(init.as_array(), gm, p, t)
            d1 = total_deficit(act.as_array(), gm, p, t)
            assert d1 <= d0 * (1 + 1e-12)


def test_deficit_feasibility_validation():
    gm = synthetic_map(np.ones((2, 2, 2, 1)))
    init = Activation.centered(2, 2)
    with pytest.raises(ValueError):
        deficit_feasibility(-0.1, gm, UNIT_PARAMS, init)
    with pytest.raises(ValueError):
        deficit_feasibility(1.0, gm, UNIT_PARAMS, init, max_sweeps=0)
    with pytest.raises(ValueError):
        deficit_feasibility(1.0, gm, UNIT_PARAMS, init, restarts=0)


def test_deficit_feasibility_non_finite_field_stays_well_formed():
    # NaN deficits never compare below anything; the first start is reported
    gm = synthetic_map(np.full((2, 3, 2, 1), np.nan))
    init = Activation(selected=(2, 0))
    ok, act = deficit_feasibility(1.0, gm, UNIT_PARAMS, init, restarts=4)
    assert not ok
    assert len(act.selected) == 2 and all(0 <= m < 3 for m in act.selected)
    ok, act = deficit_feasibility(np.inf, synthetic_map(np.ones((2, 3, 2, 1))), UNIT_PARAMS, init)
    assert not ok and len(act.selected) == 2


def test_bisection_refuses_non_finite_bound():
    infinite_power = ChannelParams(
        freq_hz=1e9, tx_power_w=np.inf, noise_power_w=1.0, nlos_power=0.0
    )
    gm = TensorMap(np.ones((2, 2, 2, 1)), np.ones((2, 1), dtype=bool), infinite_power)
    with pytest.raises(ValueError, match="not finite"):
        bisection_maxmin(gm, infinite_power)


def test_bisection_ends_when_the_bracket_reaches_adjacent_floats():
    # near 1e300 neighbouring floats lie about 1e284 apart, far above eps_t
    gains = np.full((2, 2, 3, 1), 1e300)
    gains[0, 1] = 2e300
    res = bisection_maxmin(synthetic_map(gains), UNIT_PARAMS, eps_t=1e-3)
    assert res.activation.selected[0] == 1
    assert res.t_star == 3e300 and res.bisection_iters < 1100


def test_deficit_restarts_only_add_certificates():
    # the first descent start is the caller's initial, so a single-start True
    # verdict survives any restart count; extra starts may only add True rungs
    rng = np.random.default_rng(62)
    scn = random_scenario(rng, waveguides=3, taps=4, nx=12, ny=6, k_max=2)
    gm, p = scn.gain_map(), scn.params
    hi = maxmin_upper_bound(gm, p)
    init = Activation.centered(3, 4)
    gained = 0
    for t in np.linspace(0.0, hi, 30):
        single, _ = deficit_feasibility(float(t), gm, p, init, restarts=1)
        multi, _ = deficit_feasibility(float(t), gm, p, init)
        if single:
            assert multi
        gained += multi and not single
    assert gained >= 1  # this seed has rungs only the restarts reach


def test_deficit_ladder_agreement():
    # heuristic verdicts against exact feasibility over a 50-point target ladder
    rng = np.random.default_rng(54)
    trials, perfect = 10, 0
    for _ in range(trials):
        scn = random_scenario(rng, waveguides=3, taps=4, nx=12, ny=6, k_max=2)
        gm = scn.gain_map()
        p = scn.params
        exact_t = exact_maxmin(gm, p).t_star
        hi = maxmin_upper_bound(gm, p)
        init = Activation.centered(3, 4)
        agree = True
        for t in np.linspace(0.0, hi, 50):
            ok, _ = deficit_feasibility(float(t), gm, p, init)
            truth = t <= exact_t
            if ok and not truth:
                pytest.fail("heuristic certified an infeasible target")
            if ok != truth:
                agree = False
        perfect += agree
    assert perfect >= 9


def test_upper_bound_dominates_exact():
    rng = np.random.default_rng(55)
    for _ in range(10):
        scn = random_scenario(rng, k_max=2)
        gm = scn.gain_map()
        p = scn.params
        assert maxmin_upper_bound(gm, p) >= exact_maxmin(gm, p).t_star * (1 - 1e-12)
    # single tap per waveguide: bound is achieved
    scn = random_scenario(rng, taps=1, k_max=1)
    gm = scn.gain_map()
    assert maxmin_upper_bound(gm, scn.params) == pytest.approx(
        exact_maxmin(gm, scn.params).t_star, rel=1e-12
    )


def test_bisection_dominance_single_waveguide():
    rng = np.random.default_rng(56)
    weak = rng.uniform(1.0, 2.0, (1, 1, 4, 3))
    gains = np.concatenate([weak, weak + 1.0], axis=1)  # tap 2 dominates everywhere
    gm = synthetic_map(gains)
    res = bisection_maxmin(gm, UNIT_PARAMS, eps_t=1e-6)
    assert res.activation.selected == (1,)
    assert res.t_star == pytest.approx(float(gains[0, 1].min()), rel=1e-12)
    assert not res.exact


def test_bisection_iteration_bound():
    rng = np.random.default_rng(57)
    for eps_t in (1e-2, 1e-3):
        scn = random_scenario(rng, k_max=2)
        gm = scn.gain_map()
        p = scn.params
        hi = maxmin_upper_bound(gm, p)
        res = bisection_maxmin(gm, p, eps_t=eps_t)
        bound = math.ceil(math.log2(max(hi / eps_t, 1.0)))
        assert res.bisection_iters <= bound
        assert res.feasibility_evals == res.bisection_iters


def test_bisection_exact_feasibility_brackets_optimum():
    rng = np.random.default_rng(58)
    for _ in range(15):
        scn = random_scenario(rng, waveguides=2, taps=3, nx=8, ny=4, k_max=2)
        gm = scn.gain_map()
        p = scn.params
        exact = exact_maxmin(gm, p)
        act, _ = all_restarts_bisection(gm, p, 1e-3, 0, exhaustive_feasibility(gm, p))
        assert abs(worst_grid_snr(act.as_array(), gm, p) - exact.t_star) <= 1e-3
        heur = bisection_maxmin(gm, p, eps_t=1e-3)
        assert heur.t_star <= exact.t_star * (1 + 1e-12)


def test_bisection_result_consistency():
    rng = np.random.default_rng(59)
    scn = random_scenario(rng, k_max=2)
    gm = scn.gain_map()
    res = bisection_maxmin(gm, scn.params)
    worst = worst_grid_snr(res.activation.as_array(), gm, scn.params)
    assert res.t_star == worst
    again = bisection_maxmin(gm, scn.params)
    assert again.activation == res.activation


def test_bisection_validation():
    gm = synthetic_map(np.ones((2, 2, 2, 1)))
    with pytest.raises(ValueError):
        bisection_maxmin(gm, UNIT_PARAMS, eps_t=0.0)


def test_exact_maxmin_matches_brute_force():
    rng = np.random.default_rng(60)
    for _ in range(15):
        scn = random_scenario(rng, waveguides=2, taps=3, k_max=2)
        gm = scn.gain_map()
        p = scn.params
        res = exact_maxmin(gm, p)
        want_val, want_act = brute_best_worst(gm, p)
        assert res.t_star == pytest.approx(want_val, rel=1e-12)
        assert res.activation == want_act
        assert res.exact


def test_exact_maxmin_single_tap_and_budget():
    gm = synthetic_map(np.ones((3, 1, 2, 2)))
    res = exact_maxmin(gm, UNIT_PARAMS)
    assert res.activation.selected == (0, 0, 0)
    with pytest.raises(BudgetError):
        exact_maxmin(synthetic_map(np.ones((8, 20, 2, 1))), UNIT_PARAMS)


def test_exact_maxmin_power_equivariance():
    rng = np.random.default_rng(61)
    scn = random_scenario(rng, waveguides=2, taps=3, k_max=2)
    gm = scn.gain_map()
    p = scn.params
    res = exact_maxmin(gm, p)
    louder = scn.with_power_dbm(scn.channel.tx_power_dbm + 10.0 * math.log10(7.0))
    boosted = exact_maxmin(louder.gain_map(), louder.params)
    assert boosted.activation == res.activation
    assert boosted.t_star == pytest.approx(7.0 * res.t_star, rel=1e-12)


def test_plans_never_beat_their_certificate():
    # the solvers and avg_snr sum the scaled taps in one order, so a plan's
    # worst cell and the certificate agree to the last bit
    rng = np.random.default_rng(5)
    for _ in range(300):
        scn = random_scenario(rng, waveguides=3, taps=4, k_max=2)
        gm, p = scn.gain_map(), scn.params
        exact = exact_maxmin(gm, p)
        assert exact.t_star == exact.certified
        res = bisection_maxmin(gm, p)
        assert res.certified == exact.certified
        assert res.t_star <= res.certified


def _first_argmax(gm, p):
    """(worst cell, activation) of the first argmax of the field-walk scores."""
    worst = score_activations(gm, p, np.min)
    i = int(np.argmax(worst))
    return worst[i], _activation_at(i, gm)


# with a 2-cell subset the bound and the leaf check are loose, so most
# leaves reach the full-grid score
@pytest.mark.parametrize("cells", [1024, 2])
def test_bnb_matches_brute_force(monkeypatch, cells):
    monkeypatch.setattr(minmax, "_BNB_CELLS", cells)
    rng = np.random.default_rng(63)
    for _ in range(12):
        scn = random_scenario(rng, taps=int(rng.integers(2, 5)), k_max=2)
        gm, p = scn.gain_map(), scn.params
        cert = minmax._bnb_maxmin(gm, p)
        # bit-equal to the exhaustive scores, and their first argmax
        assert (cert.value, cert.activation) == _first_argmax(gm, p)
        want_val, want_act = brute_best_worst(gm, p)
        assert cert.value == pytest.approx(want_val, rel=1e-12)
        ties = {
            Activation(sel)
            for sel in np.ndindex(*(gm.n_taps,) * gm.n_waveguides)
            if worst_grid_snr(sel, gm, p) >= want_val * (1 - 1e-12)
        }
        assert cert.activation == want_act or cert.activation in ties
        res = exact_maxmin(gm, p)
        assert (res.activation, res.certified, res.bnb_nodes) == (
            cert.activation, cert.value, cert.nodes
        )


@pytest.mark.parametrize("cells", [1024, 2])
def test_bnb_exact_ties_keep_the_lexicographic_argmax(monkeypatch, cells):
    # small integer gains sum exactly, so many activations tie exactly
    monkeypatch.setattr(minmax, "_BNB_CELLS", cells)
    rng = np.random.default_rng(64)
    for _ in range(25):
        n_wg, n_tap = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        valid = rng.random((4, 3)) < 0.8
        valid[0, 0] = True
        gm = synthetic_map(rng.integers(0, 3, (n_wg, n_tap, 4, 3)).astype(float), valid)
        want_val, want_act = brute_best_worst(gm, UNIT_PARAMS)
        cert = minmax._bnb_maxmin(gm, UNIT_PARAMS)
        assert (cert.value, cert.activation) == (want_val, want_act)
        assert exact_maxmin(gm, UNIT_PARAMS).activation == want_act


@pytest.mark.parametrize("cells", [1024, 2])
def test_bnb_value_bits_follow_the_waveguide_order(monkeypatch, cells):
    # gains over six decades make the summation order show in the last bits
    monkeypatch.setattr(minmax, "_BNB_CELLS", cells)
    rng = np.random.default_rng(67)
    for _ in range(10):
        gm = synthetic_map(10.0 ** rng.uniform(-3.0, 3.0, (5, 3, 4, 2)))
        cert = minmax._bnb_maxmin(gm, UNIT_PARAMS)
        assert (cert.value, cert.activation) == _first_argmax(gm, UNIT_PARAMS)


def test_bnb_node_budget_refusal(monkeypatch):
    rng = np.random.default_rng(65)
    scn = random_scenario(rng, waveguides=3, taps=4, k_max=2)
    gm, p = scn.gain_map(), scn.params
    nodes = exact_maxmin(gm, p).bnb_nodes
    monkeypatch.setattr(minmax, "BNB_NODE_BUDGET", nodes)
    assert exact_maxmin(gm, p).bnb_nodes == nodes
    monkeypatch.setattr(minmax, "BNB_NODE_BUDGET", nodes - 1)
    with pytest.raises(BudgetError, match="branch-and-bound"):
        exact_maxmin(gm, p)


def test_bisection_plans_at_least_the_unfinished_search(monkeypatch):
    # a search stopped by its node budget still hands bisection its best plan,
    # so the plan never falls below it (a bisection from the centred plan
    # ends 2.06 below it on one of these scenarios)
    monkeypatch.setattr(minmax, "BNB_NODE_BUDGET", 200)
    rng = np.random.default_rng(80)
    unfinished = 0
    for _ in range(32):
        scn = random_scenario(rng, waveguides=4, taps=6, nx=12, ny=6, k_max=2)
        gm, p = scn.gain_map(), scn.params
        search = minmax._bnb_maxmin(gm, p)
        if search.certified:
            continue
        unfinished += 1
        res = bisection_maxmin(gm, p, eps_t=1e-3)
        assert res.certified is None and res.bnb_nodes == search.nodes > 200
        assert res.t_star >= search.value - 1e-3
    assert unfinished >= 8


@pytest.mark.parametrize("budget", [minmax.BNB_NODE_BUDGET, 1])
def test_bisection_plans_match_the_all_restarts_loop(monkeypatch, budget):
    # with a certificate bisection starts from it and plans the optimum, and
    # the one probe above the ceiling runs one descent of one sweep and caps
    # the bracket there; with the budget exhausted there is no ceiling, and the
    # plan and the probe count are those of the all-restarts loop started from
    # the search's plan under its envelope.
    monkeypatch.setattr(minmax, "BNB_NODE_BUDGET", budget)
    probes = []
    feasibility = minmax.deficit_feasibility

    def recording(target, gm, p, initial, max_sweeps, restarts, seed):
        probes.append((target, max_sweeps, restarts))
        return feasibility(target, gm, p, initial, max_sweeps, restarts, seed)

    monkeypatch.setattr(minmax, "deficit_feasibility", recording)
    rng = np.random.default_rng(66)
    for _ in range(8):
        scn = random_scenario(rng, waveguides=3, taps=4, nx=12, ny=6, k_max=2)
        gm, p = scn.gain_map(), scn.params
        probes.clear()
        res = bisection_maxmin(gm, p, eps_t=1e-3, seed=5)
        assert res.bisection_iters == res.feasibility_evals == len(probes)
        if budget == 1:
            search = minmax._bnb_maxmin(gm, p)
            act, iters = all_restarts_bisection(
                gm, p, 1e-3, 5, feasibility, start=search.activation, t_hi=search.envelope
            )
            assert (res.activation, len(probes)) == (act, iters)
            assert res.t_star == worst_grid_snr(act.as_array(), gm, p)
            assert not search.certified and res.certified is None
            assert res.bnb_nodes == search.nodes == gm.n_taps
            assert {(s, r) for _, s, r in probes} == {(minmax.DEFAULT_MAX_SWEEPS, 16)}
        else:
            exact = exact_maxmin(gm, p)
            assert res.activation == exact.activation
            assert res.t_star == res.certified == exact.certified
            ceiling = res.certified * (1 + minmax.CEILING_MARGIN)
            assert [(s, r) for t, s, r in probes if t > ceiling] == [(1, 1)]
            assert {(s, r) for t, s, r in probes if t <= ceiling} == {(minmax.DEFAULT_MAX_SWEEPS, 16)}
