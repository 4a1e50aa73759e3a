"""Release gates: one printed pass/fail line per criterion.

Each test exercises shipped behavior end to end at a stated tolerance and
wall-clock budget; fine-grained coverage lives in the other modules. Run
with `pytest -s tests/test_acceptance.py` to watch the lines go by.
"""

import time
from dataclasses import replace

import numpy as np

from pinchplan import (
    Activation,
    Blockage,
    avg_snr,
    bisection_maxmin,
    compute_visibility,
    coordinate_ascent,
    exact_enumerate,
    exact_maxmin,
    load_bundled,
    power_sweep,
    random_activation,
    threshold_sweep,
    worst_grid_snr,
)
from pinchplan.cli import main
from conftest import (
    MaxCoverInstance,
    all_restarts_bisection,
    brute_max_cover,
    encode_max_cover,
    envelope_quantile,
    exhaustive_feasibility,
    random_scenario,
    sample_instantaneous_snr,
)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_mc_agrees_with_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(5):
        scn = random_scenario(
            rng, waveguides=int(rng.integers(2, 4)), taps=int(rng.integers(1, 4)), k_max=2
        )
        gm = scn.gain_map()
        act = random_activation(scn, i)
        closed = avg_snr(act.as_array(), gm, scn.params)
        samples = sample_instantaneous_snr(
            act.as_array(),
            scn.layout,
            scn.taps,
            scn.grid,
            scn.visibility(),
            scn.params,
            seed=500 + i,
            n_samples=100_000,
        )
        worst = max(worst, float((np.abs(samples.mean(axis=0) - closed) / closed).max()))
    dt = time.perf_counter() - t0
    _report(
        1,
        worst <= 0.01 and dt < 30.0,
        f"Monte-Carlo mean vs closed-form average SNR on 5 scenarios x 1e5 samples: "
        f"worst relative error {worst:.3%} (limit 1%), {dt:.1f}s (limit 30s)",
    )


def test_criterion_2_enumeration_solves_max_cover():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    agree = 0
    for _ in range(200):
        g = int(rng.integers(1, 13))
        j = int(rng.integers(1, 7))
        k = int(rng.integers(1, min(3, j) + 1))
        subsets = []
        for _ in range(j):
            p = rng.uniform(0.1, 0.9)
            subsets.append(frozenset(int(e) + 1 for e in np.flatnonzero(rng.random(g) < p)))
        inst = MaxCoverInstance(n_elements=g, subsets=tuple(subsets), budget=k)
        gm, params = encode_max_cover(inst, 1.0)
        res = exact_enumerate(gm, params, 1.0)
        agree += res.covered_count == brute_max_cover(g, [set(s) for s in subsets], k)
    dt = time.perf_counter() - t0
    _report(
        2,
        agree == 200 and dt < 10.0,
        f"enumeration on encoded max-coverage instances vs brute force: "
        f"{agree}/200 optima equal (need 200), {dt:.1f}s (limit 10s)",
    )


def test_criterion_3_ascent_tracks_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    match = 0
    sound = monotone = True
    for i in range(100):
        scn = random_scenario(rng, waveguides=3, taps=4, nx=12, ny=6, k_max=2)
        gm, p = scn.gain_map(), scn.params
        thr = envelope_quantile(gm, p, (0.4, 0.6, 0.8)[i % 3])
        init = Activation.centered(3, 4)
        heur = coordinate_ascent(init, gm, p, thr, restarts=4)
        counts: list[int] = []
        coordinate_ascent(init, gm, p, thr, on_update=lambda n, m, c: counts.append(c))
        exact = exact_enumerate(gm, p, thr)
        sound &= heur.covered_count <= exact.covered_count
        match += heur.covered_count == exact.covered_count
        monotone &= all(b >= a for a, b in zip(counts, counts[1:]))
    dt = time.perf_counter() - t0
    _report(
        3,
        sound and monotone and match >= 80 and dt < 30.0,
        f"coordinate ascent vs enumeration on 100 contested instances: never above "
        f"optimum={sound}, matches {match}/100 (need >=80), update counts "
        f"nondecreasing={monotone}, {dt:.1f}s (limit 30s)",
    )


def test_criterion_4_bisection_reaches_exact_optimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(54)
    exact_ok = heur_ok = heur_sound = 0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(3, 5))
        scn = random_scenario(
            rng,
            waveguides=n,
            taps=m,
            nx=int(rng.integers(6, 11)),
            ny=int(rng.integers(3, 6)),
            k_max=2,
        )
        gm, p = scn.gain_map(), scn.params
        ex = exact_maxmin(gm, p).t_star
        act, _ = all_restarts_bisection(gm, p, 1e-3, 0, exhaustive_feasibility(gm, p))
        r_h = bisection_maxmin(gm, p, eps_t=1e-3)
        exact_ok += abs(worst_grid_snr(act.as_array(), gm, p) - ex) <= 1e-3
        heur_sound += r_h.t_star <= ex * (1 + 1e-12)
        heur_ok += abs(r_h.t_star - ex) <= 1e-3
    dt = time.perf_counter() - t0
    _report(
        4,
        exact_ok == 50 and heur_sound == 50 and heur_ok >= 40 and dt < 60.0,
        f"bisection on 50 small instances: exact-feasibility within eps_t=1e-3 of "
        f"enumeration {exact_ok}/50 (need 50), deficit heuristic sound {heur_sound}/50 "
        f"(need 50) and within eps_t {heur_ok}/50 (need >=40), {dt:.1f}s (limit 60s)",
    )


def test_criterion_5_power_shifts_worst_grid_exactly():
    scn = load_bundled("table1").with_grid_scale(0.25)
    table, _ = power_sweep(scn, [30.0, 35.0, 40.0, 45.0])
    worst = 0.0
    for name in ("optimized_db", "random_mean_db", "fixed_db"):
        col = np.array(table.columns[name], dtype=float)
        worst = max(worst, float(np.abs((col - col[0]) - 5.0 * np.arange(4)).max()))
    acts = set(table.columns["optimized_activation"])
    _report(
        5,
        worst <= 1e-9 and len(acts) == 1,
        f"P in {{30,35,40,45}} dBm on quarter-scale table1: worst deviation from exact "
        f"dB shift {worst:.2e} (limit 1e-9), optimized activation unchanged "
        f"({len(acts)} distinct)",
    )


def test_criterion_6_sweep_trends_hold():
    t0 = time.perf_counter()
    scn = load_bundled("table1").with_grid_scale(0.25)

    thr_tab = threshold_sweep(scn, [12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0], exact=True)
    opt = np.array(thr_tab.columns["optimized"])
    rnd = np.array(thr_tab.columns["random_mean"])
    fix = np.array(thr_tab.columns["fixed"])
    dominates = bool(np.all(opt >= rnd))
    nonincreasing = all(np.all(np.diff(c) <= 1e-12) for c in (opt, rnd, fix))

    pow_tab, _ = power_sweep(scn, [30.0, 35.0, 40.0, 45.0], exact=True)
    ordered = bool(
        np.all(np.array(pow_tab.columns["optimized_db"]) > pow_tab.columns["random_mean_db"])
        and np.all(np.array(pow_tab.columns["random_mean_db"]) > pow_tab.columns["fixed_db"])
    )

    cov = {m: [] for m in ("optimized", "random_mean", "fixed")}
    for nlos_db in (-70.0, -60.0, -50.0):
        tab = threshold_sweep(replace(scn, channel=replace(scn.channel, nlos_db=nlos_db)), [18.0], exact=True)
        for m in cov:
            cov[m].append(tab.columns[m][0])
    nlos_monotone = all(np.all(np.diff(vals) >= -1e-12) for vals in cov.values())

    dt = time.perf_counter() - t0
    _report(
        6,
        dominates and nonincreasing and ordered and nlos_monotone and dt < 120.0,
        f"quarter-scale table1 trends: optimized>=random at all 7 thresholds="
        f"{dominates}, coverage curves nonincreasing={nonincreasing}, worst-grid "
        f"optimized>random>fixed at all powers={ordered}, coverage nondecreasing in "
        f"NLoS gain -70->-50 dB={nlos_monotone}, {dt:.1f}s (limit 120s)",
    )


def test_criterion_7_visibility_properties_hold():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(100):
        scn = random_scenario(rng, k_max=2)
        vis = compute_visibility(scn.layout, scn.taps, scn.blockages, scn.grid)
        mirrored = [
            Blockage(
                x_min=b.x_min, x_max=b.x_max, y_min=-b.y_max, y_max=-b.y_min, height=b.height
            )
            for b in scn.blockages
        ]
        vm = compute_visibility(scn.layout, scn.taps, mirrored, scn.grid)
        ok &= np.array_equal(vm.los, vis.los[::-1, :, :, ::-1])
        ok &= np.array_equal(vm.valid, vis.valid[:, ::-1])
        if scn.blockages:
            b = scn.blockages[0]
            grown = [
                Blockage(
                    x_min=b.x_min - 1.0,
                    x_max=b.x_max + 1.0,
                    y_min=b.y_min - 1.0,
                    y_max=b.y_max + 1.0,
                    height=min(b.height + 1.0, scn.layout.height - 1e-6),
                ),
                *scn.blockages[1:],
            ]
            vg = compute_visibility(scn.layout, scn.taps, grown, scn.grid)
            ok &= bool(np.all(vg.los <= vis.los)) and bool(np.all(vg.valid <= vis.valid))
        vempty = compute_visibility(scn.layout, scn.taps, [], scn.grid)
        ok &= bool(vempty.los.all()) and bool(vempty.valid.all())
    dt = time.perf_counter() - t0
    _report(
        7,
        ok and dt < 20.0,
        f"mirror symmetry, blockage-growth monotonicity, and no-blockage all-ones on "
        f"100 random scenarios: all hold={ok}, {dt:.1f}s (limit 20s)",
    )


def test_criterion_8_repeat_runs_are_byte_identical(tmp_path):
    argv = [
        "sweep-threshold",
        "--config",
        "table1",
        "--grid-scale",
        "0.1",
        "--gammas",
        "12,18,24",
        "--seed",
        "7",
    ]
    outs = []
    rc_ok = True
    for name in ("first", "second"):
        out = tmp_path / name
        rc_ok &= main([*argv, "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    same = rc_ok and names == sorted(p.name for p in outs[1].iterdir()) and len(names) > 0
    for f in names:
        same &= (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
    _report(
        8,
        same,
        f"two sweep-threshold runs with one config and seed: files {names} byte-identical",
    )
