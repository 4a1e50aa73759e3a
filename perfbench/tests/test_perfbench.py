"""Tests of the benchmark itself: output checks, the stress generator and span plumbing.

The CLI outputs come from table1 on a 20x6 grid, so the whole module runs
in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pinchplan import load_bundled, scenario_from_dict  # noqa: E402
from pinchplan.cli import main as cli_main  # noqa: E402

SCALE = "0.05"
FLAGS = ["--config", "table1", "--grid-scale", SCALE]
JOBS = {
    "gainmap": ["gainmap"],
    "coverage": ["coverage"],
    "coverage_exact": ["coverage", "--exact"],
    "coverage_milp": ["coverage", "--milp", "cover.lp"],
    "minmax": ["minmax"],
    "minmax_exact": ["minmax", "--exact"],
    "baseline": ["baseline"],
    "map": ["map", "--format", "pgm", "--activation", "2,6,9,4"],
    "sweep_threshold": ["sweep-threshold", "--gammas", "18,21,24"],
    "sweep_power": ["sweep-power", "--powers", "35,40"],
}


@pytest.fixture(scope="module")
def ref():
    return checks.Reference(load_bundled("table1").with_grid_scale(float(SCALE)))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("jobs")
    for kind, argv in JOBS.items():
        assert cli_main(argv + FLAGS + ["--out", str(root / kind)]) == 0
    return root


def _copy(outputs: Path, kind: str, tmp_path: Path) -> Path:
    dst = tmp_path / kind
    shutil.copytree(outputs / kind, dst)
    return dst


def _tamper(out: Path, argv, edit) -> None:
    path = out / checks.SUMMARY_FILES[argv[0]]
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("kind", sorted(JOBS))
def test_untouched_outputs_pass(kind, outputs, ref):
    doc, problems = checks.check_job(JOBS[kind], outputs / kind, ref)
    assert doc is not None and problems == []


def _bump(key, delta):
    def edit(doc):
        doc["objective"][key] += delta
    return edit


def _bump_list(key, delta):
    def edit(doc):
        doc["objective"][key][0] += delta
    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


TAMPERS = [
    ("gainmap", _bump("valid_cells", 1)),
    ("gainmap", _bump("blocked_fraction", 1e-3)),
    ("coverage", _bump("covered_count", -1)),
    ("coverage", _bump("coverage_fraction", 1e-3)),
    ("coverage", _set("activation", [1, 1, 1, 1])),
    ("coverage", _set("method", "coverage/exact")),
    ("coverage_exact", _bump("covered_count", 1)),
    ("coverage_milp", _bump("covered_count", 1)),
    ("minmax", _bump("worst_grid_linear", 1.0)),
    ("minmax", _bump("worst_grid_db", 0.01)),
    ("minmax", _set("activation", [1, 1, 1])),
    ("minmax_exact", _bump("worst_grid_db", -0.01)),
    ("baseline", _bump("fixed_coverage", 1e-3)),
    ("baseline", _bump("fixed_worst_db", 0.01)),
    ("baseline", _bump("random_coverage_mean", 1e-3)),
    ("baseline", _bump("random_worst_db_mean", 0.01)),
    ("map", _bump("worst_valid_db", 0.01)),
    ("map", _set("activation", [2, 6, 9, 5])),
    ("sweep_threshold", _bump_list("optimized", 1e-3)),
    ("sweep_power", _bump_list("optimized_db", 0.01)),
    ("coverage", _set("digest", "0" * 64)),
]


@pytest.mark.parametrize("kind,edit", TAMPERS, ids=[f"{k}-{i}" for i, (k, _) in enumerate(TAMPERS)])
def test_each_check_catches_a_tampered_summary(kind, edit, outputs, ref, tmp_path):
    out = _copy(outputs, kind, tmp_path)
    _tamper(out, JOBS[kind], edit)
    _, problems = checks.check_job(JOBS[kind], out, ref)
    assert problems


def test_unparsable_or_reshaped_summary_is_caught(outputs, ref, tmp_path):
    out = _copy(outputs, "coverage", tmp_path)
    path = out / "coverage_summary.json"
    path.write_text(path.read_text()[:-20])
    assert checks.check_job(JOBS["coverage"], out, ref)[0] is None
    path.write_text(json.dumps({"objective": {}}))
    assert checks.check_job(JOBS["coverage"], out, ref)[1]


def test_tampered_products_are_caught(outputs, ref, tmp_path):
    out = _copy(outputs, "gainmap", tmp_path)
    (out / "gainmap.npz").write_bytes(b"not a zip")
    assert checks.check_job(JOBS["gainmap"], out, ref)[1]
    out = _copy(outputs, "map", tmp_path)
    (out / "map.pgm").write_text("P2\n# x\n3 3\n255\n")
    assert checks.check_job(JOBS["map"], out, ref)[1]


def test_ordering_check_flags_heuristic_above_exact(outputs):
    summaries = {k: checks.read_summary(JOBS[k][0], outputs / k)[0]
                 for k in ("coverage", "coverage_exact", "minmax", "minmax_exact")}
    assert checks.check_ordering(summaries) == []
    summaries["coverage"]["objective"]["covered_count"] = summaries["coverage_exact"]["objective"]["covered_count"] + 1
    summaries["minmax"]["objective"]["worst_grid_linear"] *= 2
    assert [k for k, _ in checks.check_ordering(summaries)] == ["coverage_exact", "minmax_exact"]


def _tiny_runner(tmp_path, jobs):
    workload = workloads.Workload("tiny", workloads._jobs(*jobs), grid_scale=float(SCALE))
    return run.Runner(workload, FLAGS, tmp_path)


def test_runner_counts_failed_checks_and_nondeterminism(tmp_path, ref):
    runner = _tiny_runner(tmp_path, [("coverage", ["coverage"]),
                                     ("map", ["map", "--activation", workloads.PLAN])])
    runner.run_pass(scale="0.1")  # another grid: not compared with the full-scale runs
    runner.run_pass()
    runner.run_pass()
    assert runner.attempted == 6 and runner.failed == 0
    runner.check_last_pass(ref)
    assert runner.failed == 0 and runner.problems == []

    _tamper(tmp_path / "job0", ["coverage"], _bump("covered_count", 1))
    runner.check_last_pass(ref)
    assert runner.failed == 3  # every run of the coverage job is counted failed

    runner.first_digest[(1, None)] = "differs"
    runner.run_pass()
    assert runner.failed_runs[1] == 1 and "differ" in runner.problems[-1]


def test_paired_pass_runs_each_job_plain_and_traced(tmp_path):
    import pinchplan.scenario

    original = pinchplan.scenario.compute_visibility
    runner = _tiny_runner(tmp_path, [("coverage", ["coverage"]),
                                     ("map", ["map", "--activation", workloads.PLAN])])
    for flip in (0, 1):
        plain, traced, recorded = runner.run_paired_pass(spans.Tracer(), flip)
        assert [k for k, _ in plain] == [k for k, _ in traced] == ["coverage", "map"]
        assert sorted(s.job for s in recorded if s.parent is None) == [0, 1]  # traced runs only
        assert pinchplan.scenario.compute_visibility is original
    # plain and traced runs of a job are compared byte for byte
    assert runner.attempted == 8 and runner.failed == 0
    assert set(runner.output_bytes) == {0, 1} and all(n > 0 for n in runner.output_bytes.values())


def test_runner_counts_failing_exits(tmp_path):
    runner = _tiny_runner(tmp_path, [("coverage", ["coverage", "--gamma-db=nan"]),
                                     ("coverage", ["coverage", "--no-such-flag"])])
    runner.run_pass()
    assert runner.failed == 2 and all("exit 2" in p for p in runner.problems)


def test_stress_generator_is_seeded_and_valid():
    a = scenario_from_dict(workloads.stress_scenario_dict(7))
    b = scenario_from_dict(workloads.stress_scenario_dict(7))
    c = scenario_from_dict(workloads.stress_scenario_dict(8))
    assert a.digest() == b.digest() != c.digest()
    assert (a.layout.count, a.taps.count, len(a.blockages)) == (6, 16, 12)
    assert (a.grid.nx, a.grid.ny, a.solver.threshold_db) == (400, 120, 27.0)


def test_self_times_add_up_to_each_job_span():
    s = spans.Span
    good = [s("cli.main", 0.0, 10.0, None, 0), s("a", 1.0, 3.0, 0, 0), s("b", 4.0, 8.0, 0, 0),
            s("c", 5.0, 6.0, 2, 0), s("cli.main", 10.0, 12.0, None, 1)]
    assert spans.self_times(good) == [4.0, 2.0, 3.0, 1.0, 2.0]
    assert spans.job_conservation_errors(good) == []
    orphan = good + [s("d", 8.5, 9.0, None, 0)]
    assert spans.job_conservation_errors(orphan)


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    import pinchplan.cli
    import pinchplan.scenario

    original = pinchplan.scenario.compute_visibility
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pinchplan.scenario.compute_visibility is not original
        for job, argv in enumerate((JOBS["coverage_milp"], JOBS["map"], JOBS["sweep_power"])):
            tracer.job = job
            assert pinchplan.cli.main(argv + FLAGS + ["--out", str(tmp_path / str(job))]) == 0
    finally:
        tracer.uninstall()
    assert pinchplan.scenario.compute_visibility is original
    recorded = tracer.take()
    assert spans.job_conservation_errors(recorded) == []
    assert {r.name for r in recorded if r.parent is None} == {"cli.main"}
    m = spans.layer_metrics(recorded)
    assert m["geometry.visibility_calls"] == 3  # one gain map per job
    assert m["coverage.ascent_updates"] > 0 and m["coverage.sweeps_used"] > 0
    assert m["coverage.milp_bytes"] == (tmp_path / "0" / "cover.lp").stat().st_size
    assert m["minmax.bisection_iters"] == m["minmax.feasibility_evals"] > 0
    assert 0 < m["minmax.feasible_share"] < 1
    assert m["mapio.pgm_bytes"] == (tmp_path / "1" / "map.pgm").stat().st_size
    assert m["sweeps.solver_calls"] == 1 and m["sweeps.gain_map_builds"] == 2
    assert m["cli.self_s"] > 0 and m["scenario.load_s"] > 0
