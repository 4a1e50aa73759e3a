"""pinchplan benchmark: closed-loop batch jobs through `pinchplan.cli.main`.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/`. One client runs one job at a time in this one process. A pass is
one run of the workload's job list (see workloads.py). The first pass is a
warm-up and is not timed; then passes repeat until `--seconds` have
elapsed (at least one). Every job's output is checked, and a repeated job
must write byte-identical products.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports its per-layer metrics: in each pass every job runs twice in a row,
once plain and once with every public function of the layer modules
wrapped at its call sites. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The seed, the scenario digest and
per-command statistics go to the lines before it and, with the spans of a
traced run, to `.perfbench/results/`.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per core, set before numpy is first imported (by
# checks and workloads below) and inherited by the set-up probes.
THREADS = str(os.cpu_count() or 1)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from checks import Reference, check_job, check_ordering, read_summary  # noqa: E402
from spans import Tracer, job_conservation_errors, layer_metrics, write_jsonl  # noqa: E402
from workloads import (  # noqa: E402
    COMMON_COMMANDS, HEURISTIC_COVERAGE, JOB_KINDS, PLAN, WORKLOADS, load_reference, prepare,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# Set-up probes run until SETUP_SECONDS have passed, and at least SETUP_MIN_PROBES.
SETUP_SECONDS = 4.0
SETUP_MIN_PROBES = 3
WARMUP_SCALE = "0.25"


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        _die("--seed must be non-negative")
    if not args.seconds > 0:
        _die("--seconds must be positive")
    return args


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(values: list[float]) -> dict:
    """Median and the highest of p50/p90/p99 with at least ten samples beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    for p in (99, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            break
    return out


def products_digest(out: Path) -> tuple[str, int]:
    """sha256 over every product file's name and bytes, and their total size."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(hashlib.file_digest(fh, "sha256").digest())
        total += path.stat().st_size
    return h.hexdigest(), total


class Runner:
    """Runs passes of one workload's job list and keeps what the checks need."""

    def __init__(self, workload, flags: list[str], work: Path) -> None:
        import pinchplan.cli

        self.cli = pinchplan.cli
        self.workload = workload
        self.flags = flags
        self.work = work
        self.attempted = 0
        self.runs = [0] * len(workload.jobs)
        self.failed_runs = [0] * len(workload.jobs)
        self.other_failed = 0  # set-up probes
        self.problems: list[str] = []
        self.first_digest: dict[tuple[int, str | None], str] = {}
        self.last_argv: dict[int, list[str]] = {}
        self.output_bytes: dict[int, int] = {}  # job -> bytes of its last full-scale products

    def fail(self, i: int, message: str, all_runs: bool = False) -> None:
        self.failed_runs[i] = self.runs[i] if all_runs else self.failed_runs[i] + 1
        self.problems.append(f"job {i} ({' '.join(self.workload.jobs[i].argv)}): {message}")

    @property
    def failed(self) -> int:
        return sum(self.failed_runs) + self.other_failed

    def run_job(self, i: int, plan: str | None, scale: str | None = None, tracer=None):
        """Run job `i` once; returns (seconds or None, summary or None).

        `scale` appends `--grid-scale`; products of such runs are neither
        checked nor compared with full-scale runs.
        """
        job = self.workload.jobs[i]
        self.attempted += 1
        self.runs[i] += 1
        if PLAN in job.argv and plan is None:
            self.fail(i, "no coverage plan earlier in the pass to render")
            return None, None
        out = self.work / f"job{i}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [plan if a == PLAN else a for a in job.argv]
        flags = self.flags + (["--grid-scale", scale] if scale else [])
        if scale is None:
            self.last_argv[i] = argv
        if tracer is not None:
            tracer.job = i
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stderr(err):
                rc = self.cli.main(argv + flags + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # a traceback is a failed job, not a failed benchmark
            rc = f"traceback {exc!r}"
        seconds = time.perf_counter() - t0
        if rc != 0:
            self.fail(i, f"exit {rc}: {err.getvalue().strip()[-300:]}")
            return seconds, None
        doc, problems = read_summary(argv[0], out)
        if doc is None:
            self.fail(i, "; ".join(problems))
            return seconds, None
        digest, nbytes = products_digest(out)
        if scale is None:
            self.output_bytes[i] = nbytes
        if self.first_digest.setdefault((i, scale), digest) != digest:
            self.fail(i, "products differ from an earlier run of this job in this run")
        return seconds, doc

    def run_pass(self, tracer=None, scale: str | None = None) -> list[tuple[str, float]]:
        """One pass of the job list; returns (kind, seconds) per job run."""
        timings = []
        plan = None
        for i, job in enumerate(self.workload.jobs):
            seconds, doc = self.run_job(i, plan, scale, tracer)
            if seconds is not None:
                timings.append((job.kind, seconds))
            if doc is not None and job.kind in HEURISTIC_COVERAGE and plan is None:
                plan = ",".join(str(m) for m in doc["activation"])
        return timings

    def run_paired_pass(self, tracer, flip: int):
        """One pass in which each job runs twice in a row, plain and traced.

        The order of the two runs alternates from job to job and, through
        `flip`, from pass to pass, so that drift and cache effects fall on
        both. Returns (plain timings, traced timings, spans).
        """
        plain, traced = [], []
        plan = None
        for i, job in enumerate(self.workload.jobs):
            for with_trace in ((True, False) if (i + flip) % 2 else (False, True)):
                if with_trace:
                    tracer.install()
                try:
                    seconds, doc = self.run_job(i, plan, tracer=tracer if with_trace else None)
                finally:
                    tracer.uninstall()
                if seconds is not None:
                    (traced if with_trace else plain).append((job.kind, seconds))
                if doc is not None and job.kind in HEURISTIC_COVERAGE and plan is None:
                    plan = ",".join(str(m) for m in doc["activation"])
        return plain, traced, tracer.take()

    def check_last_pass(self, ref) -> dict[int, dict]:
        """Check the products the last pass left; every earlier run wrote the same bytes."""
        summaries = {}
        for i, argv in self.last_argv.items():
            doc, problems = check_job(argv, self.work / f"job{i}", ref)
            for message in problems:
                self.fail(i, message, all_runs=True)
            if doc is not None:
                summaries[i] = doc
        by_kind = {}
        for i, doc in summaries.items():
            by_kind.setdefault(self.workload.jobs[i].kind, doc)
        for kind, message in check_ordering(by_kind):
            self.fail(next(i for i, j in enumerate(self.workload.jobs) if j.kind == kind), message, all_runs=True)
        return summaries


def timed_passes(run_pass, seconds: float) -> list:
    """At least one pass, then more while the next one should end within `seconds`.

    `run_pass(k)` runs the k-th pass and returns what it measured.
    """
    passes = []
    start = last = time.perf_counter()
    while not passes or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        passes.append(run_pass(len(passes)))
    return passes


def by_kind(passes) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for timings in passes:
        for kind, sec in timings:
            out.setdefault(kind, []).append(sec)
    return out


def command_metrics(passes) -> dict[str, float]:
    """Per-command numbers of the plain (untraced) runs.

    Commands that every workload runs get their median seconds (`coverage`
    counts every heuristic coverage job); the others get their median share
    of the pass, which is 0 where a workload does not run them.
    """
    kinds = by_kind(passes)
    out = {}
    for cmd in COMMON_COMMANDS:
        members = HEURISTIC_COVERAGE if cmd == "coverage" else (cmd,)
        out[f"cmd.{cmd}_s"] = statistics.median(v for k in members for v in kinds.get(k, []))
    for kind in JOB_KINDS:
        if kind not in COMMON_COMMANDS:
            out[f"cmd.{kind}_pass_share"] = statistics.median(
                sum(sec for k, sec in timings if k == kind) / sum(sec for _, sec in timings) for timings in passes
            )
    return out


def pass_seconds(passes) -> list[float]:
    """Batch makespan of each pass: the jobs' wall times, without the checks."""
    return [sum(sec for _, sec in timings) for timings in passes]


def setup_seconds(config: str, scale) -> float:
    """Median cold set-up time over fresh interpreters; raises on a failed probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_PROBES or time.perf_counter() - start < SETUP_SECONDS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), config, "none" if scale is None else repr(scale)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _plans(workload, summaries: dict[int, dict]):
    """Heuristic coverage plans (threshold_db, fraction, activation) and max-min plans (dB)."""
    coverage, worst = [], []
    for i, doc in sorted(summaries.items()):
        kind, obj = workload.jobs[i].kind, doc["objective"]
        if kind in HEURISTIC_COVERAGE:
            coverage.append((obj["threshold_db"], obj["coverage_fraction"], doc["activation"]))
        elif kind == "sweep_threshold":
            coverage += [(g, f, None) for g, f in zip(obj["thresholds_db"], obj["optimized"])]
        elif kind == "minmax":
            worst.append(obj["worst_grid_db"])
    return coverage, worst


def quality_metrics(workload, summaries, ref) -> dict[str, float]:
    """Mean heuristic coverage fraction, and the worst-grid dB of the max-min plans.

    A workload without a max-min job reports the worst grid of its coverage
    plans instead, so the metric exists on every workload.
    """
    from pinchplan import linear_to_db, worst_grid_snr

    coverage, worst = _plans(workload, summaries)
    if not worst:
        worst = [linear_to_db(worst_grid_snr([m - 1 for m in act], ref.gain_map, ref.params))
                 for _, _, act in coverage if act is not None]
    return {
        "coverage_fraction": statistics.fmean(f for _, f, _ in coverage) if coverage else 0.0,
        "worst_grid_db": statistics.fmean(worst) if worst else 0.0,
    }


def reference_gaps(workload, summaries, ref) -> dict[str, float]:
    """Gaps to the exact optimum, where enumeration fits the budget, and to the max-min bound."""
    from pinchplan import BudgetError, db_to_linear, exact_enumerate, exact_maxmin, linear_to_db

    coverage, worst = _plans(workload, summaries)
    out = {"coverage.gap_pp": 0.0, "minmax.gap_db": 0.0, "minmax.bound_gap_db": 0.0}
    if worst:
        out["minmax.bound_gap_db"] = statistics.fmean(linear_to_db(ref.upper_bound) - w for w in worst)
    try:
        if coverage:
            optimum = {g: exact_enumerate(ref.gain_map, ref.params, db_to_linear(g)).coverage_fraction
                       for g in sorted({g for g, _, _ in coverage})}
            out["coverage.gap_pp"] = statistics.fmean(100.0 * (optimum[g] - f) for g, f, _ in coverage)
        if worst:
            best_db = linear_to_db(exact_maxmin(ref.gain_map, ref.params).t_star)
            out["minmax.gap_db"] = statistics.fmean(best_db - w for w in worst)
    except BudgetError:
        pass  # too many activations to enumerate: no exact reference here
    return out


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = STATE / "work" / workload.name
    results = STATE / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        flags = prepare(workload, args.seed, work)
        scenario = load_reference(workload, args.seed)
        runner = Runner(workload, flags, work)
        metrics: dict[str, float] = {}
        if args.trace == 0:
            runner.attempted += 1  # the set-up probes
            try:
                metrics["setup_s"] = setup_seconds(flags[1], workload.grid_scale)
            except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
                metrics["setup_s"] = 0.0
                runner.other_failed += 1
                runner.problems.append(str(exc))
        # Warm-up, not timed. On a full grid only the first job's time differs
        # from a warm pass, so the warm-up pass runs at quarter grid there.
        runner.run_pass(scale=None if workload.grid_scale else WARMUP_SCALE)
        if args.trace == 0:
            passes = timed_passes(lambda k: runner.run_pass(), args.seconds)
        else:
            tracer = Tracer()
            pairs = timed_passes(lambda k: runner.run_paired_pass(tracer, k % 2), args.seconds)
            passes, traced, traced_spans = (list(x) for x in zip(*pairs))
        # A repeated job must write the same bytes, also where one pass was timed.
        runner.run_job(0, None)
        # The program's high-water mark, read before the checks allocate their own arrays.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref = Reference(scenario)
        summaries = runner.check_last_pass(ref)

        kinds = by_kind(passes)
        if args.trace == 0:
            metrics["pass_s"] = statistics.median(pass_seconds(passes))
            metrics.update(quality_metrics(workload, summaries, ref))
            metrics["peak_rss_mb"] = peak_rss_mb
        else:
            per_pass = [layer_metrics(spans) for spans in traced_spans]
            metrics.update({name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]})
            metrics.update(command_metrics(passes))
            metrics["cli.output_bytes"] = sum(runner.output_bytes.values())
            metrics.update(reference_gaps(workload, summaries, ref))
            # Each traced run sits next to a plain run of the same job, so drift cancels.
            metrics["trace.overhead_s"] = statistics.median(
                t - u for t, u in zip(pass_seconds(traced), pass_seconds(passes)))
            for spans in traced_spans:
                for job, message in job_conservation_errors(spans):
                    runner.fail(job, message)
            write_jsonl(results / f"{workload.name}-seed{args.seed}-spans.jsonl", traced_spans)
        failed = runner.failed
        if args.trace == 0:
            metrics["ok_share"] = 1.0 - failed / runner.attempted

        units = declared_metrics(args.trace)
        if set(metrics) != set(units):
            _die(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
        result = {
            "correct": failed == 0,
            "attempted": runner.attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
        detail = {
            "workload": workload.name,
            "seed": args.seed,
            "scenario_digest": scenario.digest(),
            "trace": args.trace,
            "pass_s": summarize(pass_seconds(passes)),
            "commands": {k: summarize(v) for k, v in sorted(kinds.items())},
            "problems": runner.problems,
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": numpy.__version__, "blas_threads": THREADS},
        }
        with open(results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
            json.dump({"detail": detail, "result": result}, fh, indent=1, sort_keys=True)
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pinchplan" / "__init__.py").is_file():
        _die(f"no pinchplan sources at {SRC}; run from the root of a pinchplan checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        _die(f"no BENCHMARK.json at {ROOT}")
    sys.path.insert(0, str(SRC))
    import pinchplan

    if Path(pinchplan.__file__).resolve().parent != (SRC / "pinchplan").resolve():
        _die(f"imported pinchplan from {pinchplan.__file__}, not from {SRC}")
    result, detail = run(args)
    print(f"perfbench: workload={detail['workload']} seed={detail['seed']} "
          f"digest={detail['scenario_digest']} passes={detail['pass_s']['n']}")
    for kind, stats in detail["commands"].items():
        print(f"perfbench:   {kind:16s} " + " ".join(f"{k}={v:.6g}" for k, v in stats.items()))
    for message in detail["problems"]:
        print(f"perfbench: FAILED {message}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
