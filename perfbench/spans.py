"""In-memory span recording around the public functions of pinchplan's modules.

A `Tracer` replaces every public module-level function of the layer modules
with a wrapper, at each call site: every module of the package that bound
the function by name gets the wrapper, so calls from other modules and
calls within the defining module are both recorded. Nothing under `src/`
changes; `uninstall` puts the original functions back.

A span holds name, start, end, parent span index and job id. Spans nest
strictly (one thread, one job at a time), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("scenario", "geometry", "channel", "coverage", "minmax", "sweeps", "mapio", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _array_bytes(obj) -> int:
    """Bytes held by the numpy arrays among an object's attributes."""
    return sum(int(getattr(v, "nbytes", 0)) for v in vars(obj).values() if hasattr(v, "dtype"))


# Per-function counters: (name -> hook(span, bound_arguments, result)).
def _on_visibility(span, args, result):
    taps = args["taps"]
    grid = args["grid"]
    span.info["triples"] = int(taps.x_taps.size) * grid.nx * grid.ny * len(args["blockages"])


def _on_gain_map(span, args, result):
    span.info["bytes"] = _array_bytes(result)


def _on_ascent(span, args, result):
    span.info["sweeps_used"] = int(result.sweeps_used)


def _on_milp(span, args, result):
    out = args["out"]
    if isinstance(out, (str, os.PathLike)):
        span.info["bytes"] = _file_size(out)


def _on_bisection(span, args, result):
    span.info["iters"] = int(result.bisection_iters)


def _on_feasibility(span, args, result):
    span.info["feasible"] = bool(result[0])


def _on_export(span, args, result):
    span.info["format"] = args.get("fmt", "csv")
    span.info["bytes"] = _file_size(args["path"])


def _count_updates(span: Span, bound) -> None:
    """Count single-waveguide ascent updates through the public on_update hook."""
    span.info["updates"] = 0
    inner = bound.arguments.get("on_update")

    def on_update(wg, tap, count):
        span.info["updates"] += 1
        if inner is not None:
            inner(wg, tap, count)

    if "on_update" in bound.arguments:
        bound.arguments["on_update"] = on_update


# Hooks that may replace arguments before the call: (name -> hook(span, bound_arguments)).
PRE_HOOKS = {"coverage.coordinate_ascent": _count_updates}

HOOKS = {
    "geometry.compute_visibility": _on_visibility,
    "channel.precompute_gain_map": _on_gain_map,
    "coverage.coordinate_ascent": _on_ascent,
    "coverage.emit_milp": _on_milp,
    "minmax.bisection_maxmin": _on_bisection,
    "minmax.deficit_feasibility": _on_feasibility,
    "mapio.export_map": _on_export,
}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        before, after = PRE_HOOKS.get(name), HOOKS.get(name)
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, float("nan"), float("nan"),
                        tracer._stack[-1] if tracer._stack else None, tracer.job)
            bound = None
            if before is not None or after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            if before is not None:
                before(span, bound)
                args, kwargs = bound.args, bound.kwargs
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(span, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules at all of its call sites."""
        layers = {layer: importlib.import_module(f"pinchplan.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in layers.items():
            for attr, value in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == mod.__name__:
                    wrappers[value] = self.wrap(f"{layer}.{attr}", value)
        for mod in (importlib.import_module("pinchplan"), *layers.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def write_jsonl(path, passes: list[list[Span]]) -> None:
    """One JSON line per span; `id` and `parent` index the span's pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for p, spans in enumerate(passes):
            for i, span in enumerate(spans):
                fh.write(json.dumps({"pass": p, "id": i, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def job_conservation_errors(spans: list[Span], tol: float = 1e-9) -> list[tuple[int, str]]:
    """(job, problem) where the self times of a job's spans do not add up to its root span."""
    selfs = self_times(spans)
    by_job: dict[int, float] = {}
    for s, st in zip(spans, selfs):
        by_job[s.job] = by_job.get(s.job, 0.0) + st
    errors = []
    for s in spans:
        if s.name == "cli.main" and s.parent is None and abs(by_job[s.job] - s.duration) > tol * max(1.0, s.duration):
            errors.append((s.job, f"self times add up to {by_job[s.job]!r}, not the job span {s.duration!r}"))
    return errors


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called `name` that are not directly nested in a span of the same name."""
    return [s for s in spans if s.name == name and (s.parent is None or spans[s.parent].name != name)]


def _total(spans, name) -> float:
    return sum(s.duration for s in _outermost(spans, name))


def _under(spans: list[Span], prefix: str) -> list[bool]:
    """Whether each span has an ancestor whose name starts with `prefix`."""
    flags = []
    for s in spans:
        p = s.parent
        hit = False
        while p is not None:
            if spans[p].name.startswith(prefix):
                hit = True
                break
            p = spans[p].parent
        flags.append(hit)
    return flags


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    Times that every workload spends are in seconds. Times of functions that
    some workload never calls (the exhaustive searches, the LP writer,
    bisection, the sweeps) are shares of the pass, so that no time metric
    reads exactly zero; multiply by the pass time for seconds.
    """
    pass_s = sum(s.duration for s in spans if s.parent is None)

    def share(name: str) -> float:
        return _total(spans, name) / pass_s

    m: dict[str, float] = {}
    m["scenario.load_s"] = _total(spans, "scenario.load_scenario") + _total(spans, "scenario.load_bundled")

    vis = _outermost(spans, "geometry.compute_visibility")
    m["geometry.visibility_s"] = sum(s.duration for s in vis)
    m["geometry.visibility_calls"] = len(vis)
    m["geometry.triples_per_s"] = sum(s.info.get("triples", 0) for s in vis) / m["geometry.visibility_s"]

    builds = _outermost(spans, "channel.precompute_gain_map")
    m["channel.gain_map_s"] = sum(s.duration for s in builds)
    m["channel.gain_map_bytes"] = max((s.info.get("bytes", 0) for s in builds), default=0)
    m["channel.fixed_array_s"] = _total(spans, "channel.fixed_array_gain_map")
    snr = _outermost(spans, "channel.avg_snr")
    m["channel.avg_snr_calls"] = len(snr)
    m["channel.avg_snr_s"] = sum(s.duration for s in snr)

    ascents = _outermost(spans, "coverage.coordinate_ascent")
    m["coverage.ascent_s"] = sum(s.duration for s in ascents)
    m["coverage.ascent_updates"] = sum(s.info.get("updates", 0) for s in ascents)
    m["coverage.sweeps_used"] = sum(s.info.get("sweeps_used", 0) for s in ascents)
    m["coverage.exact_pass_share"] = share("coverage.exact_enumerate")
    m["coverage.milp_pass_share"] = share("coverage.emit_milp")
    m["coverage.milp_bytes"] = sum(s.info.get("bytes", 0) for s in _outermost(spans, "coverage.emit_milp"))

    m["minmax.bisection_pass_share"] = share("minmax.bisection_maxmin")
    m["minmax.bisection_iters"] = sum(s.info.get("iters", 0) for s in _outermost(spans, "minmax.bisection_maxmin"))
    feas = _outermost(spans, "minmax.deficit_feasibility")
    m["minmax.feasibility_pass_share"] = share("minmax.deficit_feasibility")
    m["minmax.feasibility_evals"] = len(feas)
    m["minmax.feasible_share"] = sum(1 for s in feas if s.info.get("feasible")) / len(feas) if feas else 0.0
    m["minmax.exact_pass_share"] = share("minmax.exact_maxmin")

    m["sweeps.threshold_sweep_pass_share"] = share("sweeps.threshold_sweep")
    m["sweeps.power_sweep_pass_share"] = share("sweeps.power_sweep")
    m["sweeps.baseline_stats_s"] = _total(spans, "sweeps.baseline_stats")
    in_sweeps = _under(spans, "sweeps.")
    solvers = {"coverage.coordinate_ascent", "coverage.exact_enumerate",
               "minmax.bisection_maxmin", "minmax.exact_maxmin"}
    builders = {"channel.precompute_gain_map", "channel.fixed_array_gain_map"}
    m["sweeps.solver_calls"] = sum(1 for s, u in zip(spans, in_sweeps) if u and s.name in solvers)
    m["sweeps.gain_map_builds"] = sum(1 for s, u in zip(spans, in_sweeps) if u and s.name in builders)

    exports = _outermost(spans, "mapio.export_map")
    for fmt in ("csv", "pgm"):
        chosen = [s for s in exports if s.info.get("format") == fmt]
        secs = sum(s.duration for s in chosen)
        nbytes = sum(s.info.get("bytes", 0) for s in chosen)
        m[f"mapio.{fmt}_export_s"] = secs
        m[f"mapio.{fmt}_bytes"] = nbytes
        m[f"mapio.{fmt}_mb_per_s"] = nbytes / 1e6 / secs if secs > 0 else 0.0

    m["cli.self_s"] = sum(st for s, st in zip(spans, self_times(spans)) if s.name.startswith("cli."))
    return m
