"""Batch command line: precompute gain maps, plan activations, export results.

Every subcommand loads one scenario and plans without writing anything.
--out is created only after planning succeeds, so a refused run leaves none.
Then the products are written into it, then <name>_summary.json, and last one
note to stderr names every file written. File outputs are deterministic for
a fixed scenario and seed. Exit codes: 0 ok, 2 validation problem, 3 budget
refusal, 4 IO failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import zipfile
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .channel import _selection_array, avg_snr, db_to_linear, linear_to_db
from .coverage import Activation, BudgetError, _require_valid, coordinate_ascent, emit_milp, exact_enumerate
from .geometry import CandidateGrid, GeometryError
from .mapio import MAP_FORMATS, export_map
from .minmax import bisection_maxmin, exact_maxmin
from .scenario import Scenario, ScenarioError, load_bundled, load_scenario
from .sweeps import N_RANDOM_DRAWS, RunSummary, _baseline, power_sweep, threshold_sweep

DEFAULT_THRESHOLDS_DB = "12,15,18,21,24,27,30"
DEFAULT_POWERS_DBM = "30,35,40,45"


def _resolve_scenario(args) -> Scenario:
    path = Path(args.config)
    if path.exists():
        scn = load_scenario(path)
    elif path.suffix == "" and "/" not in args.config:
        scn = load_bundled(args.config)  # bare name: try the bundled set
    else:
        raise FileNotFoundError(f"scenario file not found: {args.config}")
    if args.grid_scale is not None:
        scn = scn.with_grid_scale(args.grid_scale)
    if args.seed is not None:
        scn = replace(scn, solver=replace(scn.solver, seed=args.seed))
    return scn


def _write_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Uncompressed npz with a frozen timestamp so reruns are byte-identical.

    Each member holds the bytes `np.lib.format.write_array` gives a
    C-contiguous array of a plain dtype: a version 1.0 header (the version
    it picks for such a header), then the array's own buffer, passed to the
    zip member as one flat memoryview. So no copy of an array is made, not
    even in the 16 MiB chunks `write_array` formats for a zip member.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w") as fh:
                np.lib.format.write_array_header_1_0(fh, np.lib.format.header_data_from_array_1_0(arr))
                fh.write(memoryview(arr.reshape(-1).view(np.uint8)))


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float above zero."""
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _int_at_least(low: int, wanted: str):
    """argparse type: an integer of at least `low`, named `wanted` when refused."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return parse


_seed = _int_at_least(0, "a non-negative integer")
_count = _int_at_least(1, "an integer of at least 1")
_tap_index = _int_at_least(1, "a 1-based tap index")


def _threshold_db(text: str) -> float:
    """argparse type: a finite dB value whose linear value does not overflow."""
    value = _finite_float(text)
    try:
        db_to_linear(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _float_list(item):
    """argparse type: comma-separated `item` values; empty entries are skipped, but one value is needed."""

    def parse(text: str) -> list[float]:
        values = [item(tok) for tok in text.split(",") if tok.strip() != ""]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers, got {text!r}")
        return values

    return parse


def _activation(text: str) -> Activation:
    """argparse type: comma-separated 1-based tap indices (their count is checked against the scenario)."""
    return Activation.from_one_based(_tap_index(tok) for tok in text.split(","))


def _lp_file_name(text: str) -> str:
    """argparse type: a plain file name in --out that no other coverage product uses."""
    if text in ("", ".", "..", "coverage_map.csv", "coverage_summary.json") or Path(text).name != text:
        raise argparse.ArgumentTypeError(
            f"expected a plain file name other than coverage_map.csv and coverage_summary.json, got {text!r}"
        )
    return text


# Each _cmd_* plans one subcommand and writes nothing. It returns its products
# as ordered (file name, writer) pairs, the method, the objective and the
# 1-based activation (or None); `_run` calls each writer on its path in --out
# and turns the last three into the summary.
def _cmd_gainmap(scn, args):
    vis = scn.visibility()
    gm = scn.gain_map(vis)
    arrays = {
        "gains": gm.gains,
        "los": vis.los,
        "valid": gm.valid,
        "x_centers": scn.grid.x_centers(),
        "y_centers": scn.grid.y_centers(),
    }
    objective = {
        "blocked_fraction": float(1.0 - vis.los.mean()),
        "valid_cells": int(np.count_nonzero(gm.valid)),
        "total_cells": int(gm.valid.size),
    }
    return [("gainmap.npz", partial(_write_npz, arrays=arrays))], "gainmap", objective, None


def _cmd_coverage(scn, args):
    gm = scn.gain_map()
    thr_db = scn.solver.threshold_db if args.gamma_db is None else args.gamma_db
    thr = db_to_linear(thr_db)
    if args.exact:
        res = exact_enumerate(gm, scn.params, thr)
    else:
        res = coordinate_ascent(
            Activation.centered(gm.n_waveguides, gm.n_taps),
            gm,
            scn.params,
            thr,
            max_sweeps=scn.solver.max_sweeps,
            restarts=args.restarts,
            seed=scn.solver.seed,
        )
    field = avg_snr(res.activation.as_array(), gm, scn.params)
    products = [("coverage_map.csv", partial(export_map, field, gm.valid, scn.grid))]
    if args.milp is not None:
        products.append((args.milp, partial(emit_milp, gm, scn.params, thr)))
    objective = {
        "threshold_db": thr_db,
        "covered_count": res.covered_count,
        "coverage_fraction": res.coverage_fraction,
        "sweeps_used": res.sweeps_used,
    }
    return products, f"coverage/{res.method}", objective, res.activation.one_based()


def _cmd_minmax(scn, args):
    gm = scn.gain_map()
    eps_t = scn.solver.eps_t if args.eps_t is None else args.eps_t
    if args.exact:
        res = exact_maxmin(gm, scn.params)
    else:
        res = bisection_maxmin(
            gm,
            scn.params,
            eps_t=eps_t,
            max_sweeps=scn.solver.max_sweeps,
            seed=scn.solver.seed,
        )
    objective = {
        "worst_grid_db": linear_to_db(res.t_star),
        "worst_grid_linear": res.t_star,
        "bisection_iters": res.bisection_iters,
        "feasibility_evals": res.feasibility_evals,
        "eps_t": eps_t,
        **_certificate(res),
    }
    field = avg_snr(res.activation.as_array(), gm, scn.params)
    products = [("minmax_map.csv", partial(export_map, field, gm.valid, scn.grid))]
    method = "minmax/" + ("exact" if res.exact else "bisection")
    return products, method, objective, res.activation.one_based()


def _certificate(res) -> dict:
    """The certified max-min optimum (null when the search ran out of nodes), the envelope bound and the search's node count."""
    db = None if res.certified is None else linear_to_db(res.certified)
    return {"certified_db": db, "upper_bound_db": linear_to_db(res.upper_bound), "bnb_nodes": res.bnb_nodes}


def _cmd_baseline(scn, args):
    stats, fixed_field, valid = _baseline(scn, args.draws)
    return [("fixed_map.csv", partial(export_map, fixed_field, valid, scn.grid))], "baseline", stats, None


def _cmd_sweep_threshold(scn, args):
    table = threshold_sweep(scn, args.gammas, exact=args.exact, n_random=args.draws)
    objective = {
        "thresholds_db": args.gammas,
        "optimized": table.columns.get("optimized"),
        "random_mean": table.columns.get("random_mean"),
        "fixed": table.columns.get("fixed"),
    }
    method = "sweep-threshold/" + ("exact" if args.exact else "coordinate_ascent")
    return [("threshold_sweep.csv", table.write_csv)], method, objective, None


def _cmd_sweep_power(scn, args):
    table, minmax_res = power_sweep(scn, args.powers, n_random=args.draws, exact=args.exact)
    objective = {
        "powers_dbm": args.powers,
        "optimized_db": table.columns.get("optimized_db"),
        "random_mean_db": table.columns.get("random_mean_db"),
        "fixed_db": table.columns.get("fixed_db"),
        **_certificate(minmax_res),
    }
    method = "sweep-power/" + ("exact" if args.exact else "bisection")
    return [("power_sweep.csv", table.write_csv)], method, objective, minmax_res.activation.one_based()


def _cmd_map(scn, args):
    act = args.activation
    sel = _selection_array(act.selected, scn.layout.count, scn.taps.count)
    # visibility and gains are per tap point, so a map of the chosen taps alone
    # gives the field of the full tensor bit for bit
    chosen = CandidateGrid(x_taps=scn.taps.x_taps[np.arange(len(sel)), sel][:, None])
    gm = replace(scn, taps=chosen).gain_map()
    _require_valid(gm)
    field = avg_snr(np.zeros_like(sel), gm, scn.params)
    objective = {"worst_valid_db": linear_to_db(float(field[gm.valid].min())), "format": args.format}
    products = [(f"map.{args.format}", partial(export_map, field, gm.valid, scn.grid, fmt=args.format))]
    return products, "map", objective, act.one_based()


def _run(args) -> None:
    """Plan one subcommand, then create --out, write its products and its summary, and name every file on stderr."""
    t0 = time.perf_counter()
    scn = _resolve_scenario(args)
    products, method, objective, activation = args.func(scn, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, write in products:
        written.append(str(out / name))  # a str: emit_milp takes a str path or a text stream
        write(written[-1])
    summary = RunSummary(
        digest=scn.digest(),
        method=method,
        objective=objective,
        activation=activation,
        seed=scn.solver.seed,
        wall_time_s=time.perf_counter() - t0,
    )
    written.append(str(out / args.summary))
    with open(written[-1], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary.to_json())
    print(f"[pinchplan] {args.command}: wrote {', '.join(written)} in {summary.wall_time_s:.2f} s", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="scenario JSON path, or a bundled name like 'table1'")
    common.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
    common.add_argument("--out", default="out", help="output directory (created if missing)")
    common.add_argument("--grid-scale", type=_finite_float, default=None, help="rescale grid resolution by this factor")

    parser = argparse.ArgumentParser(prog="pinchplan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pinchplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, summary: str, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(func=func, summary=summary)
        return p

    add("gainmap", _cmd_gainmap, "gainmap_summary.json", "precompute and store the gain tensor")

    p = add("coverage", _cmd_coverage, "coverage_summary.json", "maximize threshold coverage")
    p.add_argument("--exact", action="store_true", help="enumerate every activation (budget-guarded)")
    p.add_argument("--gamma-db", type=_threshold_db, default=None, help="SNR threshold in dB (default: scenario value)")
    p.add_argument("--restarts", type=_count, default=1, help="ascent runs: the centered start, then seeded draws")
    p.add_argument("--milp", type=_lp_file_name, default=None, metavar="FILE", help="also write the MILP as an LP file in --out")

    p = add("minmax", _cmd_minmax, "minmax_summary.json", "maximize the worst-grid average SNR")
    p.add_argument("--exact", action="store_true", help="certified optimum by branch-and-bound (budget-guarded)")
    p.add_argument("--eps-t", type=_positive_float, default=None, help="bisection bracket width, linear SNR")

    p = add("baseline", _cmd_baseline, "baseline_summary.json", "fixed-array and random-activation references")
    p.add_argument("--draws", type=_count, default=N_RANDOM_DRAWS, help="random activations to average (at least 1)")

    p = add("sweep-threshold", _cmd_sweep_threshold, "threshold_sweep_summary.json", "coverage versus SNR threshold")
    p.add_argument("--exact", action="store_true", help="enumerate every activation (budget-guarded)")
    p.add_argument("--gammas", type=_float_list(_threshold_db), default=DEFAULT_THRESHOLDS_DB, help="comma-separated thresholds in dB")
    p.add_argument("--draws", type=_count, default=N_RANDOM_DRAWS, help="random activations to average (at least 1)")

    p = add("sweep-power", _cmd_sweep_power, "power_sweep_summary.json", "worst-grid SNR versus transmit power")
    p.add_argument("--exact", action="store_true", help="certified optimum by branch-and-bound (budget-guarded)")
    p.add_argument("--powers", type=_float_list(_finite_float), default=DEFAULT_POWERS_DBM, help="comma-separated powers in dBm")
    p.add_argument("--draws", type=_count, default=N_RANDOM_DRAWS, help="random activations to average (at least 1)")

    p = add("map", _cmd_map, "map_summary.json", "export the SNR map of a given activation")
    p.add_argument("--activation", type=_activation, required=True, help="comma-separated 1-based tap indices, one per waveguide")
    p.add_argument("--format", choices=MAP_FORMATS, default="csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
    except BudgetError as exc:
        print(f"pinchplan: budget refusal: {exc}", file=sys.stderr)
        return 3
    except (ScenarioError, GeometryError, ValueError) as exc:
        print(f"pinchplan: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pinchplan: io error: {exc}", file=sys.stderr)
        return 4
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
