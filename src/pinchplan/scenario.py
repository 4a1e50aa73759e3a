"""Scenario files: one JSON document describing a deployment end to end.

Schema (version 1; dB quantities are converted to linear once, at load):

    {
      "version": 1,
      "region":     {"x_len": 200.0, "y_len": 60.0, "height": 10.0},
      "waveguides": 4,
      "taps":       {"count": 10},            // or {"x": [[...], ...]} per waveguide
      "blockages":  [{"x_min": 10.0, "x_max": 18.0,
                      "y_min": 0.0, "y_max": 20.0, "height": 6.0}, ...],
      "grid":       {"nx": 400, "ny": 120},
      "channel":    {"freq_hz": 28.0e9, "tx_power_dbm": 40.0, "noise_dbm": -70.0,
                     "nlos_db": -60.0},
      "solver":     {"threshold_db": 18.0, "eps_t": 1.0e-3, "max_sweeps": 50, "seed": 0}
    }

The keys of "region", of each blockage, of "channel" and of "solver" are
exactly the fields of `Region`, `Blockage`, `ChannelSpec` and `SolverDefaults`;
`_section` reads an `int` field as an integer and any other as a finite number.
A field with a default may be omitted (each "solver" field; defaults as above),
as may "blockages" ([]) and "solver". Unknown keys are rejected, except two
legacy keys of older files, which are checked and ignored: "channel.n_clusters"
(the NLoS power split into clusters) takes an integer >= 1 and "channel.n_eff"
(the waveguide's refractive index, which the closed-form average SNR never
reads) a number >= 1.

Each value rule is checked in one place: `Region`, `Blockage`, `SolverDefaults`
and `ChannelParams` (through `ChannelSpec`) check their own fields,
`scenario_from_dict` the rules that join sections (blockages against the
region, the gain tensor's kept bytes against `_check_budget`), and `GainMap`,
when a map is built, its squared tap-to-cell distances and peak average SNR.
`to_dict` gives the normalized form (explicit tap coordinates), and loading
it reproduces every value exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .channel import ChannelParams, GainMap, db_to_linear, fixed_array_gain_map, precompute_gain_map
from .coverage import DEFAULT_MAX_SWEEPS, Activation, _check_budget
from .geometry import (
    Blockage,
    CandidateGrid,
    GeometryError,
    GridSpec,
    Region,
    VisibilityMap,
    WaveguideLayout,
    compute_visibility,
)
from .minmax import DEFAULT_EPS_T

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """A scenario file cannot be parsed or violates a constraint."""


@dataclass(frozen=True)
class ChannelSpec:
    """Raw channel inputs as given in the file (dB units preserved for IO)."""

    freq_hz: float
    tx_power_dbm: float
    noise_dbm: float
    nlos_db: float

    def __post_init__(self) -> None:
        self.to_params()  # ValueError when a dB value or the power ratio overflows

    def to_params(self) -> ChannelParams:
        return ChannelParams.from_db(**asdict(self))


@dataclass(frozen=True)
class SolverDefaults:
    threshold_db: float = 18.0
    eps_t: float = DEFAULT_EPS_T
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.eps_t > 0:
            raise ValueError("eps_t must be positive")
        if not math.isfinite(self.threshold_db):
            raise ValueError("threshold_db must be a finite number")
        db_to_linear(self.threshold_db)  # ValueError when the linear value overflows
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class Scenario:
    region: Region
    layout: WaveguideLayout
    taps: CandidateGrid
    blockages: tuple[Blockage, ...]
    grid: GridSpec
    channel: ChannelSpec
    solver: SolverDefaults

    @property
    def params(self) -> ChannelParams:
        return self.channel.to_params()

    @property
    def threshold_linear(self) -> float:
        return db_to_linear(self.solver.threshold_db)

    def visibility(self) -> VisibilityMap:
        return compute_visibility(self.layout, self.taps, self.blockages, self.grid)

    def gain_map(self) -> GainMap:
        return precompute_gain_map(self.layout, self.taps, self.grid, self.visibility(), self.params)

    def fixed_array_map(self) -> GainMap:
        return fixed_array_gain_map(self.region, self.blockages, self.grid, self.params, self.layout.count)

    def with_grid_scale(self, factor: float) -> "Scenario":
        """Same deployment on a grid rescaled by `factor` per axis (at least 1x1)."""
        if not factor > 0:
            raise ScenarioError("grid scale factor must be positive")
        scaled = (self.grid.nx * factor, self.grid.ny * factor)
        if not all(math.isfinite(size) for size in scaled):
            raise ScenarioError(f"grid scale factor {factor:g} gives a non-finite grid size")
        nx, ny = (max(1, round(size)) for size in scaled)
        n_wg, n_tap = self.layout.count, self.taps.count
        _check_budget(f"a {n_wg}x{n_tap}-tap float64 gain tensor on a {nx}x{ny} grid", kept=n_wg * n_tap * nx * ny * 8)
        return replace(self, grid=GridSpec.from_region(self.region, nx, ny))

    def with_power_dbm(self, tx_power_dbm: float) -> "Scenario":
        try:
            channel = replace(self.channel, tx_power_dbm=tx_power_dbm)
        except ValueError as exc:
            raise ScenarioError(f"channel: {exc}") from exc
        return replace(self, channel=channel)

    def to_dict(self) -> dict:
        """Normalized JSON-ready form (explicit tap coordinates)."""
        return {
            "version": SCHEMA_VERSION,
            "region": asdict(self.region),
            "waveguides": self.layout.count,
            "taps": {"x": [[float(x) for x in row] for row in self.taps.x_taps]},
            "blockages": [asdict(b) for b in self.blockages],
            "grid": {"nx": self.grid.nx, "ny": self.grid.ny},
            "channel": asdict(self.channel),
            "solver": asdict(self.solver),
        }

    def digest(self) -> str:
        """Content hash of the normalized scenario; independent of file key order."""
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _check_keys(section: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(section, dict):
        raise ScenarioError(f"{path} must be a JSON object")
    unknown = set(section) - required - optional
    if unknown:
        raise ScenarioError(f"unknown key(s) in {path}: {', '.join(sorted(unknown))}")
    missing = required - set(section)
    if missing:
        raise ScenarioError(f"missing key(s) in {path}: {', '.join(sorted(missing))}")


def _number(section: dict, key: str, path: str) -> float:
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioError(f"{path}.{key} must be a number")
    try:
        num = float(val)
    except OverflowError:  # an integer literal beyond the float range
        num = math.inf
    if not math.isfinite(num):
        raise ScenarioError(f"{path}.{key} must be a finite number")
    return num


def _integer(section: dict, key: str, path: str) -> int:
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ScenarioError(f"{path}.{key} must be an integer")
    return val


def _section(doc, path: str, cls, legacy: frozenset[str] = frozenset()):
    """Read the flat JSON object `doc` into the frozen dataclass `cls`, one key per field.

    A field with a default is optional; `legacy` keys are accepted and left to the caller.
    """
    keys = fields(cls)
    required = {f.name for f in keys if f.default is MISSING}
    _check_keys(doc, path, required, {f.name for f in keys} - required | legacy)
    values = {}
    for f in keys:
        if f.name in doc:  # the annotation is the string "int" under postponed evaluation
            values[f.name] = (_integer if f.type in (int, "int") else _number)(doc, f.name, path)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _check_keys(
        doc,
        "scenario",
        required={"version", "region", "waveguides", "taps", "grid", "channel"},
        optional={"blockages", "solver"},
    )
    if doc["version"] != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported scenario version {doc['version']!r} (expected {SCHEMA_VERSION})")
    region = _section(doc["region"], "region", Region)

    n_wg = _integer(doc, "waveguides", "scenario")
    if n_wg < 2:
        raise ScenarioError("waveguides must be at least 2")

    grid_doc = doc["grid"]
    _check_keys(grid_doc, "grid", {"nx", "ny"})
    nx = _integer(grid_doc, "nx", "grid")
    ny = _integer(grid_doc, "ny", "grid")
    # a grid without cells would pass the byte budget whatever the tap count
    if nx < 1 or ny < 1:
        raise ScenarioError("grid needs at least one cell per axis")

    taps_doc = doc["taps"]
    if not isinstance(taps_doc, dict):
        raise ScenarioError("taps must be an object with 'count' or 'x'")
    if set(taps_doc) == {"count"}:
        count = _integer(taps_doc, "count", "taps")
        if count < 1:
            raise ScenarioError("taps.count must be at least 1")
    elif set(taps_doc) == {"x"}:
        rows = taps_doc["x"]
        if not isinstance(rows, list) or len(rows) != n_wg or not all(isinstance(row, list) for row in rows):
            raise ScenarioError(f"taps.x must list tap coordinates for each of the {n_wg} waveguides")
        rows = [[_number(row, j, f"taps.x[{i}]") for j in range(len(row))] for i, row in enumerate(rows)]
        try:
            taps = CandidateGrid(x_taps=np.asarray(rows, dtype=float))
        except (GeometryError, ValueError) as exc:
            raise ScenarioError(f"taps.x invalid: {exc}") from exc
        if np.any(taps.x_taps < 0) or np.any(taps.x_taps > region.x_len):
            raise ScenarioError("tap x coordinates must lie within [0, region.x_len]")
        count = taps.count
    else:
        raise ScenarioError("taps must contain exactly one of 'count' or 'x'")
    # before the tap positions of a count or the layout are allocated: the
    # gain tensor's bytes also bound the waveguide count
    _check_budget(f"a {n_wg}x{count}-tap float64 gain tensor on a {nx}x{ny} grid", kept=n_wg * count * nx * ny * 8)
    if "count" in taps_doc:
        taps = CandidateGrid.uniform(region, n_wg, count)
    layout = WaveguideLayout.uniform(region, n_wg)

    blk_docs = doc.get("blockages", [])
    if not isinstance(blk_docs, list):
        raise ScenarioError("blockages must be a list")
    blockages: list[Blockage] = []
    for i, b in enumerate(blk_docs):
        path = f"blockages[{i}]"
        blk = _section(b, path, Blockage)
        half = region.y_len / 2.0
        if blk.y_min < -half or blk.y_max > half:
            raise ScenarioError(f"{path}: y extent must lie within [-{half}, {half}]")
        if not blk.height < region.height:
            raise ScenarioError(f"{path}: height must be strictly below the waveguide height")
        blockages.append(blk)

    grid = GridSpec.from_region(region, nx, ny)

    ch = doc["channel"]
    channel = _section(ch, "channel", ChannelSpec, legacy=frozenset({"n_clusters", "n_eff"}))
    for key, read in (("n_clusters", _integer), ("n_eff", _number)):
        if key in ch and read(ch, key, "channel") < 1:
            raise ScenarioError(f"channel.{key} must be at least 1")
    solver = _section(doc.get("solver", {}), "solver", SolverDefaults)

    return Scenario(
        region=region,
        layout=layout,
        taps=taps,
        blockages=tuple(blockages),
        grid=grid,
        channel=channel,
        solver=solver,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file; errors carry line/column for bad JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ScenarioError(f"{path}: invalid JSON: arrays or objects nested too deeply") from None
    return scenario_from_dict(doc)


def bundled_scenario_names() -> list[str]:
    data = resources.files("pinchplan").joinpath("data")
    return sorted(p.name[: -len(".json")] for p in data.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str = "table1") -> Scenario:
    """Load a scenario shipped with the package (see bundled_scenario_names())."""
    res = resources.files("pinchplan").joinpath(f"data/{name}.json")
    try:
        text = res.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ScenarioError(
            f"no bundled scenario named {name!r}; available: {', '.join(bundled_scenario_names())}"
        ) from None
    return scenario_from_dict(json.loads(text))


def random_activation(scenario: Scenario, seed: int) -> Activation:
    """Uniform independent tap draw per waveguide; same seed, same activation."""
    rng = np.random.default_rng(seed)
    sel = rng.integers(0, scenario.taps.count, size=scenario.layout.count)
    return Activation(selected=tuple(int(m) for m in sel))
