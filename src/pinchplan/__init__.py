"""Blockage-aware average-SNR maps and tap-activation planning for waveguide antennas.

Workflow: describe a deployment in a scenario JSON file, precompute the
per-tap per-grid average-gain tensor (geometry decides line of sight once,
offline), then plan the one-tap-per-waveguide activation either for
threshold coverage or for the worst grid, and export fields/sweeps.
"""

__version__ = "0.1.0"

from .geometry import (
    Blockage,
    CandidateGrid,
    GeometryError,
    GridSpec,
    Region,
    VisibilityMap,
    WaveguideLayout,
    compute_visibility,
    points_visibility,
)
from .channel import (
    C_LIGHT,
    ChannelParams,
    GainMap,
    avg_snr,
    db_to_linear,
    dbm_to_watt,
    fixed_array_gain_map,
    linear_to_db,
    precompute_gain_map,
)
from .coverage import (
    Activation,
    BudgetError,
    CoverageResult,
    coordinate_ascent,
    coverage_count,
    emit_milp,
    exact_enumerate,
)
from .minmax import (
    MinMaxResult,
    bisection_maxmin,
    deficit_feasibility,
    exact_maxmin,
    maxmin_upper_bound,
    worst_grid_snr,
)
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_scenario_names,
    load_bundled,
    load_scenario,
    random_activation,
    scenario_from_dict,
)
from .mapio import export_map
from .sweeps import RunSummary, SweepTable, derived_seeds, power_sweep, threshold_sweep

__all__ = [
    "__version__",
    "Activation",
    "Blockage",
    "BudgetError",
    "C_LIGHT",
    "CandidateGrid",
    "ChannelParams",
    "CoverageResult",
    "GainMap",
    "GeometryError",
    "GridSpec",
    "MinMaxResult",
    "Region",
    "RunSummary",
    "Scenario",
    "ScenarioError",
    "SweepTable",
    "VisibilityMap",
    "WaveguideLayout",
    "avg_snr",
    "bisection_maxmin",
    "bundled_scenario_names",
    "compute_visibility",
    "coordinate_ascent",
    "coverage_count",
    "db_to_linear",
    "dbm_to_watt",
    "deficit_feasibility",
    "derived_seeds",
    "emit_milp",
    "exact_enumerate",
    "exact_maxmin",
    "export_map",
    "fixed_array_gain_map",
    "linear_to_db",
    "load_bundled",
    "load_scenario",
    "maxmin_upper_bound",
    "points_visibility",
    "power_sweep",
    "precompute_gain_map",
    "random_activation",
    "scenario_from_dict",
    "threshold_sweep",
    "worst_grid_snr",
]
