"""NOMA-assisted waveguide-antenna placement: solver, reference search and harness."""

from .channel import (
    AntennaLayout,
    LayoutError,
    SystemParams,
    UserPosition,
    conventional_channel,
    conventional_effective_gain,
    dbm_to_watts,
    guided_wavelength,
    path_gain_factor,
    pinching_gain,
    wavelength,
)
from .noma import (
    Alpha2Result,
    FeasibilityReport,
    PowerSplit,
    QosTargets,
    RateReport,
    check_feasibility,
    optimal_alpha2,
    rate_report,
    snr_scale,
)
from .oracle import OracleConfig, OracleSizeError, exhaustive_placement
from .placement import (
    AlgoConfig,
    PlacementError,
    PlacementSolution,
    bisection_solve,
    evaluate_placement,
    fine_tune,
    initial_layout,
)
from .sim import (
    ResultTable,
    SamplingError,
    Scenario,
    SweepSpec,
    evaluate_scheme,
    run_sweeps,
    sample_scenario,
    trial_rng,
    write_table,
)

__version__ = "0.1.0"
