"""Fault-tolerant resource estimation for Hubbard-model dynamics on a
biplanar honeycomb-code photonic architecture."""

from .errors import (
    FitError,
    InvalidParameterError,
    NoDistanceFoundError,
    NoProtocolError,
)
from .noise import (
    AttemptCaps,
    CycleOutcomeDistribution,
    HeraldedOutcomeDistribution,
    PhysicalNoiseParams,
    cycle_outcome_distribution,
    derive_noise_params,
    heralded_cz_distribution,
    heralded_mzz_distribution,
    mc_rus_oracle,
)
from .pipeline import (
    ErrorBudget,
    EstimateReport,
    FloorplanCounts,
    SolveOptions,
    allocate_budget,
    corridor_capacity_check,
    floorplan,
    msf_sizing,
    runtime_seconds,
    solve_estimate,
)
from .surgery import (
    ErrorDataPoint,
    FitParams,
    MsfProtocol,
    PatchGeometry,
    extrapolate_error,
    fit_error_curve,
    load_error_data,
    load_msf_table,
    msf_convert,
    patch_geometry,
    select_distance,
)
from .synthesis import (
    RotationCost,
    SynthesisPlan,
    crossover_L,
    direct_plan,
    fallback_plan,
    synthesis_cost,
    t_count,
)
from .timing import TimingModel, logical_cycle_time
from .trotter import (
    ProblemSpec,
    golden_cost,
    interaction_cost,
    kappa,
    pink_cost,
    trotter_step_cost,
    trotter_steps,
)

__version__ = "0.1.0"
