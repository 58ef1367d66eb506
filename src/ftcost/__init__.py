"""Fault-tolerant resource estimation for Hubbard-model dynamics on a
biplanar honeycomb-code photonic architecture.

Each public name is imported from its home module on first access, so
``import ftcost`` loads no layer and a command loads only the layers it runs.
"""

import importlib

#: Home module -> the public names the package takes from it.
_EXPORTS = {
    "errors": ("FitError", "InvalidParameterError", "NoDistanceFoundError", "NoProtocolError"),
    "noise": ("AttemptCaps", "CycleOutcomeDistribution", "HeraldedOutcomeDistribution",
              "cycle_outcome_distribution", "heralded_cz_distribution",
              "heralded_mzz_distribution", "mc_rus_oracle"),
    "pipeline": ("ErrorBudget", "EstimateReport", "FloorplanCounts", "SolveOptions",
                 "allocate_budget", "corridor_capacity_check", "floorplan", "msf_sizing",
                 "runtime_seconds", "solve_estimate"),
    "surgery": ("ErrorDataPoint", "FitParams", "MsfProtocol", "PatchGeometry",
                "extrapolate_error", "fit_error_curve", "load_error_data", "load_msf_table",
                "msf_convert", "patch_geometry", "select_distance"),
    "synthesis": ("RotationCost", "SynthesisPlan", "crossover_L", "direct_plan",
                  "fallback_plan", "synthesis_cost", "t_count"),
    "timing": ("PhysicalNoiseParams", "TimingModel", "derive_noise_params",
               "logical_cycle_time"),
    "trotter": ("ProblemSpec", "kappa", "trotter_step_cost", "trotter_steps"),
}
#: Public name -> its home module.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
