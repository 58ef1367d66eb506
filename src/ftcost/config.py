"""Flat ``key = value`` configuration with dotted keys.

A config file holds one assignment per line; ``#`` starts a comment.  The
same keys are accepted from repeated ``--set key=value`` flags, which win
over the file.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import InvalidParameterError
from .noise import DEFAULT_BIASES, derive_noise_params
from .pipeline import SolveOptions, allocate_budget
from .surgery import fit_error_curve, load_error_data, load_msf_table
from .timing import AttemptCaps, TimingModel
from .trotter import ProblemSpec

DEFAULTS: dict[str, object] = {
    "problem.L": 8,
    "problem.u_over_t": 8.0,
    "problem.sim_time_multiple": 10.0,
    "problem.w_msf": 2,
    "noise.p": 0.01,
    "noise.biases.epsilon": DEFAULT_BIASES["epsilon"],
    "noise.biases.distinguishability": DEFAULT_BIASES["distinguishability"],
    "noise.biases.idle_ratio": DEFAULT_BIASES["idle_ratio"],
    "noise.biases.gate_infidelity": DEFAULT_BIASES["gate_infidelity"],
    "noise.n_rus": 10,
    "noise.n_init": 5,
    "noise.n_measure": 5,
    "budget.total": 0.01,
    "budget.policy": "default",
    "synthesis.strategy": "mixed_fallback",
    "synthesis.p_succ": 0.99,
    "synthesis.mode": "worst",
    "timing.single_qubit_ns": 5.0,
    "timing.rus_cycle_ns": 30.0,
    "timing.syndrome_round_ns": 305.0,
    "timing.reaction_us": 10.0,
    "floorplan.override_total": None,
    "floorplan.override_msf": None,
    "data.lattice_surgery_csv": None,
    "data.msf_table_csv": None,
}


def _coerce(raw: str):
    text = raw.strip()
    if text.lower() in ("none", ""):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise InvalidParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            out[key.strip()] = _coerce(value)
    return out


def parse_overrides(pairs: list[str]) -> dict[str, object]:
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise InvalidParameterError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = _coerce(value)
    return out


def load_config(path: Optional[str] = None, overrides: Optional[list[str]] = None) -> dict:
    cfg = dict(DEFAULTS)
    if path:
        file_values = parse_config_file(path)
        _check_keys(file_values)
        cfg.update(file_values)
    if overrides:
        override_values = parse_overrides(overrides)
        _check_keys(override_values)
        cfg.update(override_values)
    return cfg


def _check_keys(values: dict):
    unknown = set(values) - set(DEFAULTS)
    if unknown:
        raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")


# -- constructors ---------------------------------------------------------------

def _integer(cfg: dict, key: str, minimum: int = 0) -> int:
    """``cfg[key]`` as an int >= ``minimum``; anything else is an error naming the key."""
    value = cfg[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise InvalidParameterError(f"{key}={cfg[key]!r} must be an integer >= {minimum}")
    return value


def _real(cfg: dict, key: str) -> float:
    """``cfg[key]`` as a finite float; anything else is an error naming the key."""
    try:
        value = float(cfg[key])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise InvalidParameterError(f"{key}={cfg[key]!r} must be a finite number")
    return value


def problem_from(cfg: dict) -> ProblemSpec:
    l = _integer(cfg, "problem.L", 2)
    return ProblemSpec(
        lattice_l=l,
        u_over_t=_real(cfg, "problem.u_over_t"),
        sim_time_t=_real(cfg, "problem.sim_time_multiple") * l,
        w_msf=_integer(cfg, "problem.w_msf", 1),
    )


def noise_from(cfg: dict):
    biases = {
        "epsilon": _real(cfg, "noise.biases.epsilon"),
        "distinguishability": _real(cfg, "noise.biases.distinguishability"),
        "idle_ratio": _real(cfg, "noise.biases.idle_ratio"),
        "gate_infidelity": _real(cfg, "noise.biases.gate_infidelity"),
    }
    return derive_noise_params(_real(cfg, "noise.p"), biases)


def budget_from(cfg: dict):
    try:
        total = float(cfg["budget.total"])
    except (TypeError, ValueError):
        total = math.nan
    if not 0.0 < total < 1.0:  # also rejects nan
        raise InvalidParameterError(
            f"budget.total={cfg['budget.total']!r} must be finite and lie in (0, 1)")
    return allocate_budget(total, str(cfg["budget.policy"]))


def timing_from(cfg: dict) -> TimingModel:
    return TimingModel(
        single_qubit_ns=_real(cfg, "timing.single_qubit_ns"),
        rus_cycle_ns=_real(cfg, "timing.rus_cycle_ns"),
        syndrome_round_ns=_real(cfg, "timing.syndrome_round_ns"),
        reaction_us=_real(cfg, "timing.reaction_us"),
        caps=AttemptCaps(**{name: _integer(cfg, f"noise.{name}", 1)
                            for name in ("n_rus", "n_init", "n_measure")}),
    )


def options_from(cfg: dict, precision: str = "headline") -> SolveOptions:
    data_csv = cfg["data.lattice_surgery_csv"]
    msf_csv = cfg["data.msf_table_csv"]
    override = None
    if cfg["floorplan.override_total"] is not None or cfg["floorplan.override_msf"] is not None:
        override = (_integer(cfg, "floorplan.override_total"),
                    _integer(cfg, "floorplan.override_msf"))
    return SolveOptions(
        strategy=str(cfg["synthesis.strategy"]),
        p_succ=_real(cfg, "synthesis.p_succ"),
        mode=str(cfg["synthesis.mode"]),
        precision=precision,
        timing=timing_from(cfg),
        fit=fit_error_curve(load_error_data(data_csv)),
        protocols=load_msf_table(msf_csv),
        floorplan_override=override,
    )
