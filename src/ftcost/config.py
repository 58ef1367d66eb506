"""Flat ``key = value`` configuration with dotted keys.

A config file holds one assignment per line; ``#`` starts a comment.  The
same keys are accepted from repeated ``--set key=value`` flags, which win
over the file.  ``SCHEMA`` declares every key once, with its type, default,
domain and doc line.  ``load_config`` parses and checks each value against
it, so a bad value is one error naming the key and the builders below only
assemble.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .errors import InvalidParameterError
from .pipeline import SolveOptions, allocate_budget
from .surgery import (
    BUNDLED_NOISE_P,
    fit_error_curve,
    load_error_data,
    load_msf_table,
    read_text,
)
from .synthesis import MODES, STRATEGIES
from .timing import TimingModel, derive_noise_params
from .trotter import ProblemSpec


class Key(NamedTuple):
    """One config key.  A value of ``type`` that passes ``ok`` is in its
    domain, and so is ``none`` where the default is None; any other value is
    an error saying the key must be ``rule``."""

    name: str
    type: type
    default: object
    rule: str
    ok: Callable[[object], bool]
    doc: str


def _positive(value) -> bool:
    return 0 < value < math.inf


def _one_of(*choices: str) -> tuple[str, Callable[[object], bool]]:
    """The rule text and check of a key taking one of ``choices``."""
    return "one of " + " | ".join(choices), choices.__contains__


SCHEMA: dict[str, Key] = {key.name: key for key in (
    Key("problem.L", int, 8, "an even integer >= 2",
        lambda v: v >= 2 and v % 2 == 0, "lattice linear size"),
    Key("problem.u_over_t", float, 8.0, "a finite number > 0", _positive,
        "interaction ratio U/t"),
    Key("problem.sim_time_multiple", float, 10.0, "a finite number > 0", _positive,
        "simulated time / L, in units of 1/t"),
    Key("problem.w_msf", int, ProblemSpec.w_msf, "an integer >= 1", lambda v: v >= 1,
        "factory aisle width in patches"),
    Key("noise.p", float, BUNDLED_NOISE_P, "a finite number in [0, 1)",
        lambda v: 0 <= v < 1,
        "noise intensity; another one needs its own cube data"),
    Key("budget.total", float, 0.01, "finite and lie in (0, 1)", lambda v: 0 < v < 1,
        "diamond-norm error budget"),
    Key("synthesis.strategy", str, SolveOptions.strategy, *_one_of(*STRATEGIES),
        "rotation synthesis scheme"),
    Key("synthesis.p_succ", float, SolveOptions.p_succ, "a finite number in (0, 1]",
        lambda v: 0 < v <= 1, "synthesis success probability; only fallback and mixed_fallback read it"),
    Key("synthesis.mode", str, SolveOptions.mode, *_one_of(*MODES),
        "T-count law coefficients"),
    Key("timing.syndrome_round_ns", float, TimingModel.syndrome_round_ns,
        "a finite number > 0", _positive, "syndrome extraction round"),
    Key("timing.reaction_us", float, TimingModel.reaction_us, "a finite number > 0",
        _positive, "decode reaction time"),
    Key("floorplan.override_total", int, None, "an integer >= 0", lambda v: v >= 0,
        "patches, both planes; set both overrides or neither"),
    Key("floorplan.override_msf", int, None, "an integer >= 0", lambda v: v >= 0,
        "factory aisle patches"),
    Key("data.lattice_surgery_csv", str, None, "a file path", bool,
        f"cube error data; none: bundled (p = {BUNDLED_NOISE_P})"),
    Key("data.msf_table_csv", str, None, "a file path", bool,
        "factory protocols; none: bundled"),
)}

#: Every key's default, the start of each ``load_config`` result.
_DEFAULTS = {name: key.default for name, key in SCHEMA.items()}


def parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise InvalidParameterError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _value(key: Key, text: str):
    """``text`` as a value of ``key``; outside its domain, an error naming the key."""
    value = None if text.lower() in ("", "none") else text
    if value is not None and key.type is not str:
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if key.type is int:
                try:  # exact at any size; a float form only where a float is exact
                    value = int(text)
                except ValueError:
                    if value.is_integer() and abs(value) <= 2**53:
                        value = int(value)
    if value is None and key.default is None:
        return None
    if isinstance(value, key.type) and key.ok(value):
        return value
    shown = text if isinstance(value, (int, float)) or key.type is str else repr(value)
    raise InvalidParameterError(f"{key.name}={shown} must be {key.rule}")


def load_config(path: Optional[str] = None, overrides: Optional[list[str]] = None) -> dict:
    """The defaults, then the file at ``path``, then the ``--set`` overrides,
    each value parsed and checked once against ``SCHEMA``."""
    texts = {} if path is None else parse_config_file(path)
    texts.update(parse_overrides(overrides or []))
    cfg = _DEFAULTS.copy()
    for name, text in texts.items():
        if name not in SCHEMA:
            raise InvalidParameterError(f"{name}={text} is not a config key")
        cfg[name] = _value(SCHEMA[name], text)
    if cfg["noise.p"] != BUNDLED_NOISE_P and cfg["data.lattice_surgery_csv"] is None:
        raise InvalidParameterError(
            f"noise.p={cfg['noise.p']} needs data.lattice_surgery_csv: "
            f"the bundled cube data are for p = {BUNDLED_NOISE_P}")
    total, msf = cfg["floorplan.override_total"], cfg["floorplan.override_msf"]
    if (total is None) != (msf is None):
        unset = "total" if total is None else "msf"
        raise InvalidParameterError(
            f"floorplan.override_{unset}=None must be set with the other override")
    if total is not None and msf > total:
        raise InvalidParameterError(
            f"floorplan.override_msf={msf} must not exceed floorplan.override_total={total}")
    return cfg


# -- builders: every value was checked by ``load_config`` -----------------------

def problem_from(cfg: dict) -> ProblemSpec:
    try:
        sim_time_t = cfg["problem.sim_time_multiple"] * cfg["problem.L"]
    except OverflowError:  # an L beyond any float, which ProblemSpec rejects
        sim_time_t = math.inf
    return ProblemSpec(
        lattice_l=cfg["problem.L"],
        u_over_t=cfg["problem.u_over_t"],
        sim_time_t=sim_time_t,
        w_msf=cfg["problem.w_msf"],
    )


def noise_from(cfg: dict):
    return derive_noise_params(cfg["noise.p"])


def budget_from(cfg: dict):
    return allocate_budget(cfg["budget.total"])


def options_from(cfg: dict, precision: str = "headline") -> SolveOptions:
    override = (cfg["floorplan.override_total"], cfg["floorplan.override_msf"])
    return SolveOptions(
        strategy=cfg["synthesis.strategy"],
        p_succ=cfg["synthesis.p_succ"],
        mode=cfg["synthesis.mode"],
        precision=precision,
        timing=TimingModel(cfg["timing.syndrome_round_ns"], cfg["timing.reaction_us"]),
        fit=fit_error_curve(load_error_data(cfg["data.lattice_surgery_csv"])),
        protocols=load_msf_table(cfg["data.msf_table_csv"]),
        floorplan_override=None if None in override else override,
    )
