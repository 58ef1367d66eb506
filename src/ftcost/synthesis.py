"""T-count models and fault-tolerant cost ledgers for Z-rotation synthesis.

Four Clifford+T synthesis strategies are modeled by linear T-count laws
c1*log2(1/eps) + c2.  The fallback strategies add a probabilistic accept
branch; when L^2 rotations run in parallel, the whole layer waits for the
slowest branch, which the cost formulas account for.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .errors import InvalidParameterError, Record, integer, real

#: Fractional cube coefficients (averages over X/Y/Z measurement axes) kept
#: as exact thirds.
_DIRECT_CUBE_SLOPE = 16.0 / 3.0      # printed 5.33
_FALLBACK_CUBE_SLOPE = 19.0 / 3.0    # printed 6.33


#: T-count law (slope, offset) of each strategy in each mode.
STRATEGIES = {
    "diagonal": {"mean": (3.02, 1.77), "worst": (3.02, 9.19)},
    "mixed_diagonal": {"mean": (1.52, -0.01), "worst": (1.54, 6.85)},
    "fallback": {"mean": (1.03, 5.75), "worst": (1.05, 11.83)},
    "mixed_fallback": {"mean": (0.53, 4.86), "worst": (0.57, 8.83)},
}

#: The T-count law modes of every strategy.
MODES = ("worst", "mean")

#: Which strategy synthesizes the reject branch of each fallback scheme.
FALLBACK_BRANCH = {"fallback": "diagonal", "mixed_fallback": "mixed_diagonal"}


def t_count(strategy: str, epsilon_synth: float, mode: str = "worst") -> float:
    """Expected T-count of one rotation at the given synthesis accuracy."""
    epsilon_synth = real(epsilon_synth, "epsilon_synth", above=0, below=1)
    try:  # a lookup, not ``in``, so that an unhashable strategy gets the same line
        laws = STRATEGIES[strategy]
    except (KeyError, TypeError):
        raise InvalidParameterError(
            f"strategy={strategy!r} must be one of {' | '.join(STRATEGIES)}") from None
    if mode not in MODES:
        raise InvalidParameterError(f"mode={mode!r} must be one of {' | '.join(MODES)}")
    c1, c2 = laws[mode]
    return c1 * math.log2(1.0 / epsilon_synth) + c2


def _check_rounding(rounding: str):
    if rounding not in ("none", "integer"):
        raise InvalidParameterError(f"rounding={rounding!r} must be 'none' or 'integer'")


class SynthesisPlan(Record):
    """Resolved per-rotation counts for one layer of L^2 parallel syntheses.

    With ``rounding="none"`` the identity n_t = n_t_success +
    (1 - p_succ) * n_t_fallback holds exactly; ``rounding="integer"`` snaps
    n_t, n_t_fallback, and n_t_success to whole T gates, the form used when
    reproducing headline figures.
    """

    n_t: float
    n_t_fallback: float
    n_t_success: float
    p_all: float
    ptilde_fail: float
    ptilde_succ: float


def fallback_plan(
    epsilon_synth: float,
    p_succ: float,
    lattice_l: int,
    strategy: str = "mixed_fallback",
    mode: str = "worst",
    rounding: str = "none",
) -> SynthesisPlan:
    """Build the synchronization-aware plan for a fallback synthesis layer."""
    p_succ = real(p_succ, "p_succ", above=0, most=1)
    lattice_l = integer(lattice_l, "lattice_l")
    _check_rounding(rounding)
    n_t = t_count(strategy, epsilon_synth, mode)
    if strategy not in FALLBACK_BRANCH:
        raise InvalidParameterError(
            f"strategy={strategy!r} must be one of {' | '.join(FALLBACK_BRANCH)}")
    n_fb = t_count(FALLBACK_BRANCH[strategy], epsilon_synth, mode)
    if rounding == "integer":
        n_t, n_fb = float(round(n_t)), float(round(n_fb))
    p_fail = 1.0 - p_succ
    # accept-branch T-count; clamped at zero where the model breaks down
    # (very low p_succ makes the decomposition unphysical)
    n_succ = max(n_t - p_fail * n_fb, 0.0)
    if rounding == "integer":
        n_succ = float(round(n_succ))
    p_all = p_succ ** (lattice_l**2)
    if p_all < 1.0:
        ptilde_fail = p_fail / (1.0 - p_all)
    else:
        ptilde_fail = 0.0
    return SynthesisPlan(n_t, n_fb, n_succ, p_all, ptilde_fail, 1.0 - ptilde_fail)


def direct_plan(
    epsilon_synth: float,
    strategy: str = "mixed_diagonal",
    mode: str = "worst",
    rounding: str = "none",
) -> SynthesisPlan:
    """Plan for a direct (no-fallback) synthesis layer."""
    _check_rounding(rounding)
    n_t = t_count(strategy, epsilon_synth, mode)
    if rounding == "integer":
        n_t = float(round(n_t))
    return SynthesisPlan(n_t, 0.0, n_t, 1.0, 0.0, 1.0)


class RotationCost(Record):
    """Record of fault-tolerant resources: one synthesized Z-rotation or one
    Trotter step."""

    t_states: float = 0.0
    logical_timesteps: float = 0.0
    active_cubes: float = 0.0
    transversal_cnots: float = 0.0

    def __init__(self, t_states=t_states, logical_timesteps=logical_timesteps,
                 active_cubes=active_cubes, transversal_cnots=transversal_cnots):
        if not (t_states >= 0 and logical_timesteps >= 0
                and active_cubes >= 0 and transversal_cnots >= 0):
            values = (t_states, logical_timesteps, active_cubes, transversal_cnots)
            name, value = next((k, v) for k, v in zip(self._fields, values) if not v >= 0)
            raise InvalidParameterError(f"{name}={value} must be nonnegative")
        object.__setattr__(self, "t_states", t_states)
        object.__setattr__(self, "logical_timesteps", logical_timesteps)
        object.__setattr__(self, "active_cubes", active_cubes)
        object.__setattr__(self, "transversal_cnots", transversal_cnots)


def _direct(n_t: float, tau: float) -> tuple[float, float]:
    """Timesteps and active cubes of a direct synthesis of ``n_t`` T gates."""
    return n_t * (1.0 + tau) + 3.0, n_t * (_DIRECT_CUBE_SLOPE + 3.0 * tau) + 23.0


def synthesis_cost(plan: SynthesisPlan, strategy_kind: str, tau_ratio: float) -> RotationCost:
    """Per-rotation ledger from the fault-tolerant synthesis cost table.

    ``tau_ratio`` is the reaction time in units of the logical cycle.
    """
    tau = real(tau_ratio, "tau_ratio", 0)
    if strategy_kind == "direct":
        timesteps, cubes = _direct(plan.n_t, tau)
    elif strategy_kind == "fallback":
        miss = 1.0 - plan.p_all
        reject_timesteps, reject_cubes = _direct(plan.n_t_fallback, tau)
        timesteps = plan.n_t_success * (1.0 + tau) + 7.0 + miss * reject_timesteps
        cubes = (plan.n_t_success * (_FALLBACK_CUBE_SLOPE + 4.0 * tau) + 48.0
                 + miss * plan.ptilde_fail * reject_cubes
                 + miss * plan.ptilde_succ
                 * (plan.n_t_fallback * (3.0 + 3.0 * tau) + 9.0))
    else:
        raise InvalidParameterError(
            f"strategy_kind={strategy_kind!r} must be one of direct | fallback")
    # positional: a keyword call to the record costs more on this hot path
    return RotationCost(plan.n_t, timesteps, cubes, 0.0)


def max_t_injection_rate(tau_ratio: float) -> float:
    """Upper bound on T states consumed per logical timestep per rotation."""
    return 1.0 / (1.0 + tau_ratio)


def crossover_L(epsilon_policy: Callable[[int], float], p_succ: float,
                tau_ratio: float) -> Optional[int]:
    """Smallest lattice size where direct synthesis beats the fallback layer.

    Compares mixed-diagonal direct timesteps against mixed-fallback layer
    timesteps at each L up to 64, worst-case T counts rounded to whole T
    gates; returns None when the fallback never loses.
    """
    for lattice_l in range(1, 65):
        eps = epsilon_policy(lattice_l)
        plan = fallback_plan(eps, p_succ, lattice_l, rounding="integer")
        fb = synthesis_cost(plan, "fallback", tau_ratio).logical_timesteps
        direct = synthesis_cost(direct_plan(eps, "mixed_diagonal", rounding="integer"),
                                "direct", tau_ratio).logical_timesteps
        if direct <= fb:
            return lattice_l
    return None
