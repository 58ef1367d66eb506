"""Trotter-step counting and the per-step fault-tolerant cost ledger.

A second-order Trotter step splits into four sub-evolutions: the on-site
interaction, two half-steps over the bulk ("pink") plaquette layer, and one
step over the complementary ("golden") layer that includes the periodic
boundary plaquettes.  Each sub-evolution diagonalizes its terms, runs L^2
parallel Z-rotations, and undoes the diagonalization.
"""

from __future__ import annotations

import functools
import math
from .errors import InvalidParameterError, Record, integer, real, real_fields
from .synthesis import RotationCost

#: Per-plaquette diagonalization cost (forward plus inverse direction).
PLAQ_DIAG_T_STATES = 8
PLAQ_DIAG_TIMESTEPS_ONE_WAY = 9
PLAQ_DIAG_TIMESTEPS = 2 * PLAQ_DIAG_TIMESTEPS_ONE_WAY
PLAQ_DIAG_CUBES = 205

#: The golden layer's plaquettes split into three sequentially parallelized
#: groups (bulk+corner, vertical boundary, horizontal boundary).
GOLDEN_GROUPS = 3
GOLDEN_DIAG_TIMESTEPS = GOLDEN_GROUPS * PLAQ_DIAG_TIMESTEPS

#: Idle cost of a patch holding a plaquette that waits out one
#: diagonalization round of another group.
_IDLE_CUBES_PER_ROUND = PLAQ_DIAG_TIMESTEPS_ONE_WAY * 6

#: Reference single-plane compilation: timesteps per Trotter step are
#: 6*t_synth + 354 (fermionic-swap reordering), used only for comparison.
SINGLE_PLANE_SYNTH_LAYERS = 6
SINGLE_PLANE_DIAG_TIMESTEPS = 354


_LATTICE_RULE = "an even integer >= 2 (plaquette layers need L^2/4 whole plaquettes)"


def check_plane(lattice_l: int, w_msf: int) -> tuple[int, int]:
    """The plane rule, L an even integer >= 2 and the aisle width an integer >= 1,
    returning both as Python ints."""
    return (integer(lattice_l, "lattice_l", 2, even=True, rule=_LATTICE_RULE),
            integer(w_msf, "w_msf"))


class ProblemSpec(Record):
    """Simulation instance: lattice size, coupling, time, and aisle width."""

    lattice_l: int
    u_over_t: float
    sim_time_t: float
    w_msf: int = 2

    def __init__(self, lattice_l, u_over_t, sim_time_t, w_msf=w_msf):
        lattice_l, w_msf = check_plane(lattice_l, w_msf)
        object.__setattr__(self, "lattice_l", lattice_l)
        object.__setattr__(self, "w_msf", w_msf)
        real_fields(self, ("u_over_t", "sim_time_t"), (u_over_t, sim_time_t), above=0)


def kappa(u_over_t: float) -> float:
    """Commutator-bound prefactor of the second-order Trotter error, for a
    nonnegative finite ``u_over_t`` whose prefactor is a finite float."""
    u = u_over_t
    if not (type(u) is float and 0 <= u < math.inf):  # a float in range needs no call
        u = real(u, "u_over_t", 0)
    try:
        k = (1.5 * u**2 + 2.0 * u * (2.0 * math.sqrt(5.0) + 16.0) + 10.0) / 24.0
    except OverflowError:  # u**2 is beyond any float
        k = math.inf
    if k < math.inf:  # 1.5 u^2 can overflow to inf without raising
        return k
    raise InvalidParameterError(f"u_over_t={u_over_t!r} must give a finite Trotter error prefactor")


def trotter_steps(spec: ProblemSpec, eps_alg: float) -> int:
    """Number of second-order Trotter steps meeting the accuracy target."""
    eps_alg = real(eps_alg, "eps_alg", above=0)
    k = kappa(spec.u_over_t)
    try:
        bound = math.sqrt(k) * spec.lattice_l * spec.sim_time_t**1.5 / math.sqrt(eps_alg)
        return max(1, math.ceil(bound))
    except OverflowError:  # the bound is beyond any float
        raise InvalidParameterError(f"u_over_t={spec.u_over_t!r}, lattice_l={spec.lattice_l}, sim_time_t="
                                    f"{spec.sim_time_t!r} and eps_alg={eps_alg!r} must give a finite "
                                    "number of Trotter steps") from None


# (T states, timesteps, cubes, CNOTs) of each sub-evolution.  Its L^2 rotations, and a
# plaquette layer's L^2/2 diagonalizations, run in parallel, so their timesteps count
# once; the interaction's transversal CNOTs take no cubes or timesteps.
def _interaction(l2: int, rotation: RotationCost) -> tuple:
    return (l2 * rotation.t_states, rotation.logical_timesteps,
            l2 * rotation.active_cubes, 2 * l2)


def _pink(l2: int, rotation: RotationCost) -> tuple:
    return ((l2 / 2) * PLAQ_DIAG_T_STATES + l2 * rotation.t_states,
            PLAQ_DIAG_TIMESTEPS + rotation.logical_timesteps,
            (l2 / 2) * PLAQ_DIAG_CUBES + l2 * rotation.active_cubes,
            0.0)


def _golden(lattice_l: int, w_msf: int, rotation: RotationCost) -> tuple:
    l2 = lattice_l**2
    # the golden layer diagonalizes as many plaquettes as the pink one
    return ((l2 / 2) * PLAQ_DIAG_T_STATES + l2 * rotation.t_states,
            GOLDEN_DIAG_TIMESTEPS + rotation.logical_timesteps,
            _golden_diag_cubes(lattice_l, w_msf) + l2 * rotation.active_cubes,
            0.0)


def golden_diag_cubes(lattice_l: int, w_msf: int) -> float:
    """Active cubes of the golden-layer diagonalization, all four passes.

    Base cost per plaquette is half the bulk diagonalization plus idling
    through the two rounds it does not participate in; corridor terms cover
    the long-range boundary edge operators and the column shift through the
    factory aisle.  It depends on neither the rounds nor the rotation, so it
    is computed once per pair of Python ints that the plane rule returns; a
    bad pair raises every time.
    """
    return _golden_diag_cubes(*check_plane(lattice_l, w_msf))


@functools.lru_cache(maxsize=64)
def _golden_diag_cubes(lattice_l: int, w_msf: int) -> float:
    l2 = lattice_l**2
    half = lattice_l / 2 - 1
    base_per_plaquette = PLAQ_DIAG_CUBES / 2 + (GOLDEN_GROUPS - 1) * _IDLE_CUBES_PER_ROUND
    per_plane_one_way = (
        base_per_plaquette * l2 / 4
        + 0.75 * l2 * (w_msf - 1)
        + (104 + 6 * w_msf) * half**2
        + (85 + 12 * w_msf) * half
        + 6 * w_msf
    )
    return 4.0 * per_plane_one_way


def trotter_step_cost(spec: ProblemSpec, rotation: RotationCost) -> RotationCost:
    """Ledger of one full Trotter step (interaction + pink + golden + pink).

    Each field is the sum of the four sub-evolution parts' fields, added in
    that order: ``_interaction``, ``_pink``, ``_golden`` and ``_pink``.
    """
    l2 = spec.lattice_l**2
    i_t, i_ts, i_cubes, i_cnots = _interaction(l2, rotation)
    p_t, p_ts, p_cubes, p_cnots = _pink(l2, rotation)
    g_t, g_ts, g_cubes, g_cnots = _golden(spec.lattice_l, spec.w_msf, rotation)
    # positional: a keyword call to the record costs more on this hot path
    return RotationCost(i_t + p_t + g_t + p_t, i_ts + p_ts + g_ts + p_ts,
                        i_cubes + p_cubes + g_cubes + p_cubes,
                        i_cnots + p_cnots + g_cnots + p_cnots)


def single_plane_step_timesteps(t_synth: float) -> float:
    """Timesteps per step of the single-plane reference compilation."""
    return SINGLE_PLANE_SYNTH_LAYERS * t_synth + SINGLE_PLANE_DIAG_TIMESTEPS
