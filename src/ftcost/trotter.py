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
from dataclasses import dataclass

from .errors import InvalidParameterError
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


def check_plane(lattice_l: int, w_msf: int):
    """The plane rule: L an even integer >= 2, the aisle width an integer >= 1."""
    # ``type(v) is int`` turns away floats such as 2.0 and bools alike
    if not (type(lattice_l) is int and lattice_l >= 2 and lattice_l % 2 == 0):
        raise InvalidParameterError(
            f"lattice_l={lattice_l!r} must be an even integer >= 2 "
            "(plaquette layers need L^2/4 whole plaquettes)")
    if not (type(w_msf) is int and w_msf >= 1):
        raise InvalidParameterError(f"w_msf={w_msf!r} must be an integer >= 1")


@dataclass(frozen=True)
class ProblemSpec:
    """Simulation instance: lattice size, coupling, time, and aisle width."""

    lattice_l: int
    u_over_t: float
    sim_time_t: float
    w_msf: int = 2

    def __post_init__(self):
        check_plane(self.lattice_l, self.w_msf)
        if not 0 < self.u_over_t < math.inf:
            raise InvalidParameterError(f"u_over_t={self.u_over_t} must be positive and finite")
        if not 0 < self.sim_time_t < math.inf:
            raise InvalidParameterError(f"sim_time_t={self.sim_time_t} must be positive and finite")


def kappa(u_over_t: float) -> float:
    """Commutator-bound prefactor of the second-order Trotter error."""
    u = u_over_t
    return (1.5 * u**2 + 2.0 * u * (2.0 * math.sqrt(5.0) + 16.0) + 10.0) / 24.0


def trotter_steps(spec: ProblemSpec, eps_alg: float) -> int:
    """Number of second-order Trotter steps meeting the accuracy target."""
    if not 0.0 < eps_alg:
        raise InvalidParameterError("eps_alg must be positive")
    k = kappa(spec.u_over_t)
    bound = math.sqrt(k) * spec.lattice_l * spec.sim_time_t**1.5 / math.sqrt(eps_alg)
    return max(1, math.ceil(bound))


def interaction_cost(lattice_l: int, rotation: RotationCost) -> RotationCost:
    """One interaction sub-evolution: inter-plane CNOT conjugation plus rotations.

    The transversal CNOTs consume no cubes or timesteps; the L^2 rotations
    run in parallel so their timesteps count once.
    """
    l2 = lattice_l**2
    return RotationCost(
        t_states=l2 * rotation.t_states,
        logical_timesteps=rotation.logical_timesteps,
        active_cubes=l2 * rotation.active_cubes,
        transversal_cnots=2 * l2,
    )


def pink_cost(lattice_l: int, rotation: RotationCost) -> RotationCost:
    """One half-step over the bulk plaquette layer (applied twice per step).

    L^2/2 plaquettes diagonalize in parallel; cube and T entries scale with
    the plaquette count while timesteps add once.
    """
    l2 = lattice_l**2
    plaquettes = l2 / 2
    return RotationCost(
        t_states=plaquettes * PLAQ_DIAG_T_STATES + l2 * rotation.t_states,
        logical_timesteps=PLAQ_DIAG_TIMESTEPS + rotation.logical_timesteps,
        active_cubes=plaquettes * PLAQ_DIAG_CUBES + l2 * rotation.active_cubes,
        transversal_cnots=0.0,
    )


@functools.lru_cache(maxsize=64, typed=True)
def golden_diag_cubes(lattice_l: int, w_msf: int) -> float:
    """Active cubes of the golden-layer diagonalization, all four passes.

    Base cost per plaquette is half the bulk diagonalization plus idling
    through the two rounds it does not participate in; corridor terms cover
    the long-range boundary edge operators and the column shift through the
    factory aisle.  It depends on neither the rounds nor the rotation, so it
    is computed once per ``(lattice_l, w_msf)``, typed so that ``2.0`` is not
    served the entry of ``2``; a bad pair raises every time.
    """
    check_plane(lattice_l, w_msf)
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


def golden_cost(lattice_l: int, w_msf: int, rotation: RotationCost) -> RotationCost:
    """One full step over the golden plaquette layer."""
    l2 = lattice_l**2
    return RotationCost(
        t_states=(l2 / 2) * PLAQ_DIAG_T_STATES + l2 * rotation.t_states,
        logical_timesteps=GOLDEN_DIAG_TIMESTEPS + rotation.logical_timesteps,
        active_cubes=golden_diag_cubes(lattice_l, w_msf) + l2 * rotation.active_cubes,
        transversal_cnots=0.0,
    )


def trotter_step_cost(spec: ProblemSpec, rotation: RotationCost) -> RotationCost:
    """Ledger of one full Trotter step (interaction + pink + golden + pink).

    Each field is the one the four sub-evolution ledgers above sum to, added
    in the same order, so it equals their sum bit for bit.
    """
    l2 = spec.lattice_l**2
    rot_t, rot_ts, rot_cubes = (l2 * rotation.t_states, rotation.logical_timesteps,
                                l2 * rotation.active_cubes)
    # the golden layer diagonalizes as many plaquettes as the pink one
    diag_t = (l2 / 2) * PLAQ_DIAG_T_STATES + rot_t
    pink_ts = PLAQ_DIAG_TIMESTEPS + rot_ts
    pink_cubes = (l2 / 2) * PLAQ_DIAG_CUBES + rot_cubes
    golden_cubes = golden_diag_cubes(spec.lattice_l, spec.w_msf) + rot_cubes
    return RotationCost(
        t_states=rot_t + diag_t + diag_t + diag_t,
        logical_timesteps=rot_ts + pink_ts + (GOLDEN_DIAG_TIMESTEPS + rot_ts) + pink_ts,
        active_cubes=rot_cubes + pink_cubes + golden_cubes + pink_cubes,
        transversal_cnots=float(2 * l2),
    )


def single_plane_step_timesteps(t_synth: float) -> float:
    """Timesteps per step of the single-plane reference compilation."""
    return SINGLE_PLANE_SYNTH_LAYERS * t_synth + SINGLE_PLANE_DIAG_TIMESTEPS
