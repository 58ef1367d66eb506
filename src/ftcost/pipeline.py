"""Error budgeting, floorplan, factory sizing, and the self-consistent estimate.

The full estimate is self-referential: the code distance sets the logical
cycle time, which sets the synthesis cost, which sets the total cube count,
which sets the logical error target, which sets the code distance.  Let g(r)
be the geometry selected when the cube runs r rounds.  g is nonincreasing in
r (more rounds lower the reaction ratio, hence the cube count, hence loosen
the target), so the answer is the least ladder entry r with g(r) <= r, and a
fixed point g(r) = r is always that entry.  The solver finds it by a
bracketed search over the ladder: each probe evaluates one entry and moves
one end of the bracket, so it ends after at most one probe per entry.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from typing import Optional, Sequence

from .errors import PRECISIONS, InvalidParameterError, NoProtocolError, Record, integer, real, real_fields
from .surgery import (
    BUNDLED_NOISE_P,
    LADDER,
    LADDER_WIDTHS,
    FitParams,
    MsfProtocol,
    PatchGeometry,
    fit_error_curve,
    ladder_rungs,
    load_error_data,
    load_msf_table,
    select_distance,
)
from .synthesis import (
    FALLBACK_BRANCH,
    MODES,
    STRATEGIES,
    RotationCost,
    direct_plan,
    fallback_plan,
    synthesis_cost,
)
from .timing import DEFAULT_TIMING, PhysicalNoiseParams, TimingModel
from .trotter import (
    ProblemSpec,
    check_plane,
    single_plane_step_timesteps,
    trotter_step_cost,
    trotter_steps,
)


class ErrorBudget(Record):
    """Split of the total diamond-norm budget across error sources."""

    total_diamond: float
    eps_alg: float
    eps_rot: float
    eps_log: float
    eps_msf: float

    def __init__(self, total_diamond, eps_alg, eps_rot, eps_log, eps_msf):
        real_fields(self, self._fields, (total_diamond, eps_alg, eps_rot, eps_log, eps_msf), 0)
        consumed = 2 * self.eps_alg + self.eps_rot + self.eps_log + self.eps_msf
        if not consumed <= self.total_diamond + 1e-15:
            raise InvalidParameterError(
                f"budget overcommitted: {consumed} > {self.total_diamond}"
            )


def allocate_budget(total: float) -> ErrorBudget:
    """Split the budget: half algorithmic (2 eps_alg + eps_rot, with
    eps_rot = 0.01 eps_alg), half hardware (eps_log = eps_msf = total/4)."""
    total = real(total, "total", 0)
    eps_alg = (total / 2.0) / 2.01
    return ErrorBudget(total, eps_alg, 0.01 * eps_alg, total / 4.0, total / 4.0)


class FloorplanCounts(Record):
    total_patches: int
    msf_patches: int

    def __init__(self, total_patches, msf_patches):
        total = integer(total_patches, "total_patches", 0)
        msf = integer(msf_patches, "msf_patches", 0)
        if msf > total:
            raise InvalidParameterError(f"msf_patches={msf} must not exceed total_patches={total}")
        object.__setattr__(self, "total_patches", total)
        object.__setattr__(self, "msf_patches", msf)


def render_floorplan(lattice_l: int, w_msf: int) -> list[str]:
    """One plane of the patch layout as rows of cell characters.

    'D' data patch column positions, '.' workspace, 'V' vertical shuttle
    corridor (kept free for the golden-layer column shift), 'M' magic state
    factory aisle.  Grid rule (the published material fixes only the L=4
    drawing and one calibration point, so the generalization is an
    assumption): each plaquette column pair contributes site/workspace
    columns 'D.D', inter-pair gaps add one workspace column plus a
    w_msf-wide shuttle corridor; each plaquette row pair contributes rows
    data/workspace/data followed by a w_msf-tall factory aisle (the last
    aisle serves the periodic-boundary plaquettes), with one trailing
    workspace row.
    """
    lattice_l, w_msf = check_plane(lattice_l, w_msf)
    pairs = lattice_l // 2
    col_blocks = []
    for p in range(pairs):
        col_blocks.append("D.D")
        if p < pairs - 1:
            col_blocks.append("." + "V" * w_msf)
    cols = "".join(col_blocks)
    data_row = cols
    workspace_row = "".join("." if c != "V" else "V" for c in cols)
    aisle_row = "M" * len(cols)
    rows: list[str] = []
    for _ in range(pairs):
        rows += [data_row, workspace_row, data_row]
        rows += [aisle_row] * w_msf
    rows.append(workspace_row)
    return rows


def floorplan(lattice_l: int, w_msf: int) -> FloorplanCounts:
    """Patch counts over both planes.

    The counts are those of ``render_floorplan``'s plane, in closed form: with
    p = L/2 plaquette pairs, a plane is 3p + (p - 1)(1 + w_msf) columns by
    p(3 + w_msf) + 1 rows, of which p * w_msf rows are factory aisle.  They are
    counted once per pair of Python ints that the plane rule returns.
    """
    return _plane_counts(*check_plane(lattice_l, w_msf))


@functools.lru_cache(maxsize=64)
def _plane_counts(lattice_l: int, w_msf: int) -> FloorplanCounts:
    pairs = lattice_l // 2
    cols = 3 * pairs + (pairs - 1) * (1 + w_msf)
    rows = pairs * (3 + w_msf) + 1
    return FloorplanCounts(2 * cols * rows, 2 * pairs * w_msf * cols)


def msf_sizing(
    n_t_total: float,
    eps_msf: float,
    lattice_l: int,
    rounds_per_cycle: int,
    reaction_rounds: int,
    protocols: Sequence[MsfProtocol],
):
    """Choose a factory protocol and count parallel instances.

    The fidelity target spreads the budget linearly over all consumed T
    states; demand peaks at L^2 states per logical-cycle-plus-reaction
    window, counted in syndrome rounds, against each factory's 1/rounds
    output rate.
    """
    target = eps_msf / real(n_t_total, "n_t_total", above=0)
    feasible = [p for p in protocols if p.p_out < target]
    if not feasible:
        raise NoProtocolError(f"no protocol with p_out below target {target:g}")
    chosen = min(feasible, key=operator.attrgetter("hh_qubits"))
    demand = lattice_l**2 / (rounds_per_cycle + reaction_rounds)
    factories = math.ceil(demand * chosen.hh_rounds)
    return chosen, factories, factories * chosen.hh_qubits


def runtime_seconds(r: int, timesteps_per_step: float, logical_cycle_ns: float) -> float:
    return r * timesteps_per_step * logical_cycle_ns * 1e-9


def corridor_capacity_check(plan: FloorplanCounts, geometry: PatchGeometry,
                            msf_qubits_required: float) -> float:
    """Ratio of physical qubits in the factory aisles to the sized requirement."""
    if msf_qubits_required <= 0:
        return math.inf
    return plan.msf_patches * geometry.qubits / msf_qubits_required


#: Rounds of each ``surgery.LADDER`` entry, the keys the solver bisects.
_LADDER_ROUNDS = [rung.geometry.rounds for rung in LADDER]


class SolveOptions(Record):
    """Per-solve choices, checked and normalised when built; None means absent."""

    strategy: str = "mixed_fallback"
    p_succ: float = 0.99
    mode: str = "worst"
    precision: str = "headline"  # "headline" snaps counts to the integers
    timing: TimingModel = DEFAULT_TIMING
    fit: Optional[FitParams] = None
    protocols: Optional[Sequence[MsfProtocol]] = None
    floorplan_override: Optional[tuple[int, int]] = None
    initial_rounds: Optional[int] = None
    max_width: int = LADDER_WIDTHS[-1]  # up to surgery.MAX_WIDTH for off-table widths

    def __init__(self, strategy=strategy, p_succ=p_succ, mode=mode, precision=precision,
                 timing=timing, fit=fit, protocols=protocols,
                 floorplan_override=floorplan_override, initial_rounds=initial_rounds,
                 max_width=max_width):
        for name, value, choices in (("strategy", strategy, STRATEGIES),
                                     ("mode", mode, MODES),
                                     ("precision", precision, PRECISIONS)):
            if not (isinstance(value, str) and value in choices):
                raise InvalidParameterError(
                    f"{name}={value!r} must be one of {' | '.join(choices)}")
            object.__setattr__(self, name, value)
        # p_succ is read only by a fallback strategy, but is checked for every one
        object.__setattr__(self, "p_succ", real(p_succ, "p_succ", above=0, most=1))
        if not isinstance(timing, TimingModel):
            raise InvalidParameterError(f"timing={timing!r} must be a TimingModel")
        if not (fit is None or isinstance(fit, FitParams)):
            raise InvalidParameterError(f"fit={fit!r} must be None or a FitParams")
        if not (protocols is None or isinstance(protocols, (list, tuple)) and protocols):
            raise InvalidParameterError(
                f"protocols={protocols!r} must be None or a non-empty sequence")
        for i, protocol in enumerate(protocols or ()):
            if not isinstance(protocol, MsfProtocol):
                raise InvalidParameterError(f"protocols[{i}]={protocol!r} must be an MsfProtocol")
        override = floorplan_override
        if override is not None:
            if not (isinstance(override, (list, tuple)) and len(override) == 2):
                raise InvalidParameterError(
                    f"floorplan_override={override!r} must be None or a (total, msf) pair")
            counts = FloorplanCounts(*override)
            override = (counts.total_patches, counts.msf_patches)
        if initial_rounds is not None:
            initial_rounds = integer(initial_rounds, "initial_rounds", rule="None or an integer >= 1")
        ladder_rungs(max_width)  # the ladder's rule: an integer in [6, MAX_WIDTH]
        object.__setattr__(self, "timing", timing)
        object.__setattr__(self, "fit", fit)
        # a tuple of its own: the caller's list can change, and is unhashable
        object.__setattr__(self, "protocols", None if protocols is None else tuple(protocols))
        object.__setattr__(self, "floorplan_override", override)
        object.__setattr__(self, "initial_rounds", initial_rounds)
        object.__setattr__(self, "max_width", int(max_width))


class EstimateReport(Record):
    """The estimate at the least self-consistent ladder entry.

    ``iterations`` counts the ladder entries the solver evaluated."""

    trotter_steps: int
    eps_synth: float
    n_t_per_rotation: float
    n_t_fallback: float
    t_synth_timesteps: float
    timesteps_per_step: float
    cubes_per_step: float
    t_states_per_step: float
    transversal_cnots_per_step: float
    n_l_total: float
    n_t_total: float
    p_l_target: float
    p_msf_target: float
    geometry: PatchGeometry
    logical_cycle_ns: float
    floorplan: FloorplanCounts
    physical_qubits: int
    msf_protocol: str
    msf_factories: int
    msf_qubits_required: float
    msf_qubits_available: int
    runtime_seconds: float
    iterations: int

    def key_values(self) -> dict:
        """The machine-readable report, exactly the documented keys."""
        return {
            "trotter_steps": self.trotter_steps,
            "eps_synth": self.eps_synth,
            "n_t_per_rotation": self.n_t_per_rotation,
            "n_t_fallback": self.n_t_fallback,
            "t_synth_timesteps": self.t_synth_timesteps,
            "timesteps_per_step": self.timesteps_per_step,
            "cubes_per_step": self.cubes_per_step,
            "transversal_cnots_per_step": self.transversal_cnots_per_step,
            "n_l_total": self.n_l_total,
            "n_t_total": self.n_t_total,
            "p_l_target": self.p_l_target,
            "p_msf_target": self.p_msf_target,
            "code_width": self.geometry.width,
            "code_height": self.geometry.height,
            "rounds_per_cycle": self.geometry.rounds,
            "logical_cycle_ns": self.logical_cycle_ns,
            "total_patches": self.floorplan.total_patches,
            "msf_patches": self.floorplan.msf_patches,
            "physical_qubits": self.physical_qubits,
            "msf_factories": self.msf_factories,
            "msf_qubits_required": self.msf_qubits_required,
            "runtime_seconds": self.runtime_seconds,
            "iterations": self.iterations,
        }

    def single_plane_comparison(self) -> tuple[float, float]:
        """(timesteps per step, runtime seconds) of the single-plane reference."""
        ts = single_plane_step_timesteps(self.t_synth_timesteps)
        return ts, runtime_seconds(self.trotter_steps, ts, self.logical_cycle_ns)


def solve_estimate(
    spec: ProblemSpec,
    noise: PhysicalNoiseParams,
    budget: ErrorBudget,
    options: SolveOptions = SolveOptions(),
) -> EstimateReport:
    """The resource estimate at the least ladder entry r with g(r) <= r.

    The search starts at ``options.initial_rounds``, an integer >= 1 raised
    to a ladder entry, or when it is None at 102 rounds for L = 8 and 60
    otherwise.

    The cube error data (``options.fit``) carry the error-rate regime, and
    only ``noise.p`` is read.  With ``options.fit`` unset the bundled data
    are used, which are for ``surgery.BUNDLED_NOISE_P``, so another
    ``noise.p`` is an ``InvalidParameterError``; with a fit given, ``noise``
    is not checked against it.  ``load_config`` likewise rejects another
    ``noise.p`` unless a data file is given.

    In "headline" precision the per-rotation T counts, timesteps, and cubes
    are snapped to whole numbers at the plan boundary; "real" carries full
    precision throughout.
    """
    size = len(ladder_rungs(options.max_width))
    if options.fit is None and noise.p != BUNDLED_NOISE_P:
        raise InvalidParameterError(
            f"noise.p={noise.p} needs options.fit: "
            f"the bundled cube data are for p = {BUNDLED_NOISE_P}")
    fit = fit_error_curve(load_error_data()) if options.fit is None else options.fit
    protocols = load_msf_table() if options.protocols is None else options.protocols
    timing = options.timing

    r = trotter_steps(spec, budget.eps_alg)
    n_rotations = 4 * spec.lattice_l**2 * r
    eps_synth = budget.eps_rot / n_rotations

    headline = options.precision == "headline"
    rounding = "integer" if headline else "none"
    # the plan does not depend on the rounds a probe tries; only its cost does
    if options.strategy in FALLBACK_BRANCH:
        kind = "fallback"
        plan = fallback_plan(eps_synth, options.p_succ, spec.lattice_l,
                             strategy=options.strategy, mode=options.mode,
                             rounding=rounding)
    else:
        kind = "direct"
        plan = direct_plan(eps_synth, options.strategy, mode=options.mode,
                           rounding=rounding)

    def evaluate(rounds: int):
        rotation = synthesis_cost(plan, kind, timing.reaction_ratio(rounds))
        if headline:
            rotation = RotationCost(rotation.t_states, round(rotation.logical_timesteps),
                                    round(rotation.active_cubes))
        step = trotter_step_cost(spec, rotation)
        n_l = step.active_cubes * r
        p_l = budget.eps_log / n_l
        geo = select_distance(fit, p_l, options.max_width)
        return rotation, step, n_l, p_l, geo

    # the start sets the probe order: ``iterations``, and whether a probe below
    # the answer raises NoDistanceFoundError (every probe's error propagates)
    start = options.initial_rounds
    if start is None:
        start = 102 if spec.lattice_l == 8 else 60
    probe = min(bisect_left(_LADDER_ROUNDS, start), size - 1)
    # LADDER[lo] is known infeasible (g(r) > r), LADDER[hi] known feasible
    lo, hi = -1, size
    iterations = 0
    while True:
        evaluation = evaluate(_LADDER_ROUNDS[probe])
        iterations += 1
        selected = bisect_left(_LADDER_ROUNDS, evaluation[-1].rounds)
        if selected <= probe:
            hi, best = probe, evaluation
        else:
            lo = probe
        if selected == probe or hi - lo == 1:
            break
        probe = selected if lo < selected < hi else lo + 1
    rotation, step, n_l, p_l, _ = best
    qubits, _, geometry = LADDER[hi]

    n_t_total = step.t_states * r
    p_msf = budget.eps_msf / n_t_total
    chosen, factories, msf_qubits = msf_sizing(
        n_t_total, budget.eps_msf, spec.lattice_l,
        geometry.rounds, timing.reaction_rounds, protocols,
    )
    plan_counts = (floorplan(spec.lattice_l, spec.w_msf) if options.floorplan_override is None
                   else FloorplanCounts(*options.floorplan_override))
    msf_qubits_available = plan_counts.msf_patches * qubits
    if options.floorplan_override is not None and msf_qubits_available < msf_qubits:
        raise InvalidParameterError(
            f"floorplan.override_msf={plan_counts.msf_patches} holds {msf_qubits_available} "
            f"factory qubits at width {geometry.width}; the factories need {msf_qubits:.6g}")
    physical_qubits = plan_counts.total_patches * qubits
    cycle_ns = timing.logical_cycle_ns(geometry.rounds)
    # positional: a keyword call to the record costs more on this hot path
    return EstimateReport(
        r, eps_synth, plan.n_t, plan.n_t_fallback, rotation.logical_timesteps,
        step.logical_timesteps, step.active_cubes, step.t_states, step.transversal_cnots,
        n_l, n_t_total, p_l, p_msf, geometry, cycle_ns, plan_counts, physical_qubits,
        chosen.label, factories, msf_qubits, msf_qubits_available,
        runtime_seconds(r, step.logical_timesteps, cycle_ns), iterations)
