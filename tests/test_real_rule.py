"""One rule for every real argument of the estimate chain and its oracles, and
a ``SolveOptions`` that checks every field when it is built.

Any real number counts, numpy's included, and is used as a Python float; a
bool, a string, None, NaN, inf or a value out of range is an
``InvalidParameterError`` whose message starts with the argument's name.  The
fuzz test below draws, for one argument at a time, either such a bad value or
an in-range numpy scalar, and asks a numpy scalar for the result of the same
value as a Python number, in value and in type.  A choice argument, such as
a strategy name, fails in the same form: ``name=value!r must be one of ...``.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftcost import (
    AttemptCaps,
    ErrorBudget,
    ErrorDataPoint,
    FitError,
    InvalidParameterError,
    MsfProtocol,
    NoDistanceFoundError,
    NoProtocolError,
    PhysicalNoiseParams,
    ProblemSpec,
    TimingModel,
    allocate_budget,
    cycle_outcome_distribution,
    derive_noise_params,
    direct_plan,
    fallback_plan,
    fit_error_curve,
    load_error_data,
    load_msf_table,
    mc_rus_oracle,
    msf_sizing,
    select_distance,
    solve_estimate,
    synthesis_cost,
    t_count,
    trotter_steps,
)
from ftcost.pauli import PauliString
from ftcost.pipeline import SolveOptions
from ftcost.plaquette import (
    build_diagonalization_circuit,
    build_plaquette_hamiltonian,
    run_verification,
    verify_fourier_identity,
    verify_plaquette_evolution,
)
from ftcost.surgery import PatchGeometry

SPEC = ProblemSpec(8, 8.0, 80.0)
NOISE = derive_noise_params(0.01)
BUDGET = allocate_budget(0.01)
PLAN = direct_plan(1e-10)
FALLBACK = fallback_plan(1e-10, 0.99, 8)
FIT = fit_error_curve(load_error_data())
PROTOCOLS = load_msf_table()
GEOMETRY = PatchGeometry(6, 9, 18)
INF = math.inf


@dataclasses.dataclass(frozen=True)
class Site:
    """One argument: a call taking it, the bad values it must reject beyond
    the common ones, and the numpy scalars it must take like Python numbers."""

    name: str  # the call, then a dot, then the argument's name
    call: object
    bad: tuple = ()
    good: object = None


def _reals(least=-INF, most=INF, above=-INF, below=INF, span=2.0**20):
    """In-range float64, float32 and int64 scalars, of magnitude up to ``span``
    and at least 2^-20 where the range is open at 0 (both float32 numbers)."""
    low, high = max(least, above, -span), min(most, below, span)
    if low == above == 0:
        low = 2.0**-20
    scalars = [st.floats(low, high, exclude_min=low == above, exclude_max=high == below,
                         width=width).map(kind)
               for width, kind in ((64, np.float64), (32, np.float32))]
    first, last = math.ceil(low), math.floor(high)
    first, last = first + (first == above), last - (last == below)  # open ends
    if first <= last:
        scalars.append(st.integers(first, last).map(np.int64))
    return st.one_of(scalars)


def _budget_field(name):
    return lambda v: ErrorBudget(**{**dataclasses.asdict(BUDGET), name: v})


def _options_field(name):
    return lambda v: SolveOptions(**{name: v})


POSITIVE = dict(above=0)
NONNEGATIVE = dict(least=0)
PROBABILITY = dict(least=0, below=1)  # [0, 1)
OPEN_UNIT = dict(above=0, below=1)  # (0, 1)

SITES = {site.name: site for site in [
    Site("ProblemSpec.u_over_t", lambda v: ProblemSpec(8, v, 80.0), (0.0, -1.0), _reals(**POSITIVE)),
    Site("ProblemSpec.sim_time_t", lambda v: ProblemSpec(8, 8.0, v), (0.0,), _reals(**POSITIVE)),
    Site("TimingModel.syndrome_round_ns", TimingModel, (0.0, -305.0), _reals(**POSITIVE)),
    Site("TimingModel.reaction_us", lambda v: TimingModel(305.0, v), (0,), _reals(**POSITIVE)),
    Site("allocate_budget.total", allocate_budget, (-0.01,), _reals(**NONNEGATIVE)),
    *(Site(f"ErrorBudget.{name}", _budget_field(name), (-1e-3,), _reals(**NONNEGATIVE, span=1))
      for name in ("total_diamond", "eps_alg", "eps_rot", "eps_log", "eps_msf")),
    *(Site(f"PhysicalNoiseParams.{name}",
           lambda v, name=name: PhysicalNoiseParams(**{**dataclasses.asdict(NOISE), name: v}),
           (-0.01, 1.0), _reals(**PROBABILITY))
      for name in ("p", "epsilon", "distinguishability")),
    Site("derive_noise_params.p", derive_noise_params, (-0.01, 1.0, 1.5), _reals(**PROBABILITY)),
    Site("cycle_outcome_distribution.epsilon", lambda v: cycle_outcome_distribution(v, 8.5e-4),
         (1.0, -0.5), _reals(**PROBABILITY)),
    Site("cycle_outcome_distribution.distinguishability",
         lambda v: cycle_outcome_distribution(0.009, v), (1.0,), _reals(**PROBABILITY)),
    Site("t_count.epsilon_synth", lambda v: t_count("diagonal", v), (0.0, 1.0), _reals(**OPEN_UNIT)),
    Site("fallback_plan.epsilon_synth", lambda v: fallback_plan(v, 0.99, 8), (0, 1),
         _reals(**OPEN_UNIT)),
    Site("fallback_plan.p_succ", lambda v: fallback_plan(1e-9, v, 8), (0.0, 2.0),
         _reals(above=0, most=1)),
    Site("synthesis_cost.tau_ratio", lambda v: synthesis_cost(PLAN, "direct", v), (-0.3,),
         _reals(**NONNEGATIVE)),
    Site("synthesis_cost[fallback].tau_ratio", lambda v: synthesis_cost(FALLBACK, "fallback", v), (-1,),
         _reals(**NONNEGATIVE)),
    Site("select_distance.target_error", lambda v: select_distance(FIT, v), (0.0, 1.0, 2.0),
         _reals(**OPEN_UNIT)),
    Site("trotter_steps.eps_alg", lambda v: trotter_steps(SPEC, v), (0.0, -1.0), _reals(**POSITIVE)),
    Site("msf_sizing.n_t_total", lambda v: msf_sizing(v, 0.0025, 8, 102, 33, PROTOCOLS),
         (0.0, -5.0), _reals(**POSITIVE, span=2.0**40)),
    Site("ErrorDataPoint.e_hv", lambda v: ErrorDataPoint(GEOMETRY, v, 1e-4), (0.0, 1.0),
         _reals(**OPEN_UNIT)),
    Site("ErrorDataPoint.sigma", lambda v: ErrorDataPoint(GEOMETRY, 2e-3, v), (0.0,),
         _reals(**POSITIVE)),
    Site("MsfProtocol.p_out", lambda v: MsfProtocol("x", v, 4620.0, 42.6), (0.0, 1.0),
         _reals(**OPEN_UNIT)),
    Site("MsfProtocol.sc_qubits", lambda v: MsfProtocol("x", 1e-8, v, 42.6), (0.0,),
         _reals(**POSITIVE)),
    Site("MsfProtocol.sc_cycles", lambda v: MsfProtocol("x", 1e-8, 4620.0, v), (-1.0,),
         _reals(**POSITIVE)),
    Site("build_plaquette_hamiltonian.t_coupling", build_plaquette_hamiltonian, (),
         _reals(span=2.0**10)),
    Site("verify_plaquette_evolution.t_coupling", lambda v: verify_plaquette_evolution(v, 0.3),
         (0.0, 0), _reals(above=0, span=2.0**10)),
    Site("verify_plaquette_evolution.theta", lambda v: verify_plaquette_evolution(1.0, v), (),
         _reals(span=2.0**10)),
    Site("verify_fourier_identity.theta", verify_fourier_identity, (), _reals(span=2.0**10)),
    Site("build_diagonalization_circuit.theta", build_diagonalization_circuit, (),
         _reals(span=2.0**10)),
    Site("run_verification.tolerance", lambda v: run_verification(1, 0, v), (0.0, -1e-10),
         _reals(**POSITIVE)),
    Site("SolveOptions.p_succ", _options_field("p_succ"), (0.0, 5), _reals(above=0, most=1)),
    Site("SolveOptions.strategy", _options_field("strategy"), ("nope", "DIAGONAL")),
    Site("SolveOptions.mode", _options_field("mode"), ("nope",)),
    Site("SolveOptions.precision", _options_field("precision"), ("bogus",)),
    Site("SolveOptions.timing", _options_field("timing"), (305.0,)),
    Site("SolveOptions.fit", _options_field("fit"), ((1.0, 2.0),)),
    Site("SolveOptions.protocols", _options_field("protocols"), ([], (), PROTOCOLS[0])),
    # what the sequence holds: each item is an MsfProtocol
    Site("SolveOptions.protocols[0]", lambda v: SolveOptions(protocols=[v, 2]), (1, "x", PROTOCOLS)),
    Site("SolveOptions.floorplan_override", _options_field("floorplan_override"),
         ((1000,), (1000, 400, 0), "10", {1000: 400}),
         st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).map(
             lambda pair: (np.int64(max(pair)), np.int64(min(pair))))),
    # the pair's counts follow the integer rule of ``FloorplanCounts``
    Site("SolveOptions.floorplan_override[0].total_patches",
         lambda v: SolveOptions(floorplan_override=(v, 0)), (-1, 2.5, 100.0),
         st.integers(0, 10**6).map(np.int64)),
    Site("SolveOptions.floorplan_override[1].msf_patches",
         lambda v: SolveOptions(floorplan_override=(10**6, v)), (-1, 2.5, 100.0),
         st.integers(0, 10**6).map(np.int64)),
    Site("SolveOptions.initial_rounds", _options_field("initial_rounds"), (2.5, 0, -60, 60.0),
         st.integers(1, 10**6).map(np.int64)),
    Site("SolveOptions.max_width", _options_field("max_width"), (5, 201, 30.0),
         st.integers(6, 200).map(np.int64)),
]}

#: An integer beyond any float.
HUGE = 10**400
#: Bad for every argument, except None where the argument is optional and
#: ``HUGE`` where any integer >= 0 or >= 1 is in range.
COMMON_BAD = (True, False, np.True_, "0.5", None, math.nan, INF, -INF, HUGE)
OPTIONAL = {"SolveOptions.fit", "SolveOptions.protocols", "SolveOptions.floorplan_override",
            "SolveOptions.initial_rounds"}
UNBOUNDED = {"SolveOptions.floorplan_override[0].total_patches", "SolveOptions.initial_rounds"}


def _bad(site):
    common = [v for v in COMMON_BAD
              if not (v is None and site.name in OPTIONAL or v is HUGE and site.name in UNBOUNDED)]
    return st.sampled_from(common + list(site.bad))


@st.composite
def _draws(draw):
    key = draw(st.sampled_from(sorted(SITES)))
    site = SITES[key]
    kind = draw(st.sampled_from(["bad", "numpy"]) if site.good is not None else st.just("bad"))
    return key, kind, draw(_bad(site) if kind == "bad" else site.good)


def _python(value):
    """A numpy scalar, or a tuple of them, as Python numbers."""
    if isinstance(value, tuple):
        return tuple(map(_python, value))
    return value.item()


def _outcome(call, value):
    """The call's result, or the domain error it raised; any other exception
    (a TypeError, AttributeError or ZeroDivisionError) propagates."""
    try:
        return call(value)
    except (InvalidParameterError, NoDistanceFoundError, NoProtocolError, FitError) as exc:
        return type(exc), str(exc)


def check(key, kind, value):
    """A bad value is rejected naming the argument; a numpy scalar gives the
    result of the same value as a Python number, in value and in type."""
    site = SITES[key]
    argument = site.name.rsplit(".", 1)[1]
    if kind == "bad":
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(argument)}="):
            site.call(value)
    else:
        # repr tells np.float64(0.5) from 0.5, in a result's fields too
        assert repr(_outcome(site.call, value)) == repr(_outcome(site.call, _python(value)))


#: Bad values each call must reject, always among the draws: bools taken as
#: numbers, strings and None that would meet a comparison or a product,
#: options the solver would read only later (a protocol list of ints, [1, 2], ended in an
#: AttributeError inside msf_sizing), and integers beyond any float.  A max_width of 31 is inside
#: the ladder rule, [6, 200], and solves up to width 30.
MOTIVATION = [
    ("ProblemSpec.u_over_t", "bad", True), ("TimingModel.syndrome_round_ns", "bad", True),
    ("allocate_budget.total", "bad", True), ("derive_noise_params.p", "bad", False),
    ("SolveOptions.p_succ", "bad", True), ("fallback_plan.p_succ", "bad", True),
    ("synthesis_cost.tau_ratio", "bad", True), ("run_verification.tolerance", "bad", True),
    ("build_plaquette_hamiltonian.t_coupling", "bad", True),
    ("ProblemSpec.u_over_t", "bad", "8"), ("ProblemSpec.u_over_t", "bad", None),
    ("TimingModel.syndrome_round_ns", "bad", "305"), ("allocate_budget.total", "bad", "0.01"),
    ("derive_noise_params.p", "bad", "0.01"), ("t_count.epsilon_synth", "bad", "1e-9"),
    ("synthesis_cost.tau_ratio", "bad", "0.3"), ("SolveOptions.p_succ", "bad", "0.9"),
    ("SolveOptions.strategy", "bad", "nope"), ("SolveOptions.mode", "bad", "nope"),
    ("SolveOptions.precision", "bad", "bogus"), ("SolveOptions.max_width", "bad", 201),
    ("SolveOptions.initial_rounds", "bad", 2.5), ("SolveOptions.protocols[0]", "bad", 1),
    ("allocate_budget.total", "bad", HUGE), ("ProblemSpec.u_over_t", "bad", HUGE),
]


def _with_examples(test):
    for case in MOTIVATION:
        test = example(case=case)(test)
    return test


@_with_examples
@settings(max_examples=1000, deadline=None)
@given(case=_draws())
def test_real_arguments_follow_one_rule(case):
    check(*case)


@pytest.mark.parametrize("protocols, message", [
    ([1, 2], "protocols[0]=1 must be an MsfProtocol"),
    ((*PROTOCOLS, "x"), f"protocols[{len(PROTOCOLS)}]='x' must be an MsfProtocol"),
])
def test_protocols_hold_only_protocols(protocols, message):
    with pytest.raises(InvalidParameterError) as info:
        SolveOptions(protocols=protocols)
    assert str(info.value) == message


ANY_STRATEGY = "must be one of diagonal | mixed_diagonal | fallback | mixed_fallback"


@pytest.mark.parametrize("name, call, message", [
    ("strategy", lambda: SolveOptions(strategy="nope"), f"strategy='nope' {ANY_STRATEGY}"),
    ("strategy", lambda: t_count("nope", 1e-3), f"strategy='nope' {ANY_STRATEGY}"),
    ("strategy", lambda: t_count(["x"], 1e-3), f"strategy=['x'] {ANY_STRATEGY}"),
    ("strategy", lambda: direct_plan(1e-3, "nope"), f"strategy='nope' {ANY_STRATEGY}"),
    ("strategy", lambda: fallback_plan(1e-3, 0.99, 8, "diagonal"),
     "strategy='diagonal' must be one of fallback | mixed_fallback"),
    ("mode", lambda: t_count("diagonal", 1e-3, "typical"), "mode='typical' must be one of worst | mean"),
    ("strategy_kind", lambda: synthesis_cost(PLAN, "x", 0.3),
     "strategy_kind='x' must be one of direct | fallback"),
    ("kind", lambda: mc_rus_oracle(cycle_outcome_distribution(0.009, 8.5e-4), AttemptCaps(), 50,
                                   seed=1, kind="CZ"),
     "kind='CZ' must be one of cz | mzz"),
    ("letters", lambda: PauliString("AB"), "letters='AB' must be a str of I, X, Y and Z"),
    ("phase", lambda: PauliString("XZ", 2), "phase=2 must be one of 1 | 1j | -1 | -1j"),
], ids=["SolveOptions", "t_count", "t_count-unhashable", "direct_plan", "fallback_plan",
        "t_count-mode", "synthesis_cost", "mc_rus_oracle", "PauliString-letters",
        "PauliString-phase"])
def test_choice_arguments_fail_in_one_form(name, call, message):
    with pytest.raises(InvalidParameterError, match=f"^{name}=") as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("args", [(5e-324,), (305.0, 1e306)])
def test_reaction_time_beyond_a_float_of_rounds_is_rejected(args):
    # each field is in range, but the reaction time in rounds is not finite
    with pytest.raises(InvalidParameterError, match=r"^reaction_us=\S+ must be a finite number of"):
        TimingModel(*args)


def test_numpy_solve_matches_the_python_solve_in_value_and_type():
    def solve(u, t, total, p, p_succ):
        return solve_estimate(ProblemSpec(8, u, t), derive_noise_params(p), allocate_budget(total),
                              SolveOptions(p_succ=p_succ)).key_values()

    expected = solve(8.0, 80.0, 0.01, 0.01, 0.99)
    result = solve(np.float64(8.0), np.float32(80.0), np.float64(0.01), np.float64(0.01),
                   np.float64(0.99))
    assert result == expected
    assert {k: type(v) for k, v in result.items()} == {k: type(v) for k, v in expected.items()}
