"""Every frozen record of the package behaves as the frozen dataclass it
replaced: the same repr and hash, equality only with an equal record of the
same class, and no field assigned or deleted after construction.

Each sample's repr, and its hash where the fields hash the same in every
process (numbers, not strings or None), is the value the dataclass gave.
"""

import numpy as np
import pytest

from ftcost.errors import Record
from ftcost.noise import AttemptCaps, cycle_outcome_distribution
from ftcost.pauli import PauliString, PauliSum
from ftcost.pipeline import FloorplanCounts, SolveOptions, allocate_budget, solve_estimate
from ftcost.plaquette import DiagonalizationCircuit
from ftcost.surgery import ErrorDataPoint, FitParams, MsfProtocol, PatchGeometry
from ftcost.synthesis import RotationCost, fallback_plan
from ftcost.timing import TimingModel, derive_noise_params
from ftcost.trotter import ProblemSpec

#: The hash of a sample whose fields hash differently in each process is that
#: of its field tuple, as a dataclass's is.
PER_PROCESS = object()
UNHASHABLE = object()

#: (a call building the sample, its repr, its hash)
SAMPLES = {
    "PhysicalNoiseParams": (
        lambda: derive_noise_params(0.01),
        "PhysicalNoiseParams(p=0.01, epsilon=0.009000000000000001, "
        "distinguishability=0.0008500000000000001)",
        6735871584651621857),
    "TimingModel": (
        TimingModel,
        "TimingModel(syndrome_round_ns=305.0, reaction_us=10.0, reaction_rounds=33)",
        118783199458770244),
    "ProblemSpec": (
        lambda: ProblemSpec(8, 8.0, 80.0),
        "ProblemSpec(lattice_l=8, u_over_t=8.0, sim_time_t=80.0, w_msf=2)",
        -2901172996914783679),
    "SynthesisPlan": (
        lambda: fallback_plan(1e-10, 0.99, 8),
        "SynthesisPlan(n_t=27.76499014085796, n_t_fallback=58.00769266126539, "
        "n_t_success=27.184913214245306, p_all=0.525596487525562, "
        "ptilde_fail=0.021079101939699134, ptilde_succ=0.9789208980603009)",
        -2217924824649810197),
    "RotationCost": (
        lambda: RotationCost(72.0, 98.0, 434.0),
        "RotationCost(t_states=72.0, logical_timesteps=98.0, active_cubes=434.0, "
        "transversal_cnots=0.0)",
        4558029132448337928),
    "PatchGeometry": (
        lambda: PatchGeometry(6, 9, 18),
        "PatchGeometry(width=6, height=9, rounds=18)",
        4618466355849187979),
    "ErrorDataPoint": (
        lambda: ErrorDataPoint(PatchGeometry(6, 9, 18), 0.002, 0.0001),
        "ErrorDataPoint(geometry=PatchGeometry(width=6, height=9, rounds=18), e_hv=0.002, "
        "sigma=0.0001)",
        -4075906362320367342),
    "FitParams": (
        lambda: FitParams(0.5, 2.0),
        "FitParams(a=0.5, b=2.0)",
        4981211117337784684),
    "MsfProtocol": (
        lambda: MsfProtocol("x", 4.5e-08, 4620.0, 42.6),
        "MsfProtocol(label='x', p_out=4.5e-08, sc_qubits=4620.0, sc_cycles=42.6)",
        PER_PROCESS),
    "ErrorBudget": (
        lambda: allocate_budget(0.01),
        "ErrorBudget(total_diamond=0.01, eps_alg=0.0024875621890547268, "
        "eps_rot=2.487562189054727e-05, eps_log=0.0025, eps_msf=0.0025)",
        5476632239014036811),
    "FloorplanCounts": (
        lambda: FloorplanCounts(100, 30),
        "FloorplanCounts(total_patches=100, msf_patches=30)",
        6583941065107032640),
    "SolveOptions": (
        SolveOptions,
        "SolveOptions(strategy='mixed_fallback', p_succ=0.99, mode='worst', "
        "precision='headline', timing=TimingModel(syndrome_round_ns=305.0, reaction_us=10.0, "
        "reaction_rounds=33), fit=None, protocols=None, floorplan_override=None, "
        "initial_rounds=None, max_width=30)",
        PER_PROCESS),
    "EstimateReport": (
        lambda: solve_estimate(ProblemSpec(8, 8.0, 80.0), derive_noise_params(0.01),
                               allocate_budget(0.01)),
        "EstimateReport(trotter_steps=487814, eps_synth=1.9919559096284704e-13, "
        "n_t_per_rotation=33.0, n_t_fallback=72.0, t_synth_timesteps=96, "
        "timesteps_per_step=474, cubes_per_step=143420.0, t_states_per_step=9216.0, "
        "transversal_cnots_per_step=128.0, n_l_total=69962283880.0, n_t_total=4495693824.0, "
        "p_l_target=3.573353900635984e-14, p_msf_target=5.560876914379479e-13, "
        "geometry=PatchGeometry(width=30, height=51, rounds=102), logical_cycle_ns=31110.0, "
        "floorplan=FloorplanCounts(total_patches=882, msf_patches=336), "
        "physical_qubits=1349460, msf_protocol='15to1x6_13_5_5-15to1_29_11_13', "
        "msf_factories=39, msf_qubits_required=158730.0, msf_qubits_available=514080, "
        "runtime_seconds=7193.37353796, iterations=1)",
        PER_PROCESS),
    "AttemptCaps": (
        lambda: AttemptCaps(10),
        "AttemptCaps(n_rus=10)",
        -2475021556223132490),
    "CycleOutcomeDistribution": (
        lambda: cycle_outcome_distribution(0.009, 0.00085),
        "CycleOutcomeDistribution(p_success=0.4910405, p_repeat_indist=0.49083180778749996, "
        "p_repeat_dist=0.00020869221249999998, p_one_loss=0.017838, "
        "p_two_loss=8.099999999999999e-05)",
        8390980464087639234),
    "PauliString": (
        lambda: PauliString("XYZ", -1j),
        "PauliString(letters='XYZ', phase=(-0-1j))",
        PER_PROCESS),
    "PauliSum": (
        lambda: PauliSum.from_terms([(0.5, PauliString("XX")), (0.25j, PauliString("ZY", -1j))]),
        "PauliSum(terms=((0.5, PauliString(letters='XX', phase=1)), "
        "((0.25+0j), PauliString(letters='ZY', phase=1))))",
        PER_PROCESS),
    "DiagonalizationCircuit": (
        lambda: DiagonalizationCircuit(np.eye(1), 1j * np.eye(1)),
        "DiagonalizationCircuit(forward=array([[1.]]), inverse=array([[0.+1.j]]))",
        UNHASHABLE),
}


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_class_has_a_sample():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    package = {cls.__name__ for cls in subclasses(Record) if cls.__module__.startswith("ftcost.")}
    assert package == set(SAMPLES)


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_and_hash_are_the_dataclasss(name):
    build, text, expected = SAMPLES[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text
    if expected is UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
    else:
        assert hash(record) == (hash(_values(record)) if expected is PER_PROCESS else expected)


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_only_to_an_equal_record_of_its_class(name):
    build = SAMPLES[name][0]
    record = build()
    assert record == build() and not record != build()
    values = _values(record)
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(record._fields)})(*values)
    assert _values(twin) == values
    assert record != values and values != record
    assert record != twin and twin != record


@pytest.mark.parametrize("name", SAMPLES)
def test_no_field_can_be_assigned_or_deleted(name):
    record = SAMPLES[name][0]()
    field = record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert getattr(record, field) is before


@pytest.mark.parametrize("args, kwargs", [((0.5,), {}), ((0.5, 2.0, 3.0), {}),
                                          ((0.5,), {"a": 2.0}), ((), {"a": 0.5, "c": 2.0})])
def test_the_generic_constructor_takes_each_field_once(args, kwargs):
    assert FitParams(0.5, b=2.0) == FitParams(a=0.5, b=2.0) == FitParams(0.5, 2.0)
    with pytest.raises(TypeError, match=r"^FitParams\(\) takes the fields a, b$"):
        FitParams(*args, **kwargs)
