"""One rule for every integer argument of the estimate chain and its oracles.

Any integer counts, numpy's included, and is used as a Python int; a bool, a
float (even 2.0), nan, inf, a string or None is an ``InvalidParameterError``
whose message starts with the argument's name.
"""

import dataclasses
import math

import numpy as np
import pytest

from ftcost import (
    AttemptCaps,
    InvalidParameterError,
    ProblemSpec,
    TimingModel,
    allocate_budget,
    cycle_outcome_distribution,
    derive_noise_params,
    fallback_plan,
    floorplan,
    mc_rus_oracle,
    patch_geometry,
    solve_estimate,
)
from ftcost.errors import Record
from ftcost.pipeline import FloorplanCounts, SolveOptions, render_floorplan
from ftcost.plaquette import run_verification
from ftcost.surgery import PatchGeometry, ladder_rungs
from ftcost.trotter import golden_diag_cubes

NOISE = derive_noise_params(0.01)
BUDGET = allocate_budget(0.01)
CYCLE = cycle_outcome_distribution(0.009, 8.5e-4)
TIMING = TimingModel()

#: (argument name, call taking the argument, a valid Python int, other valid values)
SITES = [
    ("n_rus", AttemptCaps, 10, ()),
    ("lattice_l", lambda v: golden_diag_cubes(v, 2), 8, ()),
    ("trials", lambda v: mc_rus_oracle(CYCLE, AttemptCaps(), v, seed=1), 50, ()),
    ("seed", lambda v: mc_rus_oracle(CYCLE, AttemptCaps(), 50, seed=v), 7, ()),
    ("streams", lambda v: mc_rus_oracle(CYCLE, AttemptCaps(), 50, seed=1, streams=v), 2, ()),
    ("lattice_l", lambda v: ProblemSpec(v, 8.0, 80.0), 8, ()),
    ("w_msf", lambda v: ProblemSpec(8, 8.0, 80.0, v), 2, ()),
    ("lattice_l", lambda v: fallback_plan(1e-10, 0.99, v), 8, ()),
    ("initial_rounds", lambda v: solve_estimate(
        ProblemSpec(8, 8.0, 80.0), NOISE, BUDGET, SolveOptions(initial_rounds=v)).key_values(),
     60, (None,)),
    ("width", lambda v: PatchGeometry(v, 12, 24), 8, ()),
    ("height", lambda v: PatchGeometry(8, v, 24), 12, ()),
    ("rounds", lambda v: PatchGeometry(8, 12, v), 24, ()),
    ("width", patch_geometry, 30, ()),
    ("max_width", ladder_rungs, 30, ()),
    ("n_angles", lambda v: run_verification(n_angles=v), 2, ()),
    ("seed", lambda v: run_verification(n_angles=1, seed=v), 3, ()),
    ("rounds_per_cycle", TIMING.logical_cycle_ns, 102, ()),
    ("rounds_per_cycle", TIMING.reaction_ratio, 102, ()),
    ("total_patches", lambda v: FloorplanCounts(v, 30), 100, ()),
    ("msf_patches", lambda v: FloorplanCounts(100, v), 30, ()),
    ("w_msf", lambda v: golden_diag_cubes(8, v), 2, ()),
    ("lattice_l", lambda v: floorplan(v, 2), 12, ()),
    ("lattice_l", lambda v: render_floorplan(v, 2), 12, ()),
]
SITE_IDS = [f"{name}-{i}" for i, (name, *_) in enumerate(SITES)]

NUMPY_INTEGERS = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64]
NOT_INTEGERS = [True, np.True_, 8.0, math.nan, math.inf, "8", None]


def _types(value):
    """The type of ``value`` and, recursively, of its fields and items."""
    if isinstance(value, Record):
        return type(value), tuple(_types(getattr(value, name)) for name in value._fields)
    if dataclasses.is_dataclass(value):
        return type(value), tuple(_types(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(_types, value))
    if isinstance(value, dict):
        return type(value), tuple((key, _types(item)) for key, item in value.items())
    return type(value)


@pytest.mark.parametrize("integer", NUMPY_INTEGERS)
@pytest.mark.parametrize("name, call, good, _", SITES, ids=SITE_IDS)
def test_numpy_integers_act_as_python_ints(name, call, good, _, integer):
    expected = call(good)
    result = call(integer(good))
    assert result == expected
    assert _types(result) == _types(expected)


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{site_id}-{value!r}")
    for site_id, (name, call, _, valid) in zip(SITE_IDS, SITES)
    for value in NOT_INTEGERS if value not in valid
])
def test_non_integers_rejected_with_the_argument_named(name, call, value):
    with pytest.raises(InvalidParameterError, match=f"^{name}="):
        call(value)


def test_numpy_estimate_matches_the_int_estimate_in_value_and_type():
    expected = solve_estimate(ProblemSpec(8, 8.0, 80.0, 2), NOISE, BUDGET,
                              SolveOptions(initial_rounds=60, max_width=30)).key_values()
    result = solve_estimate(ProblemSpec(np.int16(8), 8.0, 80.0, np.uint8(2)), NOISE, BUDGET,
                            SolveOptions(initial_rounds=np.int64(60),
                                         max_width=np.int32(30))).key_values()
    assert result == expected
    assert {k: type(v) for k, v in result.items()} == {k: type(v) for k, v in expected.items()}
