import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftcost import (
    InvalidParameterError,
    ProblemSpec,
    RotationCost,
    kappa,
    trotter_step_cost,
    trotter_steps,
)
from ftcost.pipeline import floorplan, render_floorplan
from ftcost.trotter import (
    GOLDEN_DIAG_TIMESTEPS,
    PLAQ_DIAG_TIMESTEPS,
    _golden,
    _interaction,
    _pink,
    golden_diag_cubes,
    single_plane_step_timesteps,
)

#: Converged per-rotation cost of the reference instance.
REFERENCE_ROTATION = RotationCost(t_states=33, logical_timesteps=96, active_cubes=434)
REFERENCE_SPEC = ProblemSpec(lattice_l=8, u_over_t=8.0, sim_time_t=80.0, w_msf=2)
ZERO = RotationCost(0, 0, 0)
EPS_ALG = 0.005 / 2.01


class TestKappa:
    def test_values(self):
        # oracle: evaluate the bracket by hand
        assert kappa(8.0) == pytest.approx(
            (1.5 * 64 + 16 * (2 * math.sqrt(5) + 16) + 10) / 24)
        assert kappa(8.0) == pytest.approx(18.0648, abs=1e-4)
        assert kappa(0.0) == pytest.approx(10 / 24)
        assert kappa(1.0) == pytest.approx(2.18518, abs=1e-5)

    @pytest.mark.parametrize("u", [1e155, 1e308, 10**200])
    def test_a_prefactor_beyond_any_float_is_one_error(self, u):
        message = f"u_over_t={u!r} must give a finite Trotter error prefactor"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            kappa(u)


class TestTrotterSteps:
    def test_reference_instance(self):
        r = trotter_steps(REFERENCE_SPEC, EPS_ALG)
        assert r == pytest.approx(4.88e5, rel=1e-2)

    def test_coefficient(self):
        r = trotter_steps(REFERENCE_SPEC, EPS_ALG)
        assert r / 8**2.5 == pytest.approx(2695, rel=1e-2)

    @pytest.mark.parametrize("spec", [ProblemSpec(8, 8.0, 8e205), ProblemSpec(10**150, 8.0, 1e151),
                                      ProblemSpec(10**309, 8.0, 1.0)])
    def test_a_step_count_beyond_any_float_is_one_error(self, spec):
        message = (f"u_over_t=8.0, lattice_l={spec.lattice_l}, sim_time_t={spec.sim_time_t!r} and "
                   "eps_alg=0.5 must give a finite number of Trotter steps")
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            trotter_steps(spec, 0.5)

    def test_floor_at_one(self):
        assert trotter_steps(ProblemSpec(2, 1e-6, 1e-6), 0.999) == 1

    @given(l=st.sampled_from([2, 4, 6, 8]))
    def test_l_to_five_halves_scaling(self, l):
        spec1 = ProblemSpec(l, 8.0, 10.0 * l)
        spec2 = ProblemSpec(2 * l, 8.0, 10.0 * 2 * l)
        r1, r2 = trotter_steps(spec1, EPS_ALG), trotter_steps(spec2, EPS_ALG)
        # exact 2^(5/2) ratio up to the two ceil operations
        assert abs(r2 - 2**2.5 * r1) <= 1 + 2**2.5

    def test_invalid_spec(self):
        with pytest.raises(InvalidParameterError):
            ProblemSpec(7, 8.0, 80.0)
        with pytest.raises(InvalidParameterError):
            ProblemSpec(8, -1.0, 80.0)
        with pytest.raises(InvalidParameterError):
            trotter_steps(REFERENCE_SPEC, 0.0)


class TestSubEvolutionCosts:
    # a step with a zero rotation holds only the diagonalizations and the CNOTs
    def test_interaction(self):
        # what the rotations add to a step: L^2 rotations in each of the four parts
        step, bare = (trotter_step_cost(REFERENCE_SPEC, r) for r in (REFERENCE_ROTATION, ZERO))
        assert step.t_states - bare.t_states == 4 * 64 * 33 == 4 * 2112
        assert step.active_cubes - bare.active_cubes == 4 * 64 * 434 == 4 * 27776
        assert step.logical_timesteps - bare.logical_timesteps == 4 * 96
        assert step.transversal_cnots == bare.transversal_cnots == 128

    def test_interaction_small(self):
        # 2 L^2 transversal CNOTs, the step's only ones
        assert trotter_step_cost(ProblemSpec(2, 8.0, 20.0), REFERENCE_ROTATION).transversal_cnots == 8
        c = trotter_step_cost(REFERENCE_SPEC, ZERO)
        assert (c.t_states, c.logical_timesteps, c.active_cubes, c.transversal_cnots) == (
            768, 90, 32316, 128)

    def test_pink_half_step(self):
        c = trotter_step_cost(REFERENCE_SPEC, ZERO)
        # 8 T states per plaquette, L^2/2 plaquettes in each of three layers
        assert c.t_states == 3 * 8 * 32 == 768
        assert PLAQ_DIAG_TIMESTEPS == 18
        assert c.logical_timesteps == 2 * 18 + GOLDEN_DIAG_TIMESTEPS
        # 205 cubes per plaquette in both pink halves: 205 L^2
        assert c.active_cubes - golden_diag_cubes(8, 2) == 205 * 64 == 13120

    def test_pink_small_lattice(self):
        c = trotter_step_cost(ProblemSpec(2, 8.0, 20.0), ZERO)
        assert c.active_cubes - golden_diag_cubes(2, 2) == 205 * 4

    def test_golden_reference_value(self):
        assert golden_diag_cubes(8, 2) == pytest.approx(19196)
        # term-by-term: 4 * (3368 + 48 + 1044 + 327 + 12)
        assert golden_diag_cubes(8, 2) == 4 * (3368 + 48 + 1044 + 327 + 12)

    def test_golden_narrow_aisle(self):
        # the column-shift term vanishes at unit aisle width
        with_shift = golden_diag_cubes(8, 2) / 4
        without = golden_diag_cubes(8, 1) / 4
        assert with_shift - without == pytest.approx(
            0.75 * 64 * 1 + 6 * 9 + 12 * 3 + 6)  # remaining w-linear terms

    def test_golden_minimal_lattice(self):
        # (L/2 - 1) terms vanish at L = 2
        assert golden_diag_cubes(2, 2) == pytest.approx(4 * (210.5 + 3 + 12))

    def test_golden_invalid(self):
        for _ in range(2):  # errors are not memoized
            with pytest.raises(InvalidParameterError):
                golden_diag_cubes(7, 2)
            with pytest.raises(InvalidParameterError):
                golden_diag_cubes(8, 0)

    @pytest.mark.parametrize("check, l, w, prefix", [
        pytest.param(check, l, w, prefix, id=f"{l}-{w}-{prefix}-{name}")
        for name, check in {
            "ProblemSpec": lambda l, w: ProblemSpec(l, 8.0, 80.0, w),
            "golden_diag_cubes": golden_diag_cubes,
            "floorplan": floorplan,
            "render_floorplan": render_floorplan,
        }.items()
        for l, w, prefix in [
            (8, 2.5, "w_msf=2.5"), (8, 2.0, "w_msf=2.0"), (8, 0, "w_msf=0"),
            (8, True, "w_msf=True"), (7, 2, "lattice_l=7"), (0, 2, "lattice_l=0"),
            (8.0, 2, "lattice_l=8.0"), (True, 2, "lattice_l=True"), (-8, 2, "lattice_l=-8"),
            ([8], 2, "lattice_l=[8]"),
        ]
    ])
    def test_one_plane_rule(self, check, l, w, prefix):
        golden_diag_cubes(8, 2)  # a cached (8, 2) must not serve (8, 2.0)
        with pytest.raises(InvalidParameterError, match=rf"^{re.escape(prefix)} must be "):
            check(l, w)

    def test_golden_timesteps(self):
        c = trotter_step_cost(REFERENCE_SPEC, ZERO)
        assert GOLDEN_DIAG_TIMESTEPS == 3 * PLAQ_DIAG_TIMESTEPS == 54
        assert c.logical_timesteps == 54 + 2 * PLAQ_DIAG_TIMESTEPS == 90
        assert c.t_states == 3 * 4 * 64


class TestTrotterStep:
    def test_reference_step(self):
        step = trotter_step_cost(REFERENCE_SPEC, REFERENCE_ROTATION)
        assert step.logical_timesteps == 4 * 96 + 90 == 474
        assert step.t_states == 9216
        assert step.active_cubes == pytest.approx(143420)
        assert step.transversal_cnots == 128

    def test_step_composition(self):
        # the step ledger is exactly the sum of its four sub-evolution parts
        interaction = _interaction(64, REFERENCE_ROTATION)
        pink = _pink(64, REFERENCE_ROTATION)
        golden = _golden(8, 2, REFERENCE_ROTATION)
        assert interaction == (2112, 96, 27776, 128)
        assert pink == (256 + 2112, 18 + 96, 205 * 32 + 27776, 0)
        assert golden == (256 + 2112, 54 + 96, 19196 + 27776, 0)
        step = trotter_step_cost(REFERENCE_SPEC, REFERENCE_ROTATION)
        assert step == RotationCost(*map(sum, zip(interaction, pink, golden, pink)))

    @given(
        l=st.integers(1, 20).map(lambda half: 2 * half),
        w=st.integers(1, 6),
        fields=st.tuples(*[st.floats(0, 1e3) for _ in range(3)]),
    )
    @example(l=8, w=2, fields=(0.1, 0.2, 0.3))  # a reordered sum differs here
    @settings(max_examples=200)
    def test_step_is_the_exact_sum_of_its_parts(self, l, w, fields):
        # the one-ledger step adds each field in the order of the four
        # sub-evolution parts, so a per-part trace sums to it bit for bit
        rotation = RotationCost(*fields)
        step = trotter_step_cost(ProblemSpec(l, 8.0, 10.0 * l, w), rotation)
        pink = _pink(l * l, rotation)
        parts = zip(_interaction(l * l, rotation), pink, _golden(l, w, rotation), pink)
        assert step == RotationCost(*(((i + p) + g) + q for i, p, g, q in parts))
        assert type(step.transversal_cnots) is float

    def test_diagonalization_floor(self):
        zero = RotationCost(0, 0, 0)
        step = trotter_step_cost(REFERENCE_SPEC, zero)
        assert step.logical_timesteps == 90

    def test_t_synth_override(self):
        rotation = RotationCost(t_states=33, logical_timesteps=100, active_cubes=434)
        step = trotter_step_cost(REFERENCE_SPEC, rotation)
        assert step.logical_timesteps == 4 * 100 + 90

    def test_t_state_split(self):
        step = trotter_step_cost(REFERENCE_SPEC, REFERENCE_ROTATION)
        assert step.t_states == 4 * 64 * 33 + 3 * 4 * 64  # rotations + diagonalizations

    def test_single_plane_reference(self):
        assert single_plane_step_timesteps(96) == 930


class TestCostLedger:
    def test_nonnegative(self):
        with pytest.raises(InvalidParameterError):
            RotationCost(t_states=-1)

    @given(l=st.sampled_from([2, 4, 6, 8, 10]), w=st.integers(1, 4))
    @settings(max_examples=30)
    def test_all_fields_nonnegative(self, l, w):
        spec = ProblemSpec(l, 8.0, 10.0 * l, w)
        step = trotter_step_cost(spec, REFERENCE_ROTATION)
        assert min(step.t_states, step.logical_timesteps,
                   step.active_cubes, step.transversal_cnots) >= 0
