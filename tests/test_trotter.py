import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftcost import (
    CostLedger,
    InvalidParameterError,
    ProblemSpec,
    RotationCost,
    golden_cost,
    interaction_cost,
    kappa,
    pink_cost,
    trotter_step_cost,
    trotter_steps,
)
from ftcost.pipeline import floorplan, render_floorplan
from ftcost.trotter import golden_diag_cubes, single_plane_step_timesteps

#: Converged per-rotation cost of the reference instance.
REFERENCE_ROTATION = RotationCost(t_states=33, logical_timesteps=96, active_cubes=434)
REFERENCE_SPEC = ProblemSpec(lattice_l=8, u_over_t=8.0, sim_time_t=80.0, w_msf=2)
EPS_ALG = 0.005 / 2.01


class TestKappa:
    def test_values(self):
        # oracle: evaluate the bracket by hand
        assert kappa(8.0) == pytest.approx(
            (1.5 * 64 + 16 * (2 * math.sqrt(5) + 16) + 10) / 24)
        assert kappa(8.0) == pytest.approx(18.0648, abs=1e-4)
        assert kappa(0.0) == pytest.approx(10 / 24)
        assert kappa(1.0) == pytest.approx(2.18518, abs=1e-5)


class TestTrotterSteps:
    def test_reference_instance(self):
        r = trotter_steps(REFERENCE_SPEC, EPS_ALG)
        assert r == pytest.approx(4.88e5, rel=1e-2)

    def test_coefficient(self):
        r = trotter_steps(REFERENCE_SPEC, EPS_ALG)
        assert r / 8**2.5 == pytest.approx(2695, rel=1e-2)

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
    def test_interaction(self):
        c = interaction_cost(8, REFERENCE_ROTATION)
        assert c.transversal_cnots == 128
        assert c.t_states == 64 * 33 == 2112
        assert c.active_cubes == 64 * 434 == 27776
        assert c.logical_timesteps == 96

    def test_interaction_small(self):
        assert interaction_cost(2, REFERENCE_ROTATION).transversal_cnots == 8
        zero = RotationCost(0, 0, 0)
        c = interaction_cost(8, zero)
        assert (c.t_states, c.logical_timesteps, c.active_cubes) == (0, 0, 0)
        assert c.transversal_cnots == 128

    def test_pink_half_step(self):
        zero = RotationCost(0, 0, 0)
        c = pink_cost(8, zero)
        assert c.t_states == 8 * 32 == 256        # 8 per plaquette, L^2/2 plaquettes
        assert c.logical_timesteps == 18
        assert c.active_cubes == 205 * 32
        # both halves together: 205 L^2
        assert 2 * c.active_cubes == 13120

    def test_pink_small_lattice(self):
        zero = RotationCost(0, 0, 0)
        assert 2 * pink_cost(2, zero).active_cubes == 205 * 4

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

    @pytest.mark.parametrize("check", [
        lambda l, w: ProblemSpec(l, 8.0, 80.0, w),
        golden_diag_cubes, floorplan, render_floorplan,
    ], ids=["ProblemSpec", "golden_diag_cubes", "floorplan", "render_floorplan"])
    @pytest.mark.parametrize("l, w, prefix", [
        (8, 2.5, "w_msf=2.5"), (8, 2.0, "w_msf=2.0"), (8, 0, "w_msf=0"),
        (8, True, "w_msf=True"), (7, 2, "lattice_l=7"), (0, 2, "lattice_l=0"),
        (8.0, 2, "lattice_l=8.0"),
    ])
    def test_one_plane_rule(self, check, l, w, prefix):
        golden_diag_cubes(8, 2)  # a cached (8, 2) must not serve (8, 2.0)
        with pytest.raises(InvalidParameterError, match=rf"^{prefix} must be "):
            check(l, w)

    def test_golden_timesteps(self):
        zero = RotationCost(0, 0, 0)
        c = golden_cost(8, 2, zero)
        assert c.logical_timesteps == 54
        assert c.t_states == 4 * 64


class TestTrotterStep:
    def test_reference_step(self):
        step = trotter_step_cost(REFERENCE_SPEC, REFERENCE_ROTATION)
        assert step.logical_timesteps == 4 * 96 + 90 == 474
        assert step.t_states == 9216
        assert step.active_cubes == pytest.approx(143420)
        assert step.transversal_cnots == 128

    def test_step_composition(self):
        # the step ledger is exactly the sum of its four sub-evolutions
        step = trotter_step_cost(REFERENCE_SPEC, REFERENCE_ROTATION)
        parts = (interaction_cost(8, REFERENCE_ROTATION)
                 + pink_cost(8, REFERENCE_ROTATION)
                 + golden_cost(8, 2, REFERENCE_ROTATION)
                 + pink_cost(8, REFERENCE_ROTATION))
        assert step == parts

    @given(
        l=st.integers(1, 20).map(lambda half: 2 * half),
        w=st.integers(1, 6),
        fields=st.tuples(*[st.floats(0, 1e3) for _ in range(3)]),
    )
    @example(l=8, w=2, fields=(0.1, 0.2, 0.3))  # a reordered sum differs here
    @settings(max_examples=200)
    def test_step_is_the_exact_sum_of_its_parts(self, l, w, fields):
        # the one-ledger step adds each field in the order of the four
        # sub-evolution ledgers, so it equals their sum bit for bit
        rotation = RotationCost(*fields)
        step = trotter_step_cost(ProblemSpec(l, 8.0, 10.0 * l, w), rotation)
        pink = pink_cost(l, rotation)
        assert step == interaction_cost(l, rotation) + pink + golden_cost(l, w, rotation) + pink
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
    @given(
        entries=st.lists(
            st.tuples(*[st.floats(0, 1e6) for _ in range(4)]), min_size=3, max_size=3)
    )
    @settings(max_examples=50)
    def test_merge_associative_commutative(self, entries):
        a, b, c = (CostLedger(*e) for e in entries)
        left = (a + b) + c
        right = a + (b + c)
        for attr in ("t_states", "logical_timesteps", "active_cubes", "transversal_cnots"):
            assert getattr(left, attr) == pytest.approx(getattr(right, attr))
            assert getattr(a + b, attr) == pytest.approx(getattr(b + a, attr))

    def test_nonnegative(self):
        with pytest.raises(InvalidParameterError):
            CostLedger(t_states=-1)

    @given(l=st.sampled_from([2, 4, 6, 8, 10]), w=st.integers(1, 4))
    @settings(max_examples=30)
    def test_all_fields_nonnegative(self, l, w):
        spec = ProblemSpec(l, 8.0, 10.0 * l, w)
        step = trotter_step_cost(spec, REFERENCE_ROTATION)
        assert min(step.t_states, step.logical_timesteps,
                   step.active_cubes, step.transversal_cnots) >= 0
