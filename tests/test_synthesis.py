import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcost import (
    InvalidParameterError,
    SynthesisPlan,
    crossover_L,
    direct_plan,
    fallback_plan,
    synthesis_cost,
    t_count,
)
from ftcost.synthesis import FALLBACK_BRANCH, STRATEGIES, max_t_injection_rate

EPS_REFERENCE = 2e-13
TAU_REFERENCE = 33 / 102


class TestTCount:
    def test_coefficient_table(self):
        expected = {
            "diagonal": (3.02, 1.77, 3.02, 9.19),
            "mixed_diagonal": (1.52, -0.01, 1.54, 6.85),
            "fallback": (1.03, 5.75, 1.05, 11.83),
            "mixed_fallback": (0.53, 4.86, 0.57, 8.83),
        }
        for name, coeffs in expected.items():
            assert STRATEGIES[name]["mean"] + STRATEGIES[name]["worst"] == coeffs

    def test_reference_values(self):
        assert round(t_count("mixed_fallback", EPS_REFERENCE, "worst")) == 33
        assert round(t_count("mixed_diagonal", EPS_REFERENCE, "worst")) == 72

    def test_plug_in(self):
        assert t_count("diagonal", 2**-10, "mean") == pytest.approx(3.02 * 10 + 1.77)

    @given(exp1=st.floats(1.0, 40.0), exp2=st.floats(1.0, 40.0))
    def test_monotone_in_accuracy(self, exp1, exp2):
        lo, hi = sorted([exp1, exp2])
        if hi - lo < 1e-6:
            return
        for name in STRATEGIES:
            assert t_count(name, 2.0**-hi) > t_count(name, 2.0**-lo)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            t_count("diagonal", 0.0)
        with pytest.raises(InvalidParameterError):
            t_count("nope", 0.5)
        with pytest.raises(InvalidParameterError):
            t_count("diagonal", 0.5, mode="typical")

    @pytest.mark.parametrize("eps", [5e-321, 5e-324])
    def test_a_reciprocal_beyond_any_float_is_one_error(self, eps):
        # 1/eps overflows to inf for a subnormal eps; the smallest normal float does not
        assert math.isfinite(t_count("diagonal", 2.2250738585072014e-308))
        message = f"^epsilon_synth={eps!r} must have a reciprocal within the floats$"
        with pytest.raises(InvalidParameterError, match=message):
            t_count("diagonal", eps)
        with pytest.raises(InvalidParameterError, match=r"^epsilon_synth="):
            fallback_plan(eps, 0.99, 8, rounding="integer")


@pytest.mark.parametrize("plan", [
    lambda rounding: direct_plan(EPS_REFERENCE, rounding=rounding),
    lambda rounding: fallback_plan(EPS_REFERENCE, 0.99, 8, rounding=rounding),
], ids=["direct", "fallback"])
@pytest.mark.parametrize("rounding", ["bogus", "Integer", None])
def test_unknown_rounding_rejected(plan, rounding):
    # a direct plan must not silently skip rounding for a misspelt value
    with pytest.raises(InvalidParameterError,
                       match=rf"^rounding={rounding!r} must be 'none' or 'integer'$"):
        plan(rounding)


class TestFallbackPlan:
    def test_reference_plan(self):
        plan = fallback_plan(EPS_REFERENCE, 0.99, 8, rounding="integer")
        assert plan.n_t == 33 and plan.n_t_fallback == 72
        assert plan.n_t_success == 32
        assert plan.p_all == pytest.approx(0.99**64)
        assert plan.p_all == pytest.approx(0.5256, abs=2e-4)
        assert plan.ptilde_fail == pytest.approx(0.0211, abs=2e-4)

    def test_certain_success(self):
        plan = fallback_plan(EPS_REFERENCE, 1.0, 8)
        assert plan.p_all == 1.0
        cost = synthesis_cost(plan, "fallback", TAU_REFERENCE)
        # no fallback branch contribution
        assert cost.logical_timesteps == pytest.approx(
            plan.n_t_success * (1 + TAU_REFERENCE) + 7)

    def test_single_rotation_conditioning(self):
        plan = fallback_plan(EPS_REFERENCE, 0.99, 1)
        assert plan.p_all == pytest.approx(0.99)
        assert plan.ptilde_fail == pytest.approx(1.0)

    @pytest.mark.parametrize("lattice_l", [math.nan, 2.5, True, 0])
    def test_lattice_size_must_be_a_positive_integer(self, lattice_l):
        with pytest.raises(InvalidParameterError, match="^lattice_l="):
            fallback_plan(1e-10, 0.99, lattice_l)

    @given(
        exp=st.floats(5.0, 45.0),
        p_succ=st.floats(0.9, 0.999),
        lattice_l=st.integers(1, 16),
    )
    @settings(max_examples=50)
    def test_unrounded_invariants(self, exp, p_succ, lattice_l):
        plan = fallback_plan(2.0**-exp, p_succ, lattice_l)
        assert plan.n_t == pytest.approx(
            plan.n_t_success + (1 - p_succ) * plan.n_t_fallback, abs=1e-12)
        assert plan.ptilde_fail + plan.ptilde_succ == pytest.approx(1.0, abs=1e-12)
        assert plan.p_all == pytest.approx(p_succ ** lattice_l**2)


class TestSynthesisCost:
    def test_reference_fallback(self):
        plan = fallback_plan(EPS_REFERENCE, 0.99, 8, rounding="integer")
        cost = synthesis_cost(plan, "fallback", TAU_REFERENCE)
        assert cost.t_states == 33
        assert round(cost.logical_timesteps) == 96
        assert abs(cost.active_cubes - 434) <= 1
        assert cost.transversal_cnots == 0

    def test_reference_direct(self):
        plan = direct_plan(EPS_REFERENCE, "mixed_diagonal", rounding="integer")
        cost = synthesis_cost(plan, "direct", TAU_REFERENCE)
        assert round(cost.logical_timesteps) == 98
        assert cost.t_states == 72

    def test_clifford_only_tail(self):
        plan = SynthesisPlan(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)  # a direct plan without T gates
        cost = synthesis_cost(plan, "direct", 0.0)
        assert cost.logical_timesteps == 3.0
        assert cost.active_cubes == 23.0

    def test_fallback_cube_formula_collapses(self):
        plan = fallback_plan(EPS_REFERENCE, 1.0, 4)
        cost = synthesis_cost(plan, "fallback", TAU_REFERENCE)
        assert cost.active_cubes == pytest.approx(
            plan.n_t_success * (19 / 3 + 4 * TAU_REFERENCE) + 48)

    @pytest.mark.parametrize("strategy", sorted(FALLBACK_BRANCH))
    @pytest.mark.parametrize("tau", [0.0, TAU_REFERENCE, 1.0, 7.5])
    def test_reject_branch_is_a_direct_synthesis(self, strategy, tau):
        # every rotation rejected: the layer costs its fixed 7 timesteps and
        # 48 cubes on top of a direct synthesis of the reject branch
        counts = fallback_plan(EPS_REFERENCE, 0.99, 8, strategy)
        plan = SynthesisPlan(counts.n_t, counts.n_t_fallback, 0.0, 0.0, 1.0, 0.0)
        direct = direct_plan(EPS_REFERENCE, FALLBACK_BRANCH[strategy])
        assert direct.n_t == plan.n_t_fallback
        rejected = synthesis_cost(plan, "fallback", tau)
        reference = synthesis_cost(direct, "direct", tau)
        assert rejected.logical_timesteps == reference.logical_timesteps + 7
        assert rejected.active_cubes == reference.active_cubes + 48

    @given(p_all_hi=st.floats(0.1, 1.0), p_all_lo=st.floats(0.0, 0.1))
    @settings(max_examples=50)
    def test_timesteps_nondecreasing_as_p_all_drops(self, p_all_hi, p_all_lo):
        # with the plan's counts held fixed, a smaller all-accept probability
        # can only add fallback-branch idle time
        plan = fallback_plan(EPS_REFERENCE, 0.99, 8, rounding="integer")
        def timesteps(p_all):
            at = SynthesisPlan(plan.n_t, plan.n_t_fallback, plan.n_t_success, p_all,
                               plan.ptilde_fail, plan.ptilde_succ)
            return synthesis_cost(at, "fallback", TAU_REFERENCE).logical_timesteps

        assert timesteps(p_all_lo) >= timesteps(p_all_hi)

    def test_max_injection_rate_respected(self):
        for n_t in (1.0, 10.0, 72.0):
            plan = SynthesisPlan(n_t, 0.0, n_t, 1.0, 0.0, 1.0)  # a direct plan of n_t T gates
            cost = synthesis_cost(plan, "direct", TAU_REFERENCE)
            rate = cost.t_states / cost.logical_timesteps
            assert rate <= max_t_injection_rate(TAU_REFERENCE) + 1e-12


class TestCrossover:
    def test_reference_crossover(self):
        assert crossover_L(lambda l: EPS_REFERENCE, 0.99, TAU_REFERENCE) == 9

    def test_analytic_bracket(self):
        # the all-accept probability crosses the break-even value between
        # L=8 and L=9: p_all = 0.99^(L^2) hits ~0.502 at L ~ 8.28
        import math
        plan = fallback_plan(EPS_REFERENCE, 0.99, 8, rounding="integer")
        direct = synthesis_cost(
            direct_plan(EPS_REFERENCE, "mixed_diagonal", rounding="integer"),
            "direct", TAU_REFERENCE).logical_timesteps
        base = plan.n_t_success * (1 + TAU_REFERENCE) + 7
        fb_branch = plan.n_t_fallback * (1 + TAU_REFERENCE) + 3
        p_all_star = 1 - (direct - base) / fb_branch
        l_star = math.sqrt(math.log(p_all_star) / math.log(0.99))
        assert 8 < l_star < 9
        assert p_all_star == pytest.approx(0.5021, abs=1e-3)

    def test_no_crossover_when_certain(self):
        assert crossover_L(lambda l: EPS_REFERENCE, 1.0, TAU_REFERENCE) is None

    def test_poor_success_crosses_early(self):
        l = crossover_L(lambda l: EPS_REFERENCE, 0.5, TAU_REFERENCE)
        assert l is not None and l <= 3
