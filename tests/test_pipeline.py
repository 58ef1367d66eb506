import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcost import (
    InvalidParameterError,
    NoDistanceFoundError,
    NoProtocolError,
    ProblemSpec,
    RotationCost,
    TimingModel,
    allocate_budget,
    corridor_capacity_check,
    derive_noise_params,
    direct_plan,
    fallback_plan,
    fit_error_curve,
    floorplan,
    load_error_data,
    load_msf_table,
    msf_sizing,
    patch_geometry,
    runtime_seconds,
    select_distance,
    solve_estimate,
    synthesis_cost,
    trotter_step_cost,
    trotter_steps,
)
from ftcost.pipeline import FloorplanCounts, SolveOptions, render_floorplan
from ftcost.surgery import MAX_WIDTH

REFERENCE_SPEC = ProblemSpec(8, 8.0, 80.0, 2)
REFERENCE_NOISE = derive_noise_params(0.01)
REFERENCE_BUDGET = allocate_budget(0.01)
FIT = fit_error_curve(load_error_data())


@pytest.mark.parametrize("build, prefix", [
    (lambda: ProblemSpec(8, math.nan, 80.0), "u_over_t=nan"),
    (lambda: ProblemSpec(8, math.inf, 80.0), "u_over_t=inf"),
    (lambda: ProblemSpec(8, 8.0, math.nan), "sim_time_t=nan"),
    (lambda: ProblemSpec(8, 8.0, math.inf), "sim_time_t=inf"),
    (lambda: TimingModel(math.nan), "syndrome_round_ns=nan"),
    (lambda: TimingModel(math.inf), "syndrome_round_ns=inf"),
    (lambda: TimingModel(305.0, math.nan), "reaction_us=nan"),
    (lambda: TimingModel(305.0, math.inf), "reaction_us=inf"),
    (lambda: allocate_budget(math.nan), "total=nan"),
    (lambda: allocate_budget(math.inf), "total=inf"),
    (lambda: synthesis_cost(direct_plan(1e-10), "direct", math.nan), "tau_ratio=nan"),
    (lambda: RotationCost(math.nan), "t_states=nan"),
    (lambda: RotationCost(1.0, math.nan), "logical_timesteps=nan"),
    (lambda: RotationCost(1.0, 2.0, 3.0, -1.0), "transversal_cnots=-1.0"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_nan_and_inf_rejected_with_the_argument_named(build, prefix):
    # each comparison is written so that NaN fails it; inf would end in an
    # OverflowError from a ceil or round further down
    with pytest.raises(InvalidParameterError, match=rf"^{prefix} must be "):
        build()


def ladder(max_width):
    return [patch_geometry(w) for w in range(6, max_width + 1, 2)]


def selected_rounds(spec, budget, options, rounds):
    """g(rounds): rounds of the geometry selected for a cube of ``rounds`` rounds.

    Rebuilt from the public synthesis, trotter and surgery functions; inf
    when no width reaches the target.
    """
    steps = trotter_steps(spec, budget.eps_alg)
    eps_synth = budget.eps_rot / (4 * spec.lattice_l**2 * steps)
    tau = options.timing.reaction_ratio(rounds)
    rounding = "integer" if options.precision == "headline" else "none"
    if options.strategy in ("fallback", "mixed_fallback"):
        plan = fallback_plan(eps_synth, options.p_succ, spec.lattice_l, options.strategy,
                             options.mode, rounding)
        rotation = synthesis_cost(plan, "fallback", tau)
    else:
        plan = direct_plan(eps_synth, options.strategy, options.mode, rounding)
        rotation = synthesis_cost(plan, "direct", tau)
    if rounding == "integer":
        rotation = RotationCost(rotation.t_states, round(rotation.logical_timesteps),
                                round(rotation.active_cubes))
    cubes = trotter_step_cost(spec, rotation).active_cubes * steps
    try:
        return select_distance(options.fit, budget.eps_log / cubes, options.max_width).rounds
    except NoDistanceFoundError:
        return math.inf


solve_cases = st.tuples(
    st.builds(lambda l, u: ProblemSpec(l, u, 10.0 * l),
              st.sampled_from([2, 4, 6, 8, 10, 12]), st.floats(1.0, 16.0)),
    st.builds(allocate_budget, st.floats(1e-4, 0.3)),
    st.builds(lambda strategy, p_succ, precision, max_width: SolveOptions(
        strategy=strategy, p_succ=p_succ, precision=precision, fit=FIT,
        max_width=max_width),
        st.sampled_from(["diagonal", "mixed_diagonal", "fallback", "mixed_fallback"]),
        st.floats(0.5, 1.0), st.sampled_from(["headline", "real"]),
        st.one_of(st.sampled_from([30, MAX_WIDTH]), st.integers(6, MAX_WIDTH))),
)


@pytest.fixture(scope="module")
def reference_report():
    return solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET)


class TestBudget:
    def test_default_split(self):
        b = allocate_budget(0.01)
        assert b.eps_alg == pytest.approx(0.0024876, rel=1e-4)
        assert b.eps_rot == pytest.approx(0.01 * b.eps_alg)
        assert b.eps_log == b.eps_msf == pytest.approx(0.0025)

    def test_zero(self):
        b = allocate_budget(0.0)
        assert (b.eps_alg, b.eps_rot, b.eps_log, b.eps_msf) == (0, 0, 0, 0)

    def test_scales(self):
        assert allocate_budget(0.02).eps_alg == pytest.approx(0.0049751, rel=1e-4)

    @given(total=st.floats(1e-6, 0.5))
    def test_conserved(self, total):
        b = allocate_budget(total)
        assert 2 * b.eps_alg + b.eps_rot + b.eps_log + b.eps_msf <= total + 1e-15
        assert 2 * b.eps_alg + b.eps_rot == pytest.approx(total / 2)


class TestFloorplan:
    def test_calibration_point(self):
        counts = floorplan(8, 2)
        assert counts.total_patches == 882
        assert counts.msf_patches == 336

    def test_small_lattice_matches_rendering(self):
        plane = render_floorplan(4, 2)
        cells = sum(len(row) for row in plane)
        msf = sum(row.count("M") for row in plane)
        counts = floorplan(4, 2)
        assert counts.total_patches == 2 * cells
        assert counts.msf_patches == 2 * msf
        # L=4, w=2: pair columns D.D + one gap of .VV -> 9 wide
        assert all(len(row) == 9 for row in plane)
        assert len(plane) == 2 * (3 + 2) + 1

    def test_counts_match_rendering(self):
        for lattice_l in range(2, 41, 2):
            for w_msf in range(1, 7):
                plane = render_floorplan(lattice_l, w_msf)
                counts = floorplan(lattice_l, w_msf)
                assert counts.total_patches == 2 * sum(len(row) for row in plane)
                assert counts.msf_patches == 2 * sum(row.count("M") for row in plane)

    def test_rendering_cells(self):
        plane = render_floorplan(8, 2)
        for row in plane:
            assert set(row) <= {"D", ".", "V", "M"}
        # one data column position per lattice site per plane
        assert sum(row.count("D") for row in plane) == 8 * 8
        widths = {len(row) for row in plane}
        assert len(widths) == 1

    def test_odd_lattice_rejected(self):
        with pytest.raises(InvalidParameterError):
            floorplan(5, 2)

    def test_counts_validated(self):
        with pytest.raises(InvalidParameterError):
            FloorplanCounts(10, 20)

    @pytest.mark.parametrize("args", [(8.0, 2), (8, 2.0), (True, 2), (8, True), (-8, 2), ([8], 2)])
    def test_cached_counts_are_typed(self, args):
        # the counts of (8, 2) are cached; an equal float or bool, or an unhashable
        # value, meets the plane rule, not the cache
        assert floorplan(8, 2) is floorplan(8, 2)
        with pytest.raises(InvalidParameterError, match="^(lattice_l|w_msf)="):
            floorplan(*args)

    @pytest.mark.parametrize("override", [
        (1000.5, 400), (math.inf, 400), (True, True), ("5000", "400"),
    ])
    @pytest.mark.parametrize("build", [
        lambda override: solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET,
                                        SolveOptions(floorplan_override=override)),
    ], ids=["SolveOptions"])
    def test_override_counts_are_integers(self, build, override):
        with pytest.raises(InvalidParameterError, match="^total_patches="):
            build(override)

    @pytest.mark.parametrize("override", [(10,), [1, 2, 3], 5])
    @pytest.mark.parametrize("build", [
        lambda override: SolveOptions(floorplan_override=override),
    ], ids=["SolveOptions"])
    def test_override_must_be_a_pair(self, build, override):
        with pytest.raises(InvalidParameterError,
                           match=r"^floorplan_override=.* must be None or a \(total, msf\) pair$"):
            build(override)


class TestMsfSizing:
    def test_reference_instance(self):
        chosen, factories, qubits = msf_sizing(
            n_t_total=9216 * 487814, eps_msf=0.0025, lattice_l=8,
            rounds_per_cycle=102, reaction_rounds=33, protocols=load_msf_table(),
        )
        assert chosen.p_out == pytest.approx(3.3e-14)
        assert chosen.hh_qubits == 4070
        assert chosen.hh_rounds == pytest.approx(81.9)
        assert factories == 39
        assert qubits == pytest.approx(1.59e5, rel=1e-2)

    def test_zero_demand(self):
        _, factories, qubits = msf_sizing(
            1e9, 0.0025, lattice_l=0, rounds_per_cycle=102,
            reaction_rounds=33, protocols=load_msf_table())
        assert factories == 0 and qubits == 0

    def test_infeasible_target(self):
        with pytest.raises(NoProtocolError):
            msf_sizing(1e25, 0.0025, 8, 102, 33, load_msf_table())


class TestSolveEstimate:
    def test_headline_numbers(self, reference_report):
        r = reference_report
        assert r.trotter_steps == pytest.approx(4.88e5, rel=1e-2)
        assert r.n_t_per_rotation == 33
        assert r.n_t_fallback == 72
        assert r.t_synth_timesteps == 96
        assert r.timesteps_per_step == 474
        assert r.t_states_per_step == 9216
        assert r.cubes_per_step == pytest.approx(1.43e5, rel=1e-2)
        assert r.n_l_total == pytest.approx(6.99e10, rel=2e-2)
        assert r.p_l_target == pytest.approx(3.58e-14, rel=5e-2)
        assert (r.geometry.width, r.geometry.height, r.geometry.rounds) == (30, 51, 102)
        assert r.n_t_total == pytest.approx(4.50e9, rel=1e-2)
        assert r.p_msf_target == pytest.approx(5.56e-13, rel=2e-2)
        assert r.msf_factories == 39
        assert r.physical_qubits == pytest.approx(1.35e6, rel=1e-2)
        assert r.runtime_seconds == pytest.approx(7.2e3, rel=5e-2)

    def test_loose_budget_shrinks_geometry(self):
        # even at a 50% budget the ~1e10 cube count keeps the per-cube target
        # around 1e-11, so the ladder bottoms out well above w=6; the loose
        # budget must still pick a strictly smaller patch than the 1% run
        loose = solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, allocate_budget(0.5))
        tight = solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, allocate_budget(0.01))
        assert loose.geometry.width < tight.geometry.width
        assert loose.geometry.width == 26

    def test_fixed_point(self, reference_report):
        options = SolveOptions(initial_rounds=reference_report.geometry.rounds)
        again = solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET, options)
        assert again == reference_report
        assert again.iterations == 1

    def test_converges_from_mid_ladder(self, reference_report):
        options = SolveOptions(initial_rounds=60)
        report = solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET, options)
        assert report.geometry == reference_report.geometry
        assert report.iterations > 1
        kv_a = {k: v for k, v in report.key_values().items() if k != "iterations"}
        kv_b = {k: v for k, v in reference_report.key_values().items() if k != "iterations"}
        assert kv_a == kv_b

    def test_budget_monotonicity(self):
        # 0.2% drives the per-cube target below the tabulated ladder, so the
        # off-table extrapolation must kick in for the tightest budget
        qubits, runtimes = [], []
        for total in (0.05, 0.01, 0.002):
            rep = solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, allocate_budget(total),
                                 SolveOptions(max_width=MAX_WIDTH))
            qubits.append(rep.physical_qubits)
            runtimes.append(rep.runtime_seconds)
        assert qubits == sorted(qubits)
        assert runtimes == sorted(runtimes)

    def test_tight_budget_without_extrapolation_errors(self):
        from ftcost import NoDistanceFoundError
        with pytest.raises(NoDistanceFoundError):
            solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, allocate_budget(0.002))

    @pytest.mark.parametrize("options", [
        {"max_width": 202, "initial_rounds": 10_000},
        {"max_width": 201},
        {"max_width": 5, "initial_rounds": 1},
        {"max_width": 30.0},
    ])
    def test_max_width_outside_the_ladder_rejected(self, options):
        # checked when the options are built, before the solver forms a ladder
        # index, so a start past the ladder cannot end in an IndexError
        with pytest.raises(InvalidParameterError,
                           match=rf"^max_width={options['max_width']!r} must be an integer "
                                 rf"in \[6, {MAX_WIDTH}\]$"):
            solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET,
                           SolveOptions(**options))

    @pytest.mark.parametrize("start", [0, -60, 60.0, True, "60"])
    def test_initial_rounds_must_be_none_or_a_positive_integer(self, start):
        # a falsy 0 must not fall back to the default start
        with pytest.raises(InvalidParameterError,
                           match=rf"^initial_rounds={start!r} must be None or an integer >= 1$"):
            solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET,
                           SolveOptions(initial_rounds=start))

    @pytest.mark.parametrize("kwargs, message", [
        ({"strategy": "diagonal", "p_succ": 5}, r"p_succ=5 must lie in \(0, 1\]"),
        ({"strategy": "mixed_diagonal", "p_succ": math.nan}, r"p_succ=nan must lie in \(0, 1\]"),
        ({"timing": None}, "timing=None must be a TimingModel"),
        ({"protocols": []}, r"protocols=\[\] must be None or a non-empty sequence"),
    ])
    def test_solve_options_reject_bad_fields(self, kwargs, message):
        # p_succ is checked whatever the strategy; an empty factory table is
        # not read as absent
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET,
                           SolveOptions(fit=FIT, **kwargs))

    def test_initial_rounds_one_starts_at_the_first_entry(self, reference_report):
        report = solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET,
                                SolveOptions(initial_rounds=1))
        assert report.key_values() | {"iterations": 0} == \
            reference_report.key_values() | {"iterations": 0}

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.0100001])
    def test_noise_regime_other_than_the_bundled_data_rejected(self, p):
        with pytest.raises(InvalidParameterError,
                           match=rf"^noise\.p={p} needs options\.fit: "
                                 rf"the bundled cube data are for p = 0\.01$"):
            solve_estimate(REFERENCE_SPEC, derive_noise_params(p), REFERENCE_BUDGET)

    def test_noise_regime_unchecked_with_a_given_fit(self, reference_report):
        # the fit carries the regime, as on the CLI and sweep path
        rep = solve_estimate(REFERENCE_SPEC, derive_noise_params(0.05), REFERENCE_BUDGET,
                             SolveOptions(fit=FIT))
        assert rep == reference_report

    def test_budget_inequalities(self, reference_report):
        r = reference_report
        assert r.p_l_target * r.n_l_total <= REFERENCE_BUDGET.eps_log * (1 + 1e-12)
        assert r.p_msf_target * r.n_t_total <= REFERENCE_BUDGET.eps_msf * (1 + 1e-12)

    def test_deterministic(self, reference_report):
        assert solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET) == reference_report

    def test_real_precision_mode(self, reference_report):
        rep = solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET,
                             SolveOptions(precision="real"))
        assert rep.geometry == reference_report.geometry
        assert rep.n_t_per_rotation == pytest.approx(32.88, abs=0.01)
        assert rep.timesteps_per_step == pytest.approx(474, rel=2e-2)
        assert rep.cubes_per_step == pytest.approx(reference_report.cubes_per_step, rel=2e-2)

    def test_other_lattice_sizes_converge(self):
        for l in (4, 6, 10):
            spec = ProblemSpec(l, 8.0, 10.0 * l, 2)
            rep = solve_estimate(spec, REFERENCE_NOISE, REFERENCE_BUDGET)
            assert rep.iterations <= 10
            assert rep.physical_qubits > 0

    def test_floorplan_override_flows_through(self):
        rep = solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET,
                             SolveOptions(floorplan_override=(1000, 400)))
        assert (rep.floorplan.total_patches, rep.floorplan.msf_patches) == (1000, 400)
        assert rep.physical_qubits == 1000 * rep.geometry.qubits

    def test_floorplan_override_too_small_for_the_factories(self):
        # the reference needs 39 factories of 4070 qubits at width 30 (1530 qubits)
        with pytest.raises(InvalidParameterError,
                           match=r"^floorplan.override_msf=103 holds 157590 .* need 158730$"):
            solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET,
                           SolveOptions(floorplan_override=(1000, 103)))
        rep = solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET,
                             SolveOptions(floorplan_override=(1000, 104)))
        assert rep.msf_qubits_available == 159120 >= rep.msf_qubits_required

    def test_two_cycle_broken_toward_larger_width(self, monkeypatch):
        # a 2-cycle between adjacent rungs does occur with the fitted curve
        # (see test_least_feasible_entry_need_not_be_a_fixed_point); the stub
        # pins the smallest one, 60 <-> 66 rounds, from a start of 60
        import ftcost.pipeline as pl

        def oscillating_select(fit, target, max_width=30):
            return patch_geometry(20) if target <= 3.3e-14 else patch_geometry(18)

        monkeypatch.setattr(pl, "select_distance", oscillating_select)
        rep = solve_estimate(REFERENCE_SPEC, REFERENCE_NOISE, REFERENCE_BUDGET,
                             SolveOptions(initial_rounds=60))
        assert rep.geometry.width == 20
        assert rep.iterations == 2


    def test_least_feasible_entry_need_not_be_a_fixed_point(self):
        spec, budget = ProblemSpec(2, 8.0, 20.0), allocate_budget(0.003)
        options = SolveOptions(strategy="diagonal", fit=FIT)
        rep = solve_estimate(spec, REFERENCE_NOISE, budget, options)
        assert (rep.geometry.width, rep.geometry.rounds) == (28, 96)
        assert selected_rounds(spec, budget, options, 96) == 84
        assert selected_rounds(spec, budget, options, 84) == 96

    @settings(max_examples=40, deadline=None)
    @given(case=solve_cases)
    def test_selection_nonincreasing_in_rounds(self, case):
        spec, budget, options = case
        selected = [selected_rounds(spec, budget, options, geo.rounds)
                    for geo in ladder(options.max_width)]
        assert selected == sorted(selected, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(case=solve_cases)
    def test_solution_is_least_feasible_entry(self, case):
        spec, budget, options = case
        try:
            rep = solve_estimate(spec, REFERENCE_NOISE, budget, options)
        except NoDistanceFoundError:
            return
        rungs = ladder(options.max_width)
        least = next(geo for geo in rungs
                     if selected_rounds(spec, budget, options, geo.rounds) <= geo.rounds)
        assert rep.geometry == least
        assert 1 <= rep.iterations <= len(rungs)


class TestRuntimeAndCorridor:
    def test_runtime_examples(self, reference_report):
        assert runtime_seconds(487814, 474, 31110.0) == pytest.approx(7193, rel=1e-3)
        single_ts, single_rt = reference_report.single_plane_comparison()
        assert single_ts == 930
        assert single_rt == pytest.approx(3 * 3600 + 55 * 60, rel=2e-2)
        assert runtime_seconds(0, 474, 31110.0) == 0.0

    def test_corridor_ratio(self, reference_report):
        ratio = corridor_capacity_check(
            reference_report.floorplan, reference_report.geometry,
            reference_report.msf_qubits_required)
        assert ratio == pytest.approx(3.2, abs=0.2)

    def test_corridor_edge_cases(self, reference_report):
        assert corridor_capacity_check(
            reference_report.floorplan, reference_report.geometry, 0.0) == math.inf
        available = reference_report.floorplan.msf_patches * reference_report.geometry.qubits
        assert corridor_capacity_check(
            reference_report.floorplan, reference_report.geometry, available) == 1.0
