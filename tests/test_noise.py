import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcost import (
    AttemptCaps,
    InvalidParameterError,
    cycle_outcome_distribution,
    derive_noise_params,
    heralded_cz_distribution,
    heralded_mzz_distribution,
    idle_channel,
    init_measure_outcomes,
    loss_channel,
    mc_rus_oracle,
    single_qubit_gate_channel,
)
from ftcost import noise
from ftcost.noise import (
    CycleOutcomeDistribution,
    HeraldedOutcome,
    HeraldedOutcomeDistribution,
    PauliChannel,
    binomial_sigma,
    distinguishability_cz_channel,
    distinguishability_mzz_channel,
)

NAN = float("nan")

REFERENCE_PARAMS = derive_noise_params(0.01)
CAPS = AttemptCaps()


class TestDeriveNoiseParams:
    def test_reference_row(self):
        p = REFERENCE_PARAMS
        assert p.epsilon == pytest.approx(0.009)
        assert p.distinguishability == pytest.approx(8.5e-4)
        assert p.idle_ratio == pytest.approx(1e-4)
        assert p.gate_infidelity == pytest.approx(5e-5)

    def test_zero_noise(self):
        p = derive_noise_params(0.0)
        assert (p.epsilon, p.distinguishability, p.idle_ratio, p.gate_infidelity) == (0, 0, 0, 0)

    def test_scales_linearly(self):
        assert derive_noise_params(0.02).epsilon == pytest.approx(0.018)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            derive_noise_params(1.0)
        with pytest.raises(InvalidParameterError):
            derive_noise_params(-0.1)


class TestCycleOutcomes:
    def test_noiseless(self):
        c = cycle_outcome_distribution(0.0, 0.0)
        assert (c.p_success, c.p_repeat_indist, c.p_repeat_dist,
                c.p_one_loss, c.p_two_loss) == (0.5, 0.5, 0.0, 0.0, 0.0)

    def test_reference_point(self):
        c = cycle_outcome_distribution(0.009, 8.5e-4)
        assert c.p_success == pytest.approx(0.4910405)
        assert c.p_one_loss == pytest.approx(0.017838)
        assert c.p_two_loss == pytest.approx(8.1e-5)

    def test_total_loss_limit(self):
        c = cycle_outcome_distribution(1.0 - 1e-9, 0.0)
        assert c.p_two_loss == pytest.approx(1.0, abs=1e-8)

    @given(eps=st.floats(0.0, 0.999), d=st.floats(0.0, 0.999))
    def test_normalized(self, eps, d):
        c = cycle_outcome_distribution(eps, d)
        total = c.p_success + c.p_repeat + c.p_one_loss + c.p_two_loss
        assert total == pytest.approx(1.0, abs=1e-12)


class TestHeraldedCz:
    def test_noiseless_column(self):
        p = derive_noise_params(0.0)
        d = heralded_cz_distribution(p, CAPS)
        assert d.probability("pure_success") == pytest.approx(1 - 2**-10, abs=1e-15)
        assert d.probability("abort") == pytest.approx(2**-10, abs=1e-15)
        assert d.probability("failure") == 0.0
        assert all(d.probability(f"success_with_{k}_losses") == 0.0 for k in range(1, 10))

    @pytest.mark.parametrize("n_rus", [1, 10, 70])
    def test_no_double_loss_without_loss(self, n_rus):
        # at epsilon = 0 the failure quotient is 0 / (ps + p2) = 0 / 0.5
        d = heralded_cz_distribution(derive_noise_params(0.0), AttemptCaps(n_rus))
        assert d.probability("failure") == 0.0

    def test_reference_point(self):
        d = heralded_cz_distribution(REFERENCE_PARAMS, CAPS)
        assert d.probability("pure_success") == pytest.approx(0.9640065, rel=1e-6)
        assert d.probability("abort") == pytest.approx(1.164504e-3, rel=1e-6)
        assert d.probability("failure") == pytest.approx(1.647366e-4, rel=1e-6)
        loss_total = sum(o.probability for o in d.outcomes
                         if o.label.startswith("success_with"))
        assert loss_total == pytest.approx(0.0346642, rel=1e-5)

    @given(p=st.floats(0.0, 0.5), n=st.integers(1, 30))
    @settings(max_examples=50)
    def test_normalized(self, p, n):
        params = derive_noise_params(p)
        d = heralded_cz_distribution(params, AttemptCaps(n_rus=n))
        assert d.total() == pytest.approx(1.0, abs=1e-12)
        assert all(o.probability >= 0 for o in d.outcomes)
        assert all(o.channel.total_weight() == pytest.approx(1.0, abs=1e-12)
                   for o in d.outcomes)

    def test_large_cap_matches_integer_binomial(self):
        # a cap past 64 attempts, where the binomial coefficients outgrow a
        # double's 53-bit mantissa: normalization and agreement with the direct
        # integer-binomial evaluation must survive
        d = heralded_cz_distribution(REFERENCE_PARAMS, AttemptCaps(n_rus=70))
        assert d.total() == pytest.approx(1.0, abs=1e-12)
        cyc = cycle_outcome_distribution(REFERENCE_PARAMS.epsilon,
                                         REFERENCE_PARAMS.distinguishability)
        exact_p3 = cyc.p_success * sum(
            math.comb(t - 1, 3) * cyc.p_one_loss**3 * cyc.p_repeat ** (t - 4)
            for t in range(4, 71)
        )
        assert d.probability("success_with_3_losses") == pytest.approx(exact_p3, rel=1e-9)

    @pytest.mark.parametrize("p1", [0.001, 0.01, 0.05, 0.2, 0.5, 0.9])
    def test_loss_sum_matches_integer_binomial(self, p1):
        # every k < n <= 64, with the rest of the cycle mass on repeats
        pr = 1.0 - p1
        worst = 0.0
        for n in range(2, 65):
            for k in range(1, n):
                exact = sum(math.comb(t - 1, k) * p1**k * pr ** (t - 1 - k)
                            for t in range(k + 1, n + 1))
                got = noise._binomial_loss_sum(k, n, p1, pr)
                worst = max(worst, abs(got - exact) / exact)
        assert worst <= 1e-14

    @pytest.mark.parametrize("n_rus", [1, 64, 65, 500, 2000])
    def test_normalized_at_large_caps(self, n_rus):
        d = heralded_cz_distribution(REFERENCE_PARAMS, AttemptCaps(n_rus=n_rus))
        assert abs(d.total() - 1.0) <= 1e-12
        assert len(d.outcomes) == n_rus + 2

    @given(p=st.floats(1e-4, 0.5))
    @settings(max_examples=25)
    def test_monotone_in_attempts(self, p):
        params = derive_noise_params(p)
        aborts, purities = [], []
        for n in (2, 5, 10, 20):
            d = heralded_cz_distribution(params, AttemptCaps(n_rus=n))
            aborts.append(d.probability("abort"))
            purities.append(d.probability("pure_success"))
        assert aborts == sorted(aborts, reverse=True)
        assert purities == sorted(purities)
        assert len(set(aborts)) == 4  # strictly decreasing

    def test_channels_attached(self):
        d = heralded_cz_distribution(REFERENCE_PARAMS, CAPS)
        by_label = {o.label: o.channel for o in d.outcomes}
        dist_cz = by_label["pure_success"]
        assert dist_cz.weight("II") == pytest.approx((1 + 8.5e-4) / 2)
        assert dist_cz.weight("ZZ") == pytest.approx((1 - 8.5e-4) / 2)
        assert by_label["failure"].is_close(loss_channel(math.inf))
        assert by_label["abort"].is_close(loss_channel(math.inf))
        k1 = by_label["success_with_1_losses"]
        assert k1.is_close(dist_cz.compose(loss_channel(1)))

    @pytest.mark.parametrize("name", ["n_rus"])
    @pytest.mark.parametrize("value", [True, 0, 2.0])
    def test_attempt_caps_reject_non_integers_and_bools(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"^{name}="):
            AttemptCaps(**{name: value})


class TestHeraldedMzz:
    def test_noiseless_column(self):
        d = heralded_mzz_distribution(derive_noise_params(0.0), CAPS)
        assert d.probability("pure_success") == pytest.approx(1 - 2**-10, abs=1e-15)
        assert d.probability("abort") == pytest.approx(2**-10, abs=1e-15)
        assert d.probability("success_with_loss") == 0.0

    def test_reference_abort(self):
        d = heralded_mzz_distribution(REFERENCE_PARAMS, CAPS)
        assert d.probability("abort") == pytest.approx((1 - 0.4910405) ** 10, rel=1e-9)
        assert d.probability("abort") == pytest.approx(1.1663590e-3, rel=1e-6)

    @given(p=st.floats(0.0, 0.5), n=st.integers(1, 30))
    @settings(max_examples=50)
    def test_normalized(self, p, n):
        d = heralded_mzz_distribution(derive_noise_params(p), AttemptCaps(n_rus=n))
        assert d.total() == pytest.approx(1.0, abs=1e-12)

    def test_abort_channel_erases_record(self):
        d = heralded_mzz_distribution(REFERENCE_PARAMS, CAPS)
        abort = {o.label: o.channel for o in d.outcomes}["abort"]
        assert abort.classical_flip_weight == 0.5
        assert abort.weight("ZI") == pytest.approx(0.5)  # erasure on the first spin


class TestChannels:
    def test_loss_channel_k1(self):
        c = loss_channel(1)
        assert c.weight("II") == pytest.approx(0.5)
        assert c.weight("ZI") == c.weight("IZ") == pytest.approx(0.25)
        assert c.weight("ZZ") == 0.0

    def test_loss_channel_infinite(self):
        c = loss_channel(math.inf)
        assert all(c.weight(l) == pytest.approx(0.25) for l in ("II", "ZI", "IZ", "ZZ"))
        # 2^-inf is exactly 0, so the general weights are exactly uniform
        assert c.terms == (("II", 0.25), ("ZI", 0.25), ("IZ", 0.25), ("ZZ", 0.25))

    def test_loss_channel_k2_matches_composition(self):
        assert loss_channel(2).is_close(loss_channel(1).compose(loss_channel(1)))
        assert loss_channel(2).weight("II") == pytest.approx(3 / 8)
        assert loss_channel(2).weight("ZZ") == pytest.approx(1 / 8)

    @given(k=st.integers(1, 20))
    def test_loss_channel_recursion(self, k):
        assert loss_channel(k + 1).is_close(loss_channel(k).compose(loss_channel(1)))

    def test_loss_channel_converges(self):
        c = loss_channel(40)
        for l in ("II", "ZI", "IZ", "ZZ"):
            assert c.weight(l) == pytest.approx(0.25, abs=1e-11)

    def test_loss_channel_invalid(self):
        with pytest.raises(InvalidParameterError):
            loss_channel(0)

    def test_idle_channel(self):
        assert idle_channel(0.0, 1.0).weight("Z") == 0.0
        assert idle_channel(1e9, 1.0).weight("Z") == pytest.approx(0.5)
        assert idle_channel(1e-4, 1.0).weight("Z") == pytest.approx(4.99975e-5, rel=1e-5)

    def test_single_qubit_gate_channel(self):
        assert single_qubit_gate_channel(0.0).weight("I") == 1.0
        assert single_qubit_gate_channel(5e-5).weight("X") == pytest.approx(5e-5 / 3)
        c = single_qubit_gate_channel(0.3)
        assert c.weight("I") == pytest.approx(0.7)
        assert c.weight("Y") == pytest.approx(0.1)

    def test_init_measure(self):
        assert init_measure_outcomes(0.0, 5)[0] == 1.0
        success, channel = init_measure_outcomes(0.009, 5, "init")
        assert 1 - success == pytest.approx(0.009**5)
        assert 1 - success == pytest.approx(5.9e-11, rel=2e-2)
        assert channel.weight("X") == 0.25
        success, channel = init_measure_outcomes(0.5, 5, "measure")
        assert success == pytest.approx(1 - 1 / 32)
        assert channel.classical_flip_weight == 0.5

    def test_no_record_composes_to_no_flip(self):
        c = loss_channel(1).compose(distinguishability_cz_channel(0.2))
        assert c.classical_flip_weight == 0.0
        flip = distinguishability_mzz_channel(0.2).compose(loss_channel(1))
        assert flip.classical_flip_weight == 0.4

    def test_channel_validation(self):
        with pytest.raises(InvalidParameterError):
            PauliChannel(1, (("I", 0.5),))
        with pytest.raises(InvalidParameterError):
            PauliChannel(1, (("I", 1.5), ("Z", -0.5)))


class TestValidatorsRejectNanAndBool:
    """A NaN fails every probability check, and a bool is not a count."""

    @pytest.mark.parametrize("terms", [
        (("I", NAN),),
        (("I", 1.0), ("Z", NAN)),
        (("I", NAN), ("Z", 1.0)),
    ])
    def test_pauli_channel(self, terms):
        with pytest.raises(InvalidParameterError):
            PauliChannel(1, terms)

    @pytest.mark.parametrize("vals", [
        (NAN, 0, 0, 0, 0),
        (1.0, NAN, 0, 0, 0),
        (0.5, 0.5, 0, 0, NAN),
    ])
    def test_cycle_outcome_distribution(self, vals):
        with pytest.raises(InvalidParameterError):
            CycleOutcomeDistribution(*vals)

    @pytest.mark.parametrize("probs", [(NAN,), (1.0, NAN), (NAN, 1.0)])
    def test_heralded_outcome_distribution(self, probs):
        outcomes = tuple(HeraldedOutcome(f"o{i}", p, None) for i, p in enumerate(probs))
        with pytest.raises(InvalidParameterError):
            HeraldedOutcomeDistribution(outcomes)

    @pytest.mark.parametrize("t,t2", [(NAN, 1.0), (1.0, NAN), (-1.0, 1.0), (1.0, 0.0),
                                      (math.inf, math.inf)])
    def test_idle_channel(self, t, t2):
        with pytest.raises(InvalidParameterError):
            idle_channel(t, t2)

    @pytest.mark.parametrize("k", [True, False, 0, NAN, 1.5, -math.inf])
    def test_loss_channel(self, k):
        with pytest.raises(InvalidParameterError, match="^k="):
            loss_channel(k)

    @pytest.mark.parametrize("epsilon,attempts,name", [
        (0.1, True, "attempts"), (0.1, False, "attempts"), (0.1, 0, "attempts"),
        (0.1, 2.0, "attempts"), (NAN, 3, "epsilon"),
    ])
    def test_init_measure_outcomes(self, epsilon, attempts, name):
        with pytest.raises(InvalidParameterError, match=f"^{name}="):
            init_measure_outcomes(epsilon, attempts)


class TestMcOracle:
    def test_deterministic(self):
        cyc = cycle_outcome_distribution(0.009, 8.5e-4)
        a = mc_rus_oracle(cyc, CAPS, 20_000, seed=7)
        b = mc_rus_oracle(cyc, CAPS, 20_000, seed=7)
        assert a == b

    def test_stream_partition_is_the_contract(self):
        # per-stream counts are summed, so execution order cannot matter;
        # the odd trial count exercises the uneven-chunk branch
        cyc = cycle_outcome_distribution(0.05, 0.0)
        whole = mc_rus_oracle(cyc, CAPS, 30_001, seed=3, streams=4)
        again = mc_rus_oracle(cyc, CAPS, 30_001, seed=3, streams=4)
        assert whole == again
        assert whole.total() == pytest.approx(1.0, abs=1e-12)

    def test_noiseless(self):
        cyc = cycle_outcome_distribution(0.0, 0.0)
        trials = 200_000
        d = mc_rus_oracle(cyc, CAPS, trials, seed=11)
        p0 = 1 - 2**-10
        assert abs(d.probability("pure_success") - p0) <= 5 * binomial_sigma(p0, trials)
        assert d.probability("failure") == 0.0

    @pytest.mark.parametrize("kind,closed_form", [
        ("cz", heralded_cz_distribution(REFERENCE_PARAMS, CAPS)),
        ("mzz", heralded_mzz_distribution(REFERENCE_PARAMS, CAPS)),
    ])
    def test_matches_closed_form(self, kind, closed_form):
        cyc = cycle_outcome_distribution(REFERENCE_PARAMS.epsilon,
                                         REFERENCE_PARAMS.distinguishability)
        trials = 150_000
        emp = mc_rus_oracle(cyc, CAPS, trials, seed=23, kind=kind)
        for outcome in closed_form.outcomes:
            sigma = binomial_sigma(outcome.probability, trials)
            dev = abs(emp.probability(outcome.label) - outcome.probability)
            assert dev <= 5 * sigma + 1e-12, outcome.label

    def test_invalid(self):
        cyc = cycle_outcome_distribution(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            mc_rus_oracle(cyc, CAPS, 0, seed=1)
        with pytest.raises(InvalidParameterError):
            mc_rus_oracle(cyc, CAPS, 10, seed=1, kind="bad")

    @pytest.mark.parametrize("trials,seed,name", [
        (10, -1, "seed"),
        (10, 1.5, "seed"),
        (10, "1", "seed"),
        (1.5, 1, "trials"),
        (10.0, 1, "trials"),
        (True, 1, "trials"),
    ])
    def test_invalid_trials_and_seed_named(self, trials, seed, name):
        cyc = cycle_outcome_distribution(0.0, 0.0)
        with pytest.raises(InvalidParameterError, match=f"^{name}="):
            mc_rus_oracle(cyc, CAPS, trials, seed=seed)

    @pytest.mark.parametrize("streams", [0, 2.5, 2.0, True, "2"])
    def test_invalid_streams_named(self, streams):
        cyc = cycle_outcome_distribution(0.0, 0.0)
        with pytest.raises(InvalidParameterError, match="^streams="):
            mc_rus_oracle(cyc, CAPS, 10, seed=1, streams=streams)


def _reference_counts(cyc, n_rus, trials, seed, kind, streams):
    """Counts from the documented draw contract and a plain per-trial loop.

    Each stream's rows are drawn in one call, so a block-wise draw inside the
    oracle must reproduce them exactly.
    """
    success = cyc.p_success
    repeat = success + cyc.p_repeat
    one_loss = repeat + cyc.p_one_loss
    counts = {}
    children = np.random.SeedSequence(seed).spawn(streams)
    for i, child in enumerate(children):
        rows = trials // streams + (1 if i < trials % streams else 0)
        draws = np.random.Generator(np.random.PCG64(child)).random((rows, n_rus))
        for row in draws.tolist():
            label = "abort"
            losses = 0
            for u in row:
                if u < success:
                    if losses == 0:
                        label = "pure_success"
                    elif kind == "cz":
                        label = f"success_with_{losses}_losses"
                    else:
                        label = "success_with_loss"
                    break
                if kind == "cz" and u >= one_loss:
                    label = "failure"
                    break
                if u >= repeat:
                    losses += 1
            counts[label] = counts.get(label, 0) + 1
    return counts


def _oracle_counts(cyc, n_rus, trials, seed, kind, streams):
    d = mc_rus_oracle(cyc, AttemptCaps(n_rus=n_rus), trials, seed, kind=kind, streams=streams)
    counts = {o.label: round(o.probability * trials) for o in d.outcomes}
    return {label: c for label, c in counts.items() if c}


class TestMcOracleCounts:
    """The oracle's counts equal an independent per-trial classification."""

    @pytest.mark.parametrize("kind", ["cz", "mzz"])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("n_rus", [1, 2, 10, 30])
    def test_matches_per_trial_loop(self, n_rus, p, kind):
        params = derive_noise_params(p)
        cyc = cycle_outcome_distribution(params.epsilon, params.distinguishability)
        # 1003 trials split unevenly over 8 streams
        args = (cyc, n_rus, 1003, 17, kind, 8)
        assert _oracle_counts(*args) == _reference_counts(*args)

    @pytest.mark.parametrize("kind", ["cz", "mzz"])
    def test_fewer_trials_than_streams(self, kind):
        cyc = cycle_outcome_distribution(0.27, 0.0255)
        args = (cyc, 10, 5, 4, kind, 8)
        assert _oracle_counts(*args) == _reference_counts(*args)

    @pytest.mark.parametrize("kind", ["cz", "mzz"])
    def test_stream_spans_several_draw_blocks(self, kind):
        cyc = cycle_outcome_distribution(0.27, 0.0255)
        trials = 2 * noise._BLOCK_ROWS + 5
        args = (cyc, 3, trials, 5, kind, 1)
        assert _oracle_counts(*args) == _reference_counts(*args)


def _cycle(p):
    params = derive_noise_params(p)
    return cycle_outcome_distribution(params.epsilon, params.distinguishability)


class TestMcOracleOneDraw:
    """One draw serves both kinds, and the kept counts answer only their own key."""

    @given(p=st.floats(0.0, 0.6), n_rus=st.integers(1, 40), trials=st.integers(1, 3_000),
           seed=st.integers(0, 2**32), streams=st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_both_kinds_at_one_key_match_the_reference(self, p, n_rus, trials, seed, streams):
        for kind in ("cz", "mzz"):
            args = (_cycle(p), n_rus, trials, seed, kind, streams)
            assert _oracle_counts(*args) == _reference_counts(*args)

    def test_order_and_calls_between_do_not_matter(self):
        cyc, other = _cycle(0.05), _cycle(0.2)
        caps = AttemptCaps(n_rus=6)
        key = (cyc, caps, 2_001, 5)
        cz_first = (mc_rus_oracle(*key, kind="cz"), mc_rus_oracle(*key, kind="mzz"))
        mzz_first = (mc_rus_oracle(*key, kind="mzz"), mc_rus_oracle(*key, kind="cz"))
        interleaved = []
        for kind in ("cz", "mzz"):
            mc_rus_oracle(other, caps, 2_001, 5, kind=kind)
            interleaved.append(mc_rus_oracle(*key, kind=kind))
            mc_rus_oracle(cyc, AttemptCaps(n_rus=7), 2_001, 5, kind=kind)
        assert cz_first == mzz_first[::-1] == tuple(interleaved)
        for kind in ("cz", "mzz"):
            args = (cyc, 6, 2_001, 5, kind, 8)
            assert _oracle_counts(*args) == _reference_counts(*args)

    @pytest.mark.parametrize("field,value", [
        ("p", 0.3), ("n_rus", 9), ("trials", 1_501), ("seed", 12), ("streams", 3),
    ])
    def test_no_stale_hit_when_one_input_changes(self, field, value):
        base = {"p": 0.05, "n_rus": 8, "trials": 1_500, "seed": 11, "streams": 8}
        for key in (base, dict(base, **{field: value})):
            for kind in ("cz", "mzz"):
                args = (_cycle(key["p"]), key["n_rus"], key["trials"], key["seed"], kind,
                        key["streams"])
                assert _oracle_counts(*args) == _reference_counts(*args)

    def test_numpy_integers_hit_the_same_entry(self):
        cyc = _cycle(0.05)
        noise._mc_counts.cache_clear()
        plain = mc_rus_oracle(cyc, CAPS, 3_000, 7, kind="cz", streams=4)
        wide = mc_rus_oracle(cyc, CAPS, np.int64(3_000), np.int64(7), kind="cz",
                             streams=np.int64(4))
        assert wide == plain
        assert type(wide.trials) is int
        info = noise._mc_counts.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (1, 1, 1)
