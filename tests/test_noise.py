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
from ftcost.noise import PauliChannel, binomial_sigma

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
        with pytest.raises(InvalidParameterError):
            derive_noise_params(0.5, {"epsilon": 2.5})


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

    def test_large_cap_uses_log_space_sums(self):
        # n_rus = 70 crosses the exact-binomial limit; normalization and
        # agreement with the direct integer-binomial evaluation must survive
        d = heralded_cz_distribution(REFERENCE_PARAMS, AttemptCaps(n_rus=70))
        assert d.total() == pytest.approx(1.0, abs=1e-12)
        cyc = cycle_outcome_distribution(REFERENCE_PARAMS.epsilon,
                                         REFERENCE_PARAMS.distinguishability)
        exact_p3 = cyc.p_success * sum(
            math.comb(t - 1, 3) * cyc.p_one_loss**3 * cyc.p_repeat ** (t - 4)
            for t in range(4, 71)
        )
        assert d.probability("success_with_3_losses") == pytest.approx(exact_p3, rel=1e-9)

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

    def test_channel_validation(self):
        with pytest.raises(InvalidParameterError):
            PauliChannel(1, (("I", 0.5),))
        with pytest.raises(InvalidParameterError):
            PauliChannel(1, (("I", 1.5), ("Z", -0.5)))


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
