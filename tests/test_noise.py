import contextlib
import math
import os
import signal
import sys
import threading
import time
import warnings
from fractions import Fraction

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
    mc_rus_oracle,
)
from ftcost import noise
from ftcost.noise import (
    CycleOutcomeDistribution,
    HeraldedOutcome,
    HeraldedOutcomeDistribution,
    binomial_sigma,
    binomial_tail,
)

NAN = float("nan")

REFERENCE_PARAMS = derive_noise_params(0.01)
CAPS = AttemptCaps()


class TestDeriveNoiseParams:
    def test_reference_row(self):
        p = REFERENCE_PARAMS
        assert p.epsilon == pytest.approx(0.009)
        assert p.distinguishability == pytest.approx(8.5e-4)

    def test_zero_noise(self):
        p = derive_noise_params(0.0)
        assert (p.epsilon, p.distinguishability) == (0, 0)

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

    @pytest.mark.parametrize("name", ["n_rus"])
    @pytest.mark.parametrize("value", [True, 0, 2.0, np.True_])
    def test_attempt_caps_reject_non_integers_and_bools(self, name, value):
        with pytest.raises(InvalidParameterError, match=f"^{name}="):
            AttemptCaps(**{name: value})


class TestHeraldedMzz:
    def test_noiseless_column(self):
        d = heralded_mzz_distribution(derive_noise_params(0.0), CAPS)
        assert d.probability("pure_success") == pytest.approx(1 - 2**-10, abs=1e-15)
        assert d.probability("abort") == pytest.approx(2**-10, abs=1e-15)
        assert d.probability("success_with_loss") == 0.0

    def test_a_label_it_does_not_hold_is_an_error(self):
        # "failure" is a CZ outcome only; it is not read as probability 0
        d = heralded_mzz_distribution(REFERENCE_PARAMS, CAPS)
        with pytest.raises(InvalidParameterError,
                           match=r"^label='failure' must be one of "
                                 r"pure_success \| success_with_loss \| abort$"):
            d.probability("failure")

    def test_reference_abort(self):
        d = heralded_mzz_distribution(REFERENCE_PARAMS, CAPS)
        assert d.probability("abort") == pytest.approx((1 - 0.4910405) ** 10, rel=1e-9)
        assert d.probability("abort") == pytest.approx(1.1663590e-3, rel=1e-6)

    @given(p=st.floats(0.0, 0.5), n=st.integers(1, 30))
    @settings(max_examples=50)
    def test_normalized(self, p, n):
        d = heralded_mzz_distribution(derive_noise_params(p), AttemptCaps(n_rus=n))
        assert d.total() == pytest.approx(1.0, abs=1e-12)


class TestValidatorsRejectNanAndBool:
    """A NaN fails every probability check."""

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


class TestCountsTakeAnyInteger:
    """A count is any integer, numpy's included, and is used as a Python int."""

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_attempt_caps(self, integer):
        caps = AttemptCaps(integer(10))
        assert caps == AttemptCaps(10) and type(caps.n_rus) is int
        for heralded in (heralded_cz_distribution, heralded_mzz_distribution):
            assert heralded(REFERENCE_PARAMS, caps) == heralded(REFERENCE_PARAMS, AttemptCaps(10))

    def test_int_messages(self):
        with pytest.raises(InvalidParameterError, match="^n_rus=0 must be an integer >= 1$"):
            AttemptCaps(0)


class TestMcOracle:
    def test_deterministic(self):
        cyc = cycle_outcome_distribution(0.009, 8.5e-4)
        a = mc_rus_oracle(cyc, CAPS, 20_000, seed=7)
        b = mc_rus_oracle(cyc, CAPS, 20_000, seed=7)
        assert a == b

    def test_stream_partition_is_the_contract(self):
        # per-stream counts are summed, so which thread walks a stream cannot
        # matter; the odd trial count exercises the uneven-chunk branch
        cyc = cycle_outcome_distribution(0.05, 0.0)
        with _cpus(1):
            serial = mc_rus_oracle(cyc, CAPS, 30_001, seed=3, streams=4)
        with _cpus(2):
            pooled = mc_rus_oracle(cyc, CAPS, 30_001, seed=3, streams=4)
        assert serial == pooled
        assert serial.total() == pytest.approx(1.0, abs=1e-12)

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

    @pytest.mark.parametrize("n_rus", [1, 2, 10, 80])
    @pytest.mark.parametrize("kind,closed_form", [
        ("cz", heralded_cz_distribution), ("mzz", heralded_mzz_distribution),
    ])
    def test_closed_forms_list_the_oracles_labels(self, n_rus, kind, closed_form):
        caps = AttemptCaps(n_rus)
        cyc = cycle_outcome_distribution(REFERENCE_PARAMS.epsilon,
                                         REFERENCE_PARAMS.distinguishability)
        empirical = mc_rus_oracle(cyc, caps, 50, seed=1, kind=kind)
        labels = [o.label for o in closed_form(REFERENCE_PARAMS, caps).outcomes]
        assert labels == [o.label for o in empirical.outcomes]
        assert len(set(labels)) == len(labels) == (n_rus + 2 if kind == "cz" else 3)


class TestBinomialTail:
    @staticmethod
    def _brute_force(count, trials, p):
        """The tail on ``count``'s side of the mean, from exact rational terms."""
        p = Fraction(p)
        pmf = [math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]
        side = pmf[:count + 1] if count < trials * p else pmf[count:]
        return float(sum(side))

    @pytest.mark.parametrize("trials", [1, 2, 7, 30])
    @pytest.mark.parametrize("p", [1e-6, 0.035, 0.3, 0.5, 0.97])
    def test_matches_the_brute_force_sum(self, trials, p):
        for count in range(trials + 1):
            expected = self._brute_force(count, trials, p)
            assert binomial_tail(count, trials, p) == pytest.approx(expected, rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_a_certain_count(self, p):
        trials = 5
        assert [binomial_tail(k, trials, p) for k in range(trials + 1)] == [
            float(k == trials * p) for k in range(trials + 1)]

    def test_the_gate_level_is_the_normal_tail_at_five_sigma(self):
        assert noise.GATE_TAIL == pytest.approx(2.8665e-7, rel=1e-4)

    def test_a_far_count_underflows_to_zero(self):
        # one trial in a category of expected count 0.035 is likely; a thousand is not
        assert binomial_tail(1, 1000, 3.5e-5) > noise.GATE_TAIL
        assert binomial_tail(1000, 1000, 3.5e-5) == 0.0


@contextlib.contextmanager
def _cpus(n):
    """Show the oracle ``n`` available CPUs, with no counts kept from another count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise, "_available_cpus", lambda: n)
        noise._mc_counts.cache_clear()
        try:
            yield
        finally:
            noise._mc_counts.cache_clear()


@contextlib.contextmanager
def _allocations():
    """Record ``(thread, dtype, size)`` of every ``np.empty`` array made meanwhile."""
    allocated = []
    empty = np.empty

    def spy(*args, **kwargs):
        buffer = empty(*args, **kwargs)
        allocated.append((threading.get_ident(), buffer.dtype, buffer.size))
        return buffer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "empty", spy)
        yield allocated


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


def _classify_row_by_row(draws, edges):
    """cz and mzz category indices counted by a plain loop over each row."""
    success, repeat, one_loss = edges
    n = draws.shape[1]
    cz, mzz = [0] * (n + 2), [0] * 3
    for row in draws.tolist():
        losses, doubled = 0, False
        for u in row:
            if u < success:
                if not doubled:
                    cz[losses] += 1
                mzz[0 if losses == 0 else 1] += 1
                break
            if u >= one_loss and not doubled:
                cz[n] += 1
                doubled = True
            if u >= repeat:
                losses += 1
        else:
            if not doubled:
                cz[n + 1] += 1
            mzz[2] += 1
    return cz, mzz


class TestClassify:
    """One block's walk equals a per-row loop, whatever the edges and the draws."""

    @given(rows=st.integers(1, 40), n=st.integers(1, 70),
           edges=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          min_size=3, max_size=3).map(sorted),
           seed=st.integers(0, 2**32), on_edge=st.floats(0.0, 0.5))
    @settings(max_examples=150, deadline=None)
    def test_matches_a_per_row_loop(self, rows, n, edges, seed, on_edge):
        rng = np.random.default_rng(seed)
        draws = rng.random((rows, n))
        # a share of the entries sits exactly on an edge, which is not below it
        hit = rng.random((rows, n)) < on_edge
        draws[hit] = rng.choice(edges, size=int(hit.sum()))
        cz, mzz = noise._classify(draws, np.array(edges))
        assert (cz.tolist(), mzz.tolist()) == _classify_row_by_row(draws, edges)

    def test_many_double_losses_before_a_late_success(self):
        # each double loss adds n + 1, so a success after many of them still
        # bins as a cz failure and an mzz loss success
        n = 5
        draws = np.array([[0.9, 0.9, 0.9, 0.9, 0.1], [0.9, 0.5, 0.5, 0.5, 0.5]])
        cz, mzz = noise._classify(draws, np.array([0.2, 0.6, 0.8]))
        assert cz.tolist() == [0] * n + [2, 0]
        assert mzz.tolist() == [0, 1, 1]


class TestMcOracleOneDraw:
    """One draw serves both kinds, and the kept counts answer only their own key."""

    @given(p=st.floats(0.0, 0.6), n_rus=st.integers(1, 40), trials=st.integers(1, 3_000),
           seed=st.integers(0, 2**32), streams=st.integers(1, 9), cpus=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_both_kinds_at_one_key_match_the_reference(self, p, n_rus, trials, seed, streams,
                                                       cpus):
        with _cpus(cpus):
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


class TestMcOracleWorkers:
    """The streams run on up to one thread per CPU, with the serial counts and memory bound."""

    @pytest.mark.parametrize("kind", ["cz", "mzz"])
    @pytest.mark.parametrize("streams", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_worker_count_cannot_change_a_count(self, cpus, streams, kind):
        # 1003 = 17 * 59: no stream count above 1 divides it
        args = (_cycle(0.05), 7, 1003, 21, kind, streams)
        with _cpus(cpus):
            assert _oracle_counts(*args) == _reference_counts(*args)

    @pytest.mark.parametrize("kind", ["cz", "mzz"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_fewer_trials_than_streams(self, cpus, kind):
        args = (_cycle(0.3), 10, 5, 4, kind, 8)
        with _cpus(cpus):
            assert _oracle_counts(*args) == _reference_counts(*args)

    @pytest.mark.parametrize("kind", ["cz", "mzz"])
    def test_stream_spans_several_worker_blocks(self, kind):
        # each stream holds _BLOCK_ROWS + 2 or + 3 rows: three blocks of a worker's half
        args = (_cycle(0.3), 3, 2 * noise._BLOCK_ROWS + 5, 5, kind, 2)
        with _cpus(2):
            assert _oracle_counts(*args) == _reference_counts(*args)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_draw_buffers_hold_at_most_one_block(self, cpus, monkeypatch):
        caller = threading.get_ident()
        allocated = []
        empty = np.empty

        def spy(*args, **kwargs):
            buffer = empty(*args, **kwargs)
            allocated.append((threading.get_ident(), buffer.dtype, buffer.size))
            return buffer

        monkeypatch.setattr(np, "empty", spy)
        n_rus = 7
        # three streams of more than _BLOCK_ROWS rows each: every worker's
        # buffer is as large as the bound lets it be
        with _cpus(cpus):
            mc_rus_oracle(_cycle(0.05), AttemptCaps(n_rus=n_rus), 3 * noise._BLOCK_ROWS + 11,
                          4, streams=3)
        assert len(allocated) == cpus
        assert {(thread, dtype) for thread, dtype, _ in allocated} == {(caller, np.dtype(np.float64))}
        assert sum(size for _, _, size in allocated) <= noise._BLOCK_ROWS * n_rus

    def test_many_streams_run_on_at_most_one_thread_per_cpu(self, monkeypatch):
        before = threading.active_count()
        threads, alive = set(), []
        classify = noise._classify

        def spy(draws, edges):
            threads.add(threading.get_ident())
            alive.append(threading.active_count() - before)
            return classify(draws, edges)

        monkeypatch.setattr(noise, "_classify", spy)
        with _cpus(2):
            for kind in ("cz", "mzz"):
                args = (_cycle(0.05), 6, 1_000, 9, kind, 64)
                assert _oracle_counts(*args) == _reference_counts(*args)
        assert 1 <= len(threads) <= 2
        assert max(alive) <= 2

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_wide_trials_hold_at_most_the_fixed_uniforms(self, cpus):
        n_rus = 2_000
        # three streams of more rows than any worker's buffer holds
        args = (_cycle(0.05), n_rus, 1_800, 4, "cz", 3)
        with _cpus(cpus), _allocations() as allocated:
            counts = _oracle_counts(*args)
        assert counts == _reference_counts(*args)
        assert len(allocated) == cpus
        assert {thread for thread, _, _ in allocated} == {threading.get_ident()}
        # whole rows, each buffer as large as the fixed total lets it be
        assert {size % n_rus for _, _, size in allocated} == {0}
        assert {size for _, _, size in allocated} == {
            noise._BLOCK_UNIFORMS // (n_rus * cpus) * n_rus}
        assert sum(size for _, _, size in allocated) <= noise._BLOCK_UNIFORMS

    def test_a_row_wider_than_the_fixed_uniforms_is_rejected(self):
        caps = AttemptCaps(n_rus=noise._BLOCK_UNIFORMS + 1)
        with _allocations() as allocated, pytest.raises(InvalidParameterError, match="^n_rus="):
            mc_rus_oracle(_cycle(0.05), caps, 1, 0)
        assert allocated == []

    def test_one_pool_serves_calls_at_one_worker_count(self, monkeypatch):
        threads = []
        classify = noise._classify

        def spy(draws, edges):
            threads.append(threading.get_ident())
            return classify(draws, edges)

        monkeypatch.setattr(noise, "_classify", spy)
        with _cpus(1):
            mc_rus_oracle(_cycle(0.05), CAPS, 4_000, 1, streams=2)
            old = noise._pool[2]
        with _cpus(2):
            mc_rus_oracle(_cycle(0.05), CAPS, 4_000, 2, streams=2)
            # a new worker count replaces the pool and shuts the old one down
            with pytest.raises(RuntimeError):
                old.submit(int)
            pool = noise._pool[2]
            assert noise._pool[:2] == (2, os.getpid())
            alive = {thread.ident for thread in threading.enumerate()}
            threads.clear()
            mc_rus_oracle(_cycle(0.05), CAPS, 4_000, 3, streams=4)
        assert noise._pool[2] is pool
        # the first call's threads still run; the pool may start its second
        # thread lazily, on a later call
        after = {thread.ident for thread in threading.enumerate()}
        assert alive <= after
        assert set(threads) <= after - {threading.get_ident()}
        assert 1 <= len(set(threads)) <= 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_pool(self):
        # the child inherits the parent's pool but none of its threads, so
        # work handed to that pool would never run
        args = (_cycle(0.05), 5, 1_001, 6, "cz", 2)
        expected = _reference_counts(*args)
        with _cpus(2):
            _oracle_counts(*args[:3], 5, *args[4:])
            with warnings.catch_warnings():
                # Python 3.12 warns that forking a threaded process may deadlock
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                try:
                    os._exit(0 if _oracle_counts(*args) == expected else 1)
                finally:
                    os._exit(2)
        for _ in range(600):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.1)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's oracle call did not finish in 60 s")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_concurrent_callers_at_two_worker_counts(self):
        # one and two streams on two CPUs want pools of one and two workers, so
        # the callers keep replacing the shared pool under each other
        args = [(_cycle(0.05), 5, 301 + caller, caller, "cz", 1 + caller % 2)
                for caller in range(4)]
        results, errors = {}, []

        def call(caller):
            try:
                for _ in range(5):
                    results.setdefault(caller, set()).add(
                        tuple(sorted(_oracle_counts(*args[caller]).items())))
            except Exception as exc:  # reported below, from the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _cpus(2):
                callers = [threading.Thread(target=call, args=(c,)) for c in range(4)]
                for thread in callers:
                    thread.start()
                for thread in callers:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert errors == [] and sorted(results) == [0, 1, 2, 3]
        for caller, counts in results.items():
            assert counts == {tuple(sorted(_reference_counts(*args[caller]).items()))}

    def test_cpu_count_read_without_affinity(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert noise._available_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert noise._available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert noise._available_cpus() == 1
