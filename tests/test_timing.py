import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftcost import AttemptCaps, InvalidParameterError, TimingModel, logical_cycle_time

TIMING = TimingModel()


def test_defaults():
    assert TIMING.single_qubit_ns == 5.0
    assert TIMING.rus_cycle_ns == 30.0
    assert TIMING.init_time_ns == 150.0
    assert TIMING.measure_time_ns == 150.0
    assert TIMING.rus_gate_ns == 300.0
    assert TIMING.syndrome_round_ns == 305.0
    assert TIMING.reaction_rounds == 33


def test_logical_cycle_time():
    assert logical_cycle_time(102) == pytest.approx(31110.0)  # 31.11 us
    assert logical_cycle_time(36) == pytest.approx(11.0e3, abs=100.0)  # 11.0 us
    assert logical_cycle_time(1) == 305.0


def test_reaction_ratio():
    assert TIMING.reaction_ratio(102) == pytest.approx(33 / 102)
    assert TIMING.reaction_ratio(33) == 1.0
    assert TIMING.reaction_ratio(60) == pytest.approx(0.55)


@given(rounds=st.integers(1, 10_000))
def test_ratio_times_cycle_is_constant(rounds):
    product = TIMING.reaction_ratio(rounds) * logical_cycle_time(rounds)
    assert product == pytest.approx(33 * 305.0)


@given(rounds=st.integers(1, 10_000), scale=st.integers(2, 5))
def test_cycle_time_linear(rounds, scale):
    assert logical_cycle_time(rounds * scale) == pytest.approx(
        scale * logical_cycle_time(rounds))


def test_invalid():
    with pytest.raises(InvalidParameterError):
        logical_cycle_time(0)
    with pytest.raises(InvalidParameterError):
        TimingModel(syndrome_round_ns=0.0)


def test_overrides_rescale_reaction_rounds():
    t = TimingModel(syndrome_round_ns=500.0, reaction_us=10.0)
    assert t.reaction_rounds == 20


def test_attempt_caps_set_the_capped_times():
    t = TimingModel(caps=AttemptCaps(n_rus=3, n_init=2, n_measure=4))
    assert (t.rus_gate_ns, t.init_time_ns, t.measure_time_ns) == (90.0, 60.0, 120.0)
    assert TIMING.caps == AttemptCaps()
    with pytest.raises(InvalidParameterError, match="^n_init="):
        TimingModel(caps=AttemptCaps(n_init=-3))
    with pytest.raises(TypeError):
        TimingModel(n_rus=0)
