import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftcost import InvalidParameterError, TimingModel, logical_cycle_time

TIMING = TimingModel()


def test_defaults():
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

