"""The physical inputs: the noise intensity and the two error parameters
scaled off it, syndrome round and reaction timings, and logical-clock
quantities."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParameterError, integer, real, real_fields

#: Fixed relative weights of the two error mechanisms, photon loss and
#: photon distinguishability, versus the overall noise intensity p.
DEFAULT_BIASES = {"epsilon": 0.9, "distinguishability": 0.085}


@dataclass(frozen=True)
class PhysicalNoiseParams:
    """The noise intensity p and the two error parameters derived from it."""

    p: float
    epsilon: float
    distinguishability: float

    def __post_init__(self):
        real_fields(self, ("p", "epsilon", "distinguishability"), 0, below=1)


def derive_noise_params(p: float) -> PhysicalNoiseParams:
    """Scale the two physical error parameters off the overall intensity p.

    epsilon = 0.9 p and distinguishability = 0.085 p.  p is checked before it
    is scaled; both biases are below 1, so each lies in [0, 1) when p does.
    """
    p = real(p, "p", 0, below=1)
    return PhysicalNoiseParams(p, DEFAULT_BIASES["epsilon"] * p,
                               DEFAULT_BIASES["distinguishability"] * p)


@dataclass(frozen=True)
class TimingModel:
    """Syndrome round time in nanoseconds, plus the decode reaction time.

    ``reaction_rounds`` is the reaction time expressed in whole syndrome
    extraction rounds, which is the unit the synthesis cost model uses (this
    reproduces the integer ratio 33/102 rather than the raw 10000/31110).
    """

    syndrome_round_ns: float = 305.0
    reaction_us: float = 10.0

    reaction_rounds: int = field(init=False)

    def __post_init__(self):
        real_fields(self, ("syndrome_round_ns", "reaction_us"), above=0)
        try:
            rounds = round(self.reaction_us * 1000.0 / self.syndrome_round_ns)
        except OverflowError:  # the ratio is beyond any float
            raise InvalidParameterError(
                f"reaction_us={self.reaction_us!r} must be a finite number of "
                f"syndrome_round_ns={self.syndrome_round_ns!r} rounds") from None
        object.__setattr__(self, "reaction_rounds", rounds)

    def logical_cycle_ns(self, rounds_per_cycle: int) -> float:
        """Duration of one lattice surgery cube, in nanoseconds."""
        return integer(rounds_per_cycle, "rounds_per_cycle") * self.syndrome_round_ns

    def reaction_ratio(self, rounds_per_cycle: int) -> float:
        """Decode latency as a fraction of the logical cycle."""
        return self.reaction_rounds / integer(rounds_per_cycle, "rounds_per_cycle")


DEFAULT_TIMING = TimingModel()


def logical_cycle_time(rounds_per_cycle: int) -> float:
    """Logical cycle time in nanoseconds for the given rounds per cube, at the default timing."""
    return DEFAULT_TIMING.logical_cycle_ns(rounds_per_cycle)
