"""Syndrome round and reaction timings, and logical-clock quantities."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParameterError


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
        if min(self.syndrome_round_ns, self.reaction_us) <= 0:
            raise InvalidParameterError("timings must be positive")
        object.__setattr__(
            self, "reaction_rounds",
            round(self.reaction_us * 1000.0 / self.syndrome_round_ns),
        )

    def logical_cycle_ns(self, rounds_per_cycle: int) -> float:
        """Duration of one lattice surgery cube, in nanoseconds."""
        if rounds_per_cycle < 1:
            raise InvalidParameterError("rounds_per_cycle must be >= 1")
        return rounds_per_cycle * self.syndrome_round_ns

    def reaction_ratio(self, rounds_per_cycle: int) -> float:
        """Decode latency as a fraction of the logical cycle."""
        if rounds_per_cycle < 1:
            raise InvalidParameterError("rounds_per_cycle must be >= 1")
        return self.reaction_rounds / rounds_per_cycle


DEFAULT_TIMING = TimingModel()


def logical_cycle_time(rounds_per_cycle: int, timing: TimingModel = DEFAULT_TIMING) -> float:
    """Logical cycle time in nanoseconds for the given rounds per cube."""
    return timing.logical_cycle_ns(rounds_per_cycle)
