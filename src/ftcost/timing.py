"""Physical operation timings and logical-clock quantities."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParameterError


@dataclass(frozen=True)
class AttemptCaps:
    """Maximum attempt counts for the capped protocols."""

    n_rus: int = 10
    n_init: int = 5
    n_measure: int = 5

    def __post_init__(self):
        for name in ("n_rus", "n_init", "n_measure"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, int) and v >= 1):
                raise InvalidParameterError(f"{name}={v} must be an integer >= 1")


@dataclass(frozen=True)
class TimingModel:
    """Operation times in nanoseconds, plus the decode reaction time.

    ``init_time_ns``, ``measure_time_ns`` and ``rus_gate_ns`` are the
    matching attempt cap of ``caps`` times the RUS cycle time;
    ``reaction_rounds`` is the reaction time expressed in whole syndrome
    extraction rounds, which is the unit the synthesis cost model uses (this
    reproduces the integer ratio 33/102 rather than the raw 10000/31110).
    """

    single_qubit_ns: float = 5.0
    rus_cycle_ns: float = 30.0
    syndrome_round_ns: float = 305.0
    reaction_us: float = 10.0
    caps: AttemptCaps = AttemptCaps()

    init_time_ns: float = field(init=False)
    measure_time_ns: float = field(init=False)
    rus_gate_ns: float = field(init=False)
    reaction_rounds: int = field(init=False)

    def __post_init__(self):
        if min(self.single_qubit_ns, self.rus_cycle_ns, self.syndrome_round_ns,
               self.reaction_us) <= 0:
            raise InvalidParameterError("timings must be positive")
        object.__setattr__(self, "init_time_ns", self.caps.n_init * self.rus_cycle_ns)
        object.__setattr__(self, "measure_time_ns", self.caps.n_measure * self.rus_cycle_ns)
        object.__setattr__(self, "rus_gate_ns", self.caps.n_rus * self.rus_cycle_ns)
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
