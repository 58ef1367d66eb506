"""Physical noise parameters, heralded Pauli channels, and the RUS outcome model.

All closed forms follow the heralded repeat-until-success (RUS) gate model of
the photonic spin-qubit architecture: per cycle the two emitted photons either
produce a success, a repeat, a single loss, or a double loss, and the capped
protocol's outcome categories carry known Pauli channels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidParameterError

#: Default relative weights of the four error mechanisms versus the overall
#: noise intensity p.
DEFAULT_BIASES = {
    "epsilon": 0.9,
    "distinguishability": 0.085,
    "idle_ratio": 0.01,
    "gate_infidelity": 0.005,
}

#: Exact integer binomial coefficients are used up to this N; beyond it the
#: binomial sums switch to log-space accumulation.
_EXACT_BINOMIAL_LIMIT = 64

PROB_ATOL = 1e-12

#: Letter of the product of two Pauli letters, phase dropped: with
#: X = 01, Z = 10 and Y = 11 as (z, x) bits, multiplying XORs the bits.
_LETTER_PRODUCTS = {
    (a, b): "IXZY"["IXZY".index(a) ^ "IXZY".index(b)] for a in "IXYZ" for b in "IXYZ"
}


@dataclass(frozen=True)
class AttemptCaps:
    """Maximum attempt count of the capped RUS protocols."""

    n_rus: int = 10

    def __post_init__(self):
        if isinstance(self.n_rus, bool) or not (isinstance(self.n_rus, int) and self.n_rus >= 1):
            raise InvalidParameterError(f"n_rus={self.n_rus} must be an integer >= 1")


@dataclass(frozen=True)
class PhysicalNoiseParams:
    """The four derived physical error parameters.

    ``gate_infidelity`` is the single-qubit depolarizing probability; the
    source material reuses the symbol of the RUS success probability for it,
    so it is renamed here to avoid the collision.
    """

    p: float
    epsilon: float
    distinguishability: float
    idle_ratio: float
    gate_infidelity: float

    def __post_init__(self):
        for name in ("p", "epsilon", "distinguishability", "idle_ratio", "gate_infidelity"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise InvalidParameterError(f"{name}={v} must lie in [0, 1)")


@dataclass(frozen=True)
class CycleOutcomeDistribution:
    """Per-cycle outcome probabilities of one RUS attempt."""

    p_success: float
    p_repeat_indist: float
    p_repeat_dist: float
    p_one_loss: float
    p_two_loss: float

    @property
    def p_repeat(self) -> float:
        return self.p_repeat_indist + self.p_repeat_dist

    def __post_init__(self):
        vals = (self.p_success, self.p_repeat_indist, self.p_repeat_dist,
                self.p_one_loss, self.p_two_loss)
        if any(v < -PROB_ATOL for v in vals):
            raise InvalidParameterError("cycle outcome probabilities must be nonnegative")
        if abs(sum(vals) - 1.0) > PROB_ATOL:
            raise InvalidParameterError("cycle outcome probabilities must sum to 1")


@dataclass(frozen=True)
class PauliChannel:
    """A probability-weighted mixture of Pauli super-operators.

    ``terms`` maps Pauli labels (one letter per qubit, e.g. ``"ZZ"``) to
    weights.  ``classical_flip_weight``, when set, is the probability of
    flipping an attached classical measurement record; the quantum terms
    always sum to 1 on their own.
    """

    arity: int
    terms: tuple[tuple[str, float], ...]
    classical_flip_weight: Optional[float] = None

    def __post_init__(self):
        for label, w in self.terms:
            if len(label) != self.arity or any(c not in "IXYZ" for c in label):
                raise InvalidParameterError(f"bad Pauli label {label!r} for arity {self.arity}")
            if w < -PROB_ATOL:
                raise InvalidParameterError(f"negative weight {w} on {label!r}")
        if abs(self.total_weight() - 1.0) > PROB_ATOL:
            raise InvalidParameterError("channel weights must sum to 1")
        if self.classical_flip_weight is not None and not 0.0 <= self.classical_flip_weight <= 1.0:
            raise InvalidParameterError("classical flip weight must lie in [0, 1]")

    def total_weight(self) -> float:
        return sum(w for _, w in self.terms)

    def weight(self, label: str) -> float:
        return dict(self.terms).get(label, 0.0)

    def compose(self, other: "PauliChannel") -> "PauliChannel":
        """Super-operator composition of two Pauli mixtures on the same qubits.

        Pauli super-operators satisfy [P][Q] = [PQ] with phases dropping out,
        so composition is a convolution of the weights over letterwise
        products.
        """
        if self.arity != other.arity:
            raise InvalidParameterError("cannot compose channels of different arity")
        out: dict[str, float] = {}
        for la, wa in self.terms:
            for lb, wb in other.terms:
                label = "".join(_LETTER_PRODUCTS[a, b] for a, b in zip(la, lb))
                out[label] = out.get(label, 0.0) + wa * wb
        flip = None
        if self.classical_flip_weight is not None or other.classical_flip_weight is not None:
            fa = self.classical_flip_weight or 0.0
            fb = other.classical_flip_weight or 0.0
            # record flips compose like independent bit flips
            flip = fa * (1 - fb) + fb * (1 - fa)
        return PauliChannel(self.arity, tuple(sorted(out.items())), flip)

    def is_close(self, other: "PauliChannel", atol: float = PROB_ATOL) -> bool:
        labels = {l for l, _ in self.terms} | {l for l, _ in other.terms}
        if any(abs(self.weight(l) - other.weight(l)) > atol for l in labels):
            return False
        fa = self.classical_flip_weight or 0.0
        fb = other.classical_flip_weight or 0.0
        return abs(fa - fb) <= atol


@dataclass(frozen=True)
class HeraldedOutcome:
    label: str
    probability: float
    channel: Optional[PauliChannel]


@dataclass(frozen=True)
class HeraldedOutcomeDistribution:
    """Outcome categories of a capped RUS protocol with attached channels.

    ``trials`` is set on empirical (Monte-Carlo) distributions and left None
    on closed-form ones.
    """

    outcomes: tuple[HeraldedOutcome, ...]
    trials: Optional[int] = None

    def __post_init__(self):
        if any(o.probability < -PROB_ATOL for o in self.outcomes):
            raise InvalidParameterError("outcome probabilities must be nonnegative")
        if abs(self.total() - 1.0) > PROB_ATOL:
            raise InvalidParameterError("outcome probabilities must sum to 1")

    def total(self) -> float:
        return sum(o.probability for o in self.outcomes)

    def probability(self, label: str) -> float:
        for o in self.outcomes:
            if o.label == label:
                return o.probability
        return 0.0

    def labels(self) -> list[str]:
        return [o.label for o in self.outcomes]


def derive_noise_params(p: float, bias_overrides: Optional[dict] = None) -> PhysicalNoiseParams:
    """Scale the four physical error parameters off the overall intensity p.

    Defaults: epsilon = 0.9 p, distinguishability = 0.085 p,
    idle_ratio = 0.01 p, gate_infidelity = 0.005 p.
    """
    if not 0.0 <= p < 1.0:
        raise InvalidParameterError(f"p={p} must lie in [0, 1)")
    biases = dict(DEFAULT_BIASES)
    if bias_overrides:
        unknown = set(bias_overrides) - set(biases)
        if unknown:
            raise InvalidParameterError(f"unknown bias keys: {sorted(unknown)}")
        biases.update(bias_overrides)
    if any(b < 0 for b in biases.values()):
        raise InvalidParameterError("biases must be nonnegative")
    derived = {k: b * p for k, b in biases.items()}
    if any(v >= 1.0 for v in derived.values()):
        raise InvalidParameterError("a derived error parameter reached 1")
    return PhysicalNoiseParams(p=p, **derived)


def cycle_outcome_distribution(epsilon: float, distinguishability: float) -> CycleOutcomeDistribution:
    """Closed-form per-cycle RUS outcome probabilities."""
    if not 0.0 <= epsilon < 1.0:
        raise InvalidParameterError(f"epsilon={epsilon} must lie in [0, 1)")
    if not 0.0 <= distinguishability < 1.0:
        raise InvalidParameterError(f"distinguishability={distinguishability} must lie in [0, 1)")
    eta2 = (1.0 - epsilon) ** 2
    return CycleOutcomeDistribution(
        p_success=eta2 / 2.0,
        p_repeat_indist=(2.0 - distinguishability) * eta2 / 4.0,
        p_repeat_dist=distinguishability * eta2 / 4.0,
        p_one_loss=2.0 * epsilon * (1.0 - epsilon),
        p_two_loss=epsilon**2,
    )


# -- channel constructors -----------------------------------------------------

def phase_erasure_channel(qubit: int = 0, arity: int = 2) -> PauliChannel:
    """([I] + [Z_qubit]) / 2 on one of ``arity`` qubits."""
    z = "".join("Z" if i == qubit else "I" for i in range(arity))
    return PauliChannel(arity, (("I" * arity, 0.5), (z, 0.5)))


def loss_channel(k) -> PauliChannel:
    """k-fold composition of the single-photon-loss channel on an emitter pair.

    Weights (1/4 + 2^-(k+1)) on II, 1/4 on each single Z, (1/4 - 2^-(k+1)) on
    ZZ; ``k=math.inf`` gives the uniform two-qubit dephasing mixture.
    """
    if k == math.inf:
        return PauliChannel(2, (("II", 0.25), ("ZI", 0.25), ("IZ", 0.25), ("ZZ", 0.25)))
    if not (isinstance(k, int) and k >= 1):
        raise InvalidParameterError(f"k={k} must be a positive integer or math.inf")
    half_pow = 0.5 ** (k + 1)
    return PauliChannel(2, (
        ("II", 0.25 + half_pow),
        ("ZI", 0.25),
        ("IZ", 0.25),
        ("ZZ", 0.25 - half_pow),
    ))


def distinguishability_cz_channel(distinguishability: float) -> PauliChannel:
    """Residual channel of a successful RUS-CZ with partially distinguishable photons."""
    d = distinguishability
    return PauliChannel(2, (("II", (1.0 + d) / 2.0), ("ZZ", (1.0 - d) / 2.0)))


def distinguishability_mzz_channel(distinguishability: float) -> PauliChannel:
    """Classical record flip of a successful RUS-MZZ; quantum part is identity."""
    d = distinguishability
    return PauliChannel(2, (("II", 1.0),), classical_flip_weight=(1.0 - d) / 2.0)


def idle_channel(t: float, t2: float) -> PauliChannel:
    """Dephasing after idling for time t with decoherence time t2."""
    if t < 0 or t2 <= 0:
        raise InvalidParameterError("idle_channel needs t >= 0 and t2 > 0")
    p_d = (1.0 - math.exp(-t / t2)) / 2.0
    return PauliChannel(1, (("I", 1.0 - p_d), ("Z", p_d)))


def single_qubit_gate_channel(gate_infidelity: float) -> PauliChannel:
    """Depolarizing channel with total error probability ``gate_infidelity``."""
    p = gate_infidelity
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"gate_infidelity={p} must lie in [0, 1]")
    return PauliChannel(1, (("I", 1.0 - p), ("X", p / 3.0), ("Y", p / 3.0), ("Z", p / 3.0)))


def init_measure_outcomes(epsilon: float, attempts: int, kind: str = "init"):
    """Success probability and failure channel of capped init / measure.

    Both succeed unless every attempt loses its photon.  A failed init leaves
    the spin fully depolarized; a failed measurement erases the record.
    """
    if not 0.0 <= epsilon < 1.0:
        raise InvalidParameterError(f"epsilon={epsilon} must lie in [0, 1)")
    if not (isinstance(attempts, int) and attempts >= 1):
        raise InvalidParameterError(f"attempts={attempts} must be an integer >= 1")
    success = 1.0 - epsilon**attempts
    if kind == "init":
        failure = PauliChannel(1, (("I", 0.25), ("X", 0.25), ("Y", 0.25), ("Z", 0.25)))
    elif kind == "measure":
        failure = PauliChannel(1, (("I", 1.0),), classical_flip_weight=0.5)
    else:
        raise InvalidParameterError(f"kind must be 'init' or 'measure', got {kind!r}")
    return success, failure


# -- heralded protocol distributions ------------------------------------------

def _binomial_loss_sum(k: int, n: int, p1: float, pr: float) -> float:
    """sum_{t=1}^{n} C(t-1, k) p1^k pr^(t-1-k)."""
    if n <= _EXACT_BINOMIAL_LIMIT:
        return sum(
            math.comb(t - 1, k) * p1**k * pr ** (t - 1 - k)
            for t in range(k + 1, n + 1)
        )
    # overflow-safe accumulation for very large caps
    if p1 == 0.0:
        return 0.0
    total = 0.0
    log_p1k = k * math.log(p1)
    log_pr = math.log(pr) if pr > 0.0 else None
    for t in range(k + 1, n + 1):
        log_c = math.lgamma(t) - math.lgamma(k + 1) - math.lgamma(t - k)
        if t - 1 - k == 0:
            total += math.exp(log_c + log_p1k)
        elif log_pr is not None:
            total += math.exp(log_c + log_p1k + (t - 1 - k) * log_pr)
    return total


CZ_PURE_SUCCESS = "pure_success"
CZ_FAILURE = "failure"
CZ_ABORT = "abort"
MZZ_PURE_SUCCESS = "pure_success"
MZZ_LOSS_SUCCESS = "success_with_loss"
MZZ_ABORT = "abort"


def cz_loss_label(k: int) -> str:
    return f"success_with_{k}_losses"


def heralded_cz_distribution(params: PhysicalNoiseParams, caps: AttemptCaps) -> HeraldedOutcomeDistribution:
    """Outcome categories of the capped RUS-CZ with attached channels.

    Success after k single-loss cycles composes the k-fold loss channel with
    the distinguishability channel; a double loss (failure) or running out of
    attempts (abort) fully dephases both spins.
    """
    cyc = cycle_outcome_distribution(params.epsilon, params.distinguishability)
    n = caps.n_rus
    ps, pr, p1, p2 = cyc.p_success, cyc.p_repeat, cyc.p_one_loss, cyc.p_two_loss
    d = params.distinguishability

    p0 = ps * (1.0 - pr**n) / (1.0 - pr)
    pa = (pr + p1) ** n
    if p2 == 0.0:
        pf = 0.0  # the quotient is 0/0-prone at epsilon = 0; the limit is 0
    else:
        pf = p2 * (1.0 - (pr + p1) ** n) / (1.0 - pr - p1)

    dist_cz = distinguishability_cz_channel(d)
    full_dephase = loss_channel(math.inf)
    outcomes = [HeraldedOutcome(CZ_PURE_SUCCESS, p0, dist_cz)]
    for k in range(1, n):
        pk = ps * _binomial_loss_sum(k, n, p1, pr)
        outcomes.append(HeraldedOutcome(cz_loss_label(k), pk, dist_cz.compose(loss_channel(k))))
    outcomes.append(HeraldedOutcome(CZ_FAILURE, pf, full_dephase))
    outcomes.append(HeraldedOutcome(CZ_ABORT, pa, full_dephase))
    return HeraldedOutcomeDistribution(tuple(outcomes))


def heralded_mzz_distribution(params: PhysicalNoiseParams, caps: AttemptCaps) -> HeraldedOutcomeDistribution:
    """Outcome categories of the capped RUS-MZZ parity measurement.

    A loss before eventual success dephases one spin (the first, by
    convention); an abort dephases one spin and erases the record.
    """
    cyc = cycle_outcome_distribution(params.epsilon, params.distinguishability)
    n = caps.n_rus
    ps, pr = cyc.p_success, cyc.p_repeat
    d = params.distinguishability

    q0 = ps * (1.0 - pr**n) / (1.0 - pr)
    qa = (1.0 - ps) ** n
    qe = 1.0 - qa - q0

    erasure = phase_erasure_channel(qubit=0, arity=2)
    dist_mzz = distinguishability_mzz_channel(d)
    abort_channel = PauliChannel(2, erasure.terms, classical_flip_weight=0.5)
    return HeraldedOutcomeDistribution((
        HeraldedOutcome(MZZ_PURE_SUCCESS, q0, dist_mzz),
        HeraldedOutcome(MZZ_LOSS_SUCCESS, qe, erasure.compose(dist_mzz)),
        HeraldedOutcome(MZZ_ABORT, qa, abort_channel),
    ))


# -- Monte-Carlo oracle --------------------------------------------------------

#: Rows of one stream drawn and classified at a time.  PCG64 fills consecutive
#: draws from one sequence, so drawing a stream block by block gives the same
#: uniforms as one draw of all its rows: the block size bounds memory and
#: cannot change a count.
_BLOCK_ROWS = 1 << 15


def mc_rus_oracle(
    cycle_dist: CycleOutcomeDistribution,
    caps: AttemptCaps,
    trials: int,
    seed: int,
    kind: str = "cz",
    streams: int = 8,
) -> HeraldedOutcomeDistribution:
    """Sample RUS cycle histories and classify them into heralded categories.

    The draw contract: ``SeedSequence(seed).spawn(streams)`` seeds one PCG64
    per stream; stream i takes ``trials // streams`` trials, plus one when
    i < ``trials % streams``, and draws them as row-major
    ``(chunk, caps.n_rus)`` float64 uniforms, trial j of the stream using its
    j-th row and cycle c its c-th column.  A uniform u is a success when
    u < p_success, a repeat when u < p_success + p_repeat, a single loss when
    u < p_success + p_repeat + p_one_loss, and a double loss otherwise.  The
    per-stream counts are summed, so a parallel execution of the same
    partition would reproduce the serial result bit-for-bit.

    Each stream is drawn and classified in blocks of ``_BLOCK_ROWS`` rows.
    Consecutive blocks continue the stream's PCG64 sequence, so the counts
    are those of one draw of the whole stream, whatever the block size, and
    peak memory is bounded by ``_BLOCK_ROWS * n_rus * 8`` bytes rather than
    growing with ``trials``.
    """
    import numpy as np

    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise InvalidParameterError(f"trials={trials!r} must be an integer >= 1")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidParameterError(f"seed={seed!r} must be a non-negative integer")
    if isinstance(streams, bool) or not isinstance(streams, numbers.Integral) or streams < 1:
        raise InvalidParameterError(f"streams={streams!r} must be an integer >= 1")
    if kind not in ("cz", "mzz"):
        raise InvalidParameterError(f"kind must be 'cz' or 'mzz', got {kind!r}")

    n = caps.n_rus
    # upper edges of the success, repeat and single-loss bins; the residual
    # mass above the last edge is the double loss, so float rounding in the
    # cumulative sum cannot produce an out-of-range draw
    edges = np.cumsum([
        cycle_dist.p_success,
        cycle_dist.p_repeat,
        cycle_dist.p_one_loss,
    ])
    labels = _category_labels(kind, n)
    counts = np.zeros(len(labels), dtype=np.int64)
    children = np.random.SeedSequence(seed).spawn(streams)
    base, extra = divmod(trials, streams)
    for i, child in enumerate(children):
        chunk = base + (1 if i < extra else 0)
        rng = np.random.Generator(np.random.PCG64(child))
        for start in range(0, chunk, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, chunk - start)
            counts += _classify(rng.random((rows, n)), edges, kind)

    outcomes = tuple(
        HeraldedOutcome(label, int(count) / trials, None)
        for label, count in zip(labels, counts)
    )
    return HeraldedOutcomeDistribution(outcomes, trials=trials)


def _category_labels(kind: str, n: int) -> list[str]:
    if kind == "cz":
        return ([CZ_PURE_SUCCESS] + [cz_loss_label(k) for k in range(1, n)]
                + [CZ_FAILURE, CZ_ABORT])
    return [MZZ_PURE_SUCCESS, MZZ_LOSS_SUCCESS, MZZ_ABORT]


def _classify(draws: np.ndarray, edges: np.ndarray, kind: str) -> np.ndarray:
    """Category counts of one block of trials, in ``_category_labels`` order.

    Walks the cycles column by column and compares each only for the trials
    still running, so a trial costs the cycles it runs, not ``n_rus``.
    """
    import numpy as np

    rows, n = draws.shape
    success_edge, repeat_edge, one_loss_edge = edges
    cz = kind == "cz"
    counts = np.zeros(n + 2 if cz else 3, dtype=np.int64)
    running = np.arange(rows)
    # cz: single losses so far; mzz: whether any loss came so far
    history = np.zeros(rows, dtype=np.intp if cz else bool)
    for cycle in range(n):
        draw = draws[running, cycle]
        success = draw < success_edge
        if cz:
            # a double loss stops the protocol as a failure; a success is
            # binned by the number of single losses before it (the sum below
            # also counts double losses, but those trials stop here)
            failure = draw >= one_loss_edge
            counts[n] += np.count_nonzero(failure)
            counts[:n] += np.bincount(history[success], minlength=n)
            history += draw >= repeat_edge
            stop = success | failure
        else:
            # losses never stop the parity measurement; only success does
            history |= draw >= repeat_edge
            lossy = np.count_nonzero(success & history)
            counts[0] += np.count_nonzero(success) - lossy
            counts[1] += lossy
            stop = success
        keep = np.flatnonzero(~stop)
        running = running[keep]
        history = history[keep]
        if running.size == 0:
            break
    counts[-1] = running.size  # abort: no success within n_rus cycles
    return counts


def binomial_sigma(p: float, trials: int) -> float:
    """One binomial standard deviation of an empirical frequency."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)
