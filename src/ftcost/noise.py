"""The RUS outcome model, its closed forms and its Monte-Carlo oracle.

All closed forms follow the heralded repeat-until-success (RUS) gate model of
the photonic spin-qubit architecture: per cycle the two emitted photons either
produce a success, a repeat, a single loss, or a double loss, and the capped
protocol ends in one of a few heralded outcome categories, whose
probabilities the closed forms give and the Monte-Carlo oracle samples.
The physical noise parameters live in ``timing``, which the estimate loads
without this module; they are re-exported here.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

from .errors import DEFAULT_N_RUS, InvalidParameterError, Record, integer, real
from .timing import DEFAULT_BIASES, PhysicalNoiseParams, derive_noise_params  # noqa: F401

#: Tolerance of the probability checks.  They are written as
#: ``not x <= PROB_ATOL`` rather than ``x > PROB_ATOL`` so that a NaN fails them.
PROB_ATOL = 1e-12


class AttemptCaps(Record):
    """Maximum attempt count of the capped RUS protocols."""

    n_rus: int = DEFAULT_N_RUS

    def __init__(self, n_rus=n_rus):
        object.__setattr__(self, "n_rus", integer(n_rus, "n_rus"))


class CycleOutcomeDistribution(Record):
    """Per-cycle outcome probabilities of one RUS attempt."""

    p_success: float
    p_repeat: float
    p_one_loss: float
    p_two_loss: float

    def __init__(self, p_success, p_repeat, p_one_loss, p_two_loss):
        vals = (p_success, p_repeat, p_one_loss, p_two_loss)
        if any(not v >= -PROB_ATOL for v in vals):
            raise InvalidParameterError("cycle outcome probabilities must be nonnegative")
        if not abs(sum(vals) - 1.0) <= PROB_ATOL:
            raise InvalidParameterError("cycle outcome probabilities must sum to 1")
        for name, value in zip(self._fields, vals):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)  # not a Record: bench/test_checkers.py calls dataclasses.replace on it
class HeraldedOutcome:
    label: str
    probability: float
    channel: None = None  # always None: bench/test_checkers.py still passes it positionally


@dataclass(frozen=True)  # not a Record, for the same reason
class HeraldedOutcomeDistribution:
    """Outcome categories of a capped RUS protocol and their probabilities.

    ``trials`` is set on empirical (Monte-Carlo) distributions and left None
    on closed-form ones.
    """

    outcomes: tuple[HeraldedOutcome, ...]
    trials: Optional[int] = None

    def __post_init__(self):
        if any(not o.probability >= -PROB_ATOL for o in self.outcomes):
            raise InvalidParameterError("outcome probabilities must be nonnegative")
        if not abs(self.total() - 1.0) <= PROB_ATOL:
            raise InvalidParameterError("outcome probabilities must sum to 1")

    def total(self) -> float:
        return sum(o.probability for o in self.outcomes)

    def probability(self, label: str) -> float:
        for o in self.outcomes:
            if o.label == label:
                return o.probability
        raise InvalidParameterError(
            f"label={label!r} must be one of {' | '.join(o.label for o in self.outcomes)}")


def cycle_outcome_distribution(epsilon: float, distinguishability: float) -> CycleOutcomeDistribution:
    """Closed-form per-cycle RUS outcome probabilities; ``distinguishability``
    is checked, in [0, 1), but the repeat probability eta^2 / 2 does not depend on it."""
    epsilon = real(epsilon, "epsilon", 0, below=1)
    real(distinguishability, "distinguishability", 0, below=1)
    eta2 = (1.0 - epsilon) ** 2
    return CycleOutcomeDistribution(
        p_success=eta2 / 2.0,
        p_repeat=eta2 / 2.0,
        p_one_loss=2.0 * epsilon * (1.0 - epsilon),
        p_two_loss=epsilon**2,
    )


# -- heralded protocol distributions ------------------------------------------

def _binomial_loss_sum(k: int, n: int, p1: float, pr: float) -> float:
    """sum_{t=k+1}^{n} C(t-1, k) p1^k pr^(t-1-k).

    Each term is the last times pr (t-1) / (t-1-k), so no binomial
    coefficient is formed and no term overflows at any cap.
    """
    term = total = p1**k
    for t in range(k + 2, n + 1):
        term *= pr * (t - 1) / (t - 1 - k)
        total += term
    return total


def _category_labels(kind: str, n: int) -> list[str]:
    """The outcome categories of ``kind`` at the cap ``n``: the one order of
    the closed forms, the Monte-Carlo counts and their distributions."""
    if kind == "cz":
        return (["pure_success"] + [f"success_with_{k}_losses" for k in range(1, n)]
                + ["failure", "abort"])
    return ["pure_success", "success_with_loss", "abort"]


def _distribution(kind: str, n: int, probabilities,
                  trials: Optional[int] = None) -> HeraldedOutcomeDistribution:
    """``probabilities`` in ``_category_labels(kind, n)`` order as a distribution."""
    return HeraldedOutcomeDistribution(
        tuple(map(HeraldedOutcome, _category_labels(kind, n), probabilities)), trials)


def heralded_cz_distribution(params: PhysicalNoiseParams, caps: AttemptCaps) -> HeraldedOutcomeDistribution:
    """Outcome probabilities of the capped RUS-CZ.

    The gate succeeds after k single-loss cycles (k = 0 is a pure success),
    fails on a double loss, or aborts when it runs out of attempts.
    """
    cyc = cycle_outcome_distribution(params.epsilon, params.distinguishability)
    n = caps.n_rus
    ps, pr, p1, p2 = cyc.p_success, cyc.p_repeat, cyc.p_one_loss, cyc.p_two_loss

    p0 = ps * (1.0 - pr**n) / (1.0 - pr)
    pa = (pr + p1) ** n
    # 1 - pr - p1 = ps + p2 >= 1/3 for every epsilon in [0, 1), so the
    # quotient is defined everywhere and gives 0 at p2 = 0
    pf = p2 * (1.0 - (pr + p1) ** n) / (1.0 - pr - p1)
    losses = [ps * _binomial_loss_sum(k, n, p1, pr) for k in range(1, n)]
    return _distribution("cz", n, [p0, *losses, pf, pa])


def heralded_mzz_distribution(params: PhysicalNoiseParams, caps: AttemptCaps) -> HeraldedOutcomeDistribution:
    """Outcome probabilities of the capped RUS-MZZ parity measurement.

    The measurement succeeds with no loss, succeeds after at least one loss,
    or aborts when it runs out of attempts.
    """
    cyc = cycle_outcome_distribution(params.epsilon, params.distinguishability)
    n = caps.n_rus
    ps, pr = cyc.p_success, cyc.p_repeat

    q0 = ps * (1.0 - pr**n) / (1.0 - pr)
    qa = (1.0 - ps) ** n
    return _distribution("mzz", n, (q0, 1.0 - qa - q0, qa))


# -- Monte-Carlo oracle --------------------------------------------------------

#: Rows drawn and classified at a time, summed over all worker threads, for
#: ``n_rus`` up to 32: each of ``w`` workers draws ``_BLOCK_ROWS // w`` rows of
#: a stream at a time.  PCG64 fills consecutive draws from one sequence, so
#: drawing a stream block by block gives the same uniforms as one draw of all
#: its rows: the block size bounds memory and cannot change a count.
_BLOCK_ROWS = 1 << 15

#: Uniforms in flight at once, summed over all worker threads, whatever
#: ``n_rus`` is: 32 cycles of ``_BLOCK_ROWS`` rows, 8 MiB of float64.  Wider
#: trials are drawn in blocks of fewer rows.
_BLOCK_UNIFORMS = _BLOCK_ROWS * 32

#: The oracle's thread pool as ``(workers, pid, pool)``, made on first use and
#: kept while the worker count stays the same.  The pid makes a forked child,
#: which has none of the parent's threads, start its own.
_pool = None
_pool_lock = threading.Lock()


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    u < p_success + p_repeat + p_one_loss, and a double loss otherwise.

    The streams run on ``min(streams, available CPUs)`` threads of one pool
    kept between calls; worker w takes streams w, w + workers, ... whole and
    sums their integer counts, and the workers' sums are added.  Integer sums
    do not depend on their order, so the counts are those of a serial walk
    over the streams, bit-for-bit, whatever the number of CPUs.

    Each worker draws and classifies its streams in blocks of rows, into one
    float64 buffer allocated per call.  The buffers of all workers together
    hold at most ``_BLOCK_UNIFORMS`` uniforms (8 MiB), however large
    ``trials`` or ``n_rus`` is: ``_BLOCK_ROWS // workers`` rows each up to
    ``n_rus = 32``, fewer rows for wider trials, and fewer workers when one
    row each would not fit.  An ``n_rus`` above ``_BLOCK_UNIFORMS``, where one
    row alone would not fit, is rejected.  Consecutive blocks continue the
    stream's PCG64 sequence, so the counts are those of one draw of the whole
    stream, whatever the block size.

    ``kind`` does not enter the draw, so one walk over the uniforms
    classifies every trial for both kinds at once, and the counts of the last
    (cycle_dist, n_rus, trials, seed, streams) are kept: asking for ``cz``
    and then ``mzz`` at one key draws once.  A caller that wants one kind
    still pays for classifying both.
    """
    trials = integer(trials, "trials")
    seed = integer(seed, "seed", 0, rule="a non-negative integer")
    streams = integer(streams, "streams")
    if kind not in ("cz", "mzz"):
        raise InvalidParameterError(f"kind={kind!r} must be one of cz | mzz")
    if caps.n_rus > _BLOCK_UNIFORMS:
        raise InvalidParameterError(
            f"n_rus={caps.n_rus} must be <= {_BLOCK_UNIFORMS}, the uniforms the "
            "Monte-Carlo oracle holds at once")

    cz, mzz = _mc_counts(cycle_dist, caps.n_rus, trials, seed, streams)
    counts = cz if kind == "cz" else mzz
    return _distribution(kind, caps.n_rus, [count / trials for count in counts], trials)


@functools.lru_cache(maxsize=1)
def _mc_counts(
    cycle_dist: CycleOutcomeDistribution, n_rus: int, trials: int, seed: int, streams: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cz and mzz counts of one seeded draw, in ``_category_labels`` order.

    One entry is enough: every caller asks for both kinds at one key in a row.
    """
    global _pool

    import numpy as np

    # upper edges of the success, repeat and single-loss bins; the residual
    # mass above the last edge is the double loss, so float rounding in the
    # cumulative sum cannot produce an out-of-range draw
    edges = np.cumsum([
        cycle_dist.p_success,
        cycle_dist.p_repeat,
        cycle_dist.p_one_loss,
    ])
    children = np.random.SeedSequence(seed).spawn(streams)
    base, extra = divmod(trials, streams)
    # rows in flight, all workers together; at least one row each
    rows = min(_BLOCK_ROWS, _BLOCK_UNIFORMS // n_rus)
    workers = min(streams, _available_cpus(), rows)
    # allocated here, not in the workers, so that the threads' own malloc
    # arenas never hold a block of uniforms
    block_rows = min(rows // workers, base + (extra > 0))
    buffers = [np.empty((block_rows, n_rus)) for _ in range(workers)]

    def walk(worker: int) -> tuple[np.ndarray, np.ndarray]:
        buffer = buffers[worker]
        cz = np.zeros(n_rus + 2, dtype=np.int64)
        mzz = np.zeros(3, dtype=np.int64)
        for i in range(worker, streams, workers):
            chunk = base + (1 if i < extra else 0)
            rng = np.random.Generator(np.random.PCG64(children[i]))
            for start in range(0, chunk, block_rows):
                draws = buffer[:min(block_rows, chunk - start)]
                rng.random(out=draws)
                block_cz, block_mzz = _classify(draws, edges)
                cz += block_cz
                mzz += block_mzz
        return cz, mzz

    # numpy's PCG64 fill releases the GIL, so one worker draws while another
    # classifies (two threads classify no faster than one); the lock keeps a
    # caller with another worker count from shutting the pool down between
    # this one's submits
    with _pool_lock:
        if _pool is None or _pool[:2] != (workers, os.getpid()):
            from concurrent.futures import ThreadPoolExecutor

            if _pool is not None:
                _pool[2].shutdown()
            _pool = (workers, os.getpid(), ThreadPoolExecutor(max_workers=workers))
        futures = [_pool[2].submit(walk, w) for w in range(workers)]
    sums = [future.result() for future in futures]
    cz, mzz = (sum(parts) for parts in zip(*sums))
    return tuple(cz.tolist()), tuple(mzz.tolist())


def _classify(draws: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cz and mzz counts of one block of trials, in ``_category_labels`` order.

    Walks the cycles column by column over the trials still running, so a
    trial costs the cycles it runs, not ``n``.  Each running trial carries one
    integer state: its count of draws at or above the repeat edge (single and
    double losses), plus ``n + 1`` for each double loss.  A trial stops at its
    first success: only a success stops the parity measurement, so it runs on
    after a double loss.  At a success its loss count is at most ``n - 1``,
    so a state below ``n`` is a success after that many single losses and
    nothing else, and a state above ``n`` a success after a double loss.

    Each trial is binned once, on the cycle it stops: a stop on cycle 0 is
    counted in bin 0, a later stop appends its state, and one ``bincount`` of
    the appended states, clipped at ``n``, bins the rest.  Bin k < n is a cz
    success with k losses (k = 0 pure) and an mzz pure success (k = 0) or
    loss success; bin n is a cz failure and an mzz loss success.  A trial
    with no success in ``n`` cycles is an mzz abort, and a cz failure when
    its state is above ``n``, an abort otherwise.  The running set shrinks by
    ``np.flatnonzero`` and integer take.
    """
    import numpy as np

    rows, n = draws.shape
    success_edge, repeat_edge, one_loss_edge = edges
    double = n + 1
    flat = draws.reshape(-1)
    # flat offset of each running trial's row
    index = np.flatnonzero(draws[:, 0] >= success_edge)
    # the trials that stop on cycle 0 all hold state 0, so they are counted,
    # not stored; the states of the later stops, in stopping order
    pure = rows - index.size
    stopped = np.zeros(index.size, dtype=np.int64)
    done = 0
    index *= n
    draw = flat.take(index)
    state = (draw >= repeat_edge).astype(np.int64)
    np.add(state, double, out=state, where=draw >= one_loss_edge)
    for cycle in range(1, n):
        if index.size == 0:
            break
        draw = flat[cycle:].take(index)
        # a success is below the repeat edge, so it adds nothing here
        state += draw >= repeat_edge
        np.add(state, double, out=state, where=draw >= one_loss_edge)
        stop = np.flatnonzero(draw < success_edge)
        stopped[done:done + stop.size] = state.take(stop)
        done += stop.size
        go = np.flatnonzero(draw >= success_edge)
        index = index.take(go)
        state = state.take(go)
    bins = np.bincount(np.minimum(stopped[:done], n), minlength=n + 1)
    bins[0] += pure
    failed = np.count_nonzero(state > n)
    cz = np.zeros(n + 2, dtype=np.int64)
    cz[:n] = bins[:n]
    cz[n] = bins[n] + failed
    cz[n + 1] = index.size - failed
    mzz = np.array([bins[0], pure + done - bins[0], index.size], dtype=np.int64)
    return cz, mzz


#: ``verify-noise`` fails a category more than this many ``binomial_sigma`` off its
#: closed form or, where the normal band reaches below a count of 0 (below
#: ``GATE_SIGMAS**2`` expected counts), whose ``binomial_tail`` is below ``GATE_TAIL``.
GATE_SIGMAS = 5.0
GATE_TAIL = math.erfc(GATE_SIGMAS / math.sqrt(2.0)) / 2.0  # Phi(-5) ~ 2.87e-7


def binomial_sigma(p: float, trials: int) -> float:
    """One binomial standard deviation of an empirical frequency."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def binomial_tail(count: int, trials: int, p: float) -> float:
    """The tail of X ~ B(trials, p) on ``count``'s side of the mean:
    P(X <= count) below ``trials * p``, P(X >= count) at or above it.

    The other tail holds the median, so it is at least 1/2.
    """
    if not 0.0 < p < 1.0:
        return float(count == trials * p)
    step, end = (-1, -1) if count < trials * p else (1, trials + 1)
    terms = (math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                      + k * math.log(p) + (trials - k) * math.log1p(-p))
             for k in range(count, end, step))
    # the terms shrink away from the mean: the first to underflow ends the sum
    return sum(itertools.takewhile(bool, terms))
