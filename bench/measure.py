"""The measuring loop of a worker: closed-loop ops, checks and timings.

Imported by worker.py only after it has said it is ready, so none of this
counts in ``setup_s``.
"""

import resource
import statistics
import sys
import time

import tracing
import workloads

#: A throughput sample covers at least this many seconds of ops.
BLOCK_S = 0.5


class Tally:
    """Checks each op's outcome and keeps per-block timing summaries.

    Only the current block's durations are held, so memory does not grow
    with the number of ops and cannot show up in ``peak_rss_mb``.
    """

    def __init__(self, workload, keep_durations=False):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.durations: list[float] | None = [] if keep_durations else None
        self.block_rates: list[float] = []
        self.block_ms_p50: list[float] = []
        self._block: list[float] = []
        self._work = 0.0

    def record(self, inp, outcome, seconds: float):
        self.attempted += 1
        self.busy += seconds
        self._block.append(seconds)
        self._work += self.workload.work(inp)
        if self.durations is not None:
            self.durations.append(seconds)
        if not self.workload.check(inp, outcome):
            self.failed += 1
            if self.failed <= 3:
                print(f"check failed on {inp!r}: {outcome!r:.300}", file=sys.stderr)

    def close_block(self):
        """End a sample: work per busy second and median op time since the last one."""
        if self._block:
            self.block_rates.append(self._work / sum(self._block))
            self.block_ms_p50.append(statistics.median(self._block) * 1e3)
        self._block.clear()
        self._work = 0.0


def measure(workload, rounds, seconds: float, tally: Tally, execute=None) -> Tally:
    """Run rounds of ops back to back until ``seconds`` have passed."""
    if execute is None:
        api = workload.api(workloads.plain)
        execute = lambda inp: workload.execute(api, inp)  # noqa: E731
    start = block_start = time.perf_counter()
    for round_ in rounds:
        for inp in round_:
            t = time.perf_counter()
            outcome = execute(inp)
            tally.record(inp, outcome, time.perf_counter() - t)
        now = time.perf_counter()
        if now - block_start >= BLOCK_S:
            tally.close_block()
            block_start = now
        if now - start >= seconds:
            break
    if not tally.block_rates:
        tally.close_block()
    return tally


def measure_traced(workload, rounds, seconds: float, tracer: tracing.Tracer):
    """Each op untraced and traced, alternating which goes first.

    Returns the untraced and the traced tally over the same ops.
    """
    plain_api = workload.api(workloads.plain)
    traced_api = workload.api(tracer.wrap)
    traced_op = tracer.wrap(tracing.ROOT, lambda inp: workload.execute(traced_api, inp))
    plain, traced = Tally(workload, keep_durations=True), Tally(workload)

    def run_plain(inp):
        t = time.perf_counter()
        outcome = workload.execute(plain_api, inp)
        plain.record(inp, outcome, time.perf_counter() - t)

    def run_traced(inp):
        with tracer.patched(workload.patches):
            t = time.perf_counter()
            outcome = traced_op(inp)
            seconds = time.perf_counter() - t
        traced.record(inp, outcome, seconds)
        tracer.op += 1

    start = time.perf_counter()
    for round_ in rounds:
        for inp in round_:
            first, second = (run_plain, run_traced) if tracer.op % 2 == 0 else (run_traced, run_plain)
            first(inp)
            second(inp)
        plain.close_block()
        traced.close_block()
        if time.perf_counter() - start >= seconds:
            break
    return plain, traced


def run(workload, rounds, mode: str, seconds: float, spans=None) -> dict:
    """Measure ``workload`` in ``mode`` ("run" or "trace"); the worker's result."""
    workload.load_reference()
    if mode == "run":
        tally = measure(workload, rounds, seconds, Tally(workload))
        return {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "block_rates": tally.block_rates,
            "block_ms_p50": tally.block_ms_p50,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    tracer = tracing.Tracer()
    plain, traced = measure_traced(workload, rounds, seconds, tracer)
    unseen = {name for _, _, name in workload.patches} - {span[3] for span in tracer.spans}
    if unseen:
        raise tracing.MissingTarget(f"no span recorded for {sorted(unseen)}: the program no "
                                    "longer calls through these names; update the patches")
    tracer.dump(spans)
    counts = Tally(workload)
    layer_counts = workload.layer_counts(counts)
    return {
        "attempted": counts.attempted + plain.attempted + traced.attempted,
        "failed": counts.failed + plain.failed + traced.failed,
        "plain_op_s": plain.busy / plain.attempted,
        "traced_op_s": traced.busy / traced.attempted,
        "op_ms_p99": statistics.quantiles(plain.durations, n=100)[-1] * 1e3
        if len(plain.durations) >= 2 else plain.durations[0] * 1e3,
        "trials": getattr(workload, "trials", None),
        "layer_counts": layer_counts,
    }
