"""Every name a benchmark workload patches is still called by its op.

A traced benchmark run replaces each ``(owner, attribute)`` in a workload's
``patches`` by a wrapper that records a span.  A renamed layer function
raises ``MissingTarget`` there, and a layer no longer called through the
patched name records no span, so its per-layer time silently reads 0.  This
test runs a few ops of each patched workload under the same patches and asks
for a span of every patched name.  The benchmark modules are imported, never
changed.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: Sweep-grid pool points: direct and fallback synthesis, both precisions.
SWEEP_POINTS = [
    {"overrides": ["problem.L=8", "budget.total=0.01", f"synthesis.strategy={strategy}",
                   "synthesis.p_succ=0.99", "problem.u_over_t=8"],
     "precision": precision}
    for strategy, precision in (("diagonal", "headline"), ("mixed_fallback", "headline"),
                                ("fallback", "real"))
]


def _bench(name):
    """The module ``name`` under ``bench/``, imported as the benchmark imports it."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def _unrecorded(workload, ops) -> set:
    """Patched span names that running ``ops`` under the patches never recorded."""
    tracer = _bench("tracing").Tracer()
    api = workload.api(tracer.wrap)
    with tracer.patched(workload.patches):
        for op in ops:
            assert workload.check(op, workload.execute(api, op))
    return {name for _, _, name in workload.patches} - {span[3] for span in tracer.spans}


def test_sweep_grid_calls_every_patched_layer():
    grid = _bench("workloads.sweep_grid").SweepGrid()
    grid.load_reference()
    assert not _unrecorded(grid, [grid.pool.index(point) for point in SWEEP_POINTS])


def test_plaquette_verify_calls_every_patched_layer():
    verify = _bench("workloads.plaquette_verify").PlaquetteVerify()
    assert not _unrecorded(verify, [2026])
