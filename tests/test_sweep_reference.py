"""Every sweep-grid pool point reproduces the benchmark's recorded key values.

The benchmark checks its reference within a relative 1e-12; this test asks
for exact equality, so a change that moves any key value fails here, not
only in a benchmark run.  The workload module is imported, never changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _sweep_grid():
    """``bench/workloads/sweep_grid.py``, imported as part of its package."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads.sweep_grid")
    finally:
        sys.path.remove(str(BENCH))


def test_every_pool_point_matches_exactly():
    sweep_grid = _sweep_grid()
    with open(sweep_grid.REFERENCE) as f:
        reference = json.load(f)["points"]
    grid = sweep_grid.SweepGrid()
    assert [entry["point"] for entry in reference] == grid.pool
    api = grid.api(lambda name, fn, tag=None: fn)
    mismatched = []
    for index, entry in enumerate(reference):
        got = sweep_grid.reference_entry(grid.execute(api, index))
        if got != {k: v for k, v in entry.items() if k != "point"}:
            mismatched.append(index)
    assert not mismatched, f"{len(mismatched)} of {len(reference)} points differ: {mismatched[:10]}"
