"""One pass over the sweep-grid pool makes no more Python calls than the
bound below.

The count is of Python-level calls into ``src/ftcost`` and into the methods
``dataclasses`` generates, which are compiled from a string.  It does not
depend on machine load, so it shows a sweep path that does more work per
point where a timed benchmark run, whose runs spread by about a fifth on a
shared machine, cannot.  The workload module is imported, never changed.
"""

import collections
import importlib
import os
import sys
from pathlib import Path

import ftcost

BENCH = Path(__file__).resolve().parent.parent / "bench"
#: Calls of one warm pass over the 960 points, counted on CPython 3.11.7.
#: CPython 3.12 and later inline comprehensions, so they count fewer.
MAX_CALLS = 90_576


def _sweep_grid():
    """``bench/workloads/sweep_grid.py``, imported as part of its package."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads.sweep_grid")
    finally:
        sys.path.remove(str(BENCH))


def test_one_pass_over_the_pool_stays_within_its_call_count():
    grid = _sweep_grid().SweepGrid()
    api = grid.api(lambda name, fn, tag=None: fn)
    for index in range(len(grid.pool)):  # fill every memo and cache first
        grid.execute(api, index)
    package = os.path.dirname(ftcost.__file__) + os.sep
    calls = collections.Counter()

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code.co_filename.startswith(package)
                                or code.co_filename == "<string>"):
            calls[os.path.basename(code.co_filename), code.co_name] += 1

    sys.setprofile(count)
    try:
        for index in range(len(grid.pool)):
            grid.execute(api, index)
    finally:
        sys.setprofile(None)
    total = sum(calls.values())
    assert total <= MAX_CALLS, f"{total} calls > {MAX_CALLS}: {calls.most_common(12)}"
