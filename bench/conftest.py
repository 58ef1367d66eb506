"""Lets ``python3 -m pytest bench`` import the benchmark and the ftcost under src/."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from provenance import THREAD_ENV  # noqa: E402

os.environ.update(THREAD_ENV)
