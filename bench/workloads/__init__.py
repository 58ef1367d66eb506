"""The benchmark's three workloads: their inputs, the op each runs, its check.

Each workload lives in its own module, so a worker imports only the ftcost
modules its workload calls.  The benchmark's own machinery (``json``,
``tracing``) is imported inside the methods that run after set-up: anything
imported before the worker says it is ready is counted in ``setup_s``.

Every op calls ftcost's public functions through an ``api`` namespace built
by ``api(wrap)``.  The untraced run passes ``plain`` as ``wrap``, so it calls
the functions themselves; the traced run passes ``Tracer.wrap`` and also
installs ``patches``, the names through which one layer calls the next.

Inputs come in rounds, and a run only stops between rounds.
"""

import importlib
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"

#: Workload name -> module defining its ``WORKLOAD`` class.
MODULES = {
    "sweep-grid": "sweep_grid",
    "mc-oracle": "mc_oracle",
    "plaquette-verify": "plaquette_verify",
}


def plain(name, fn, tag=None):
    return fn


def load(name: str):
    """The workload class of ``name``."""
    return importlib.import_module(f"{__name__}.{MODULES[name]}").WORKLOAD
