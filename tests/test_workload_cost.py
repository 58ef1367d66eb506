"""One warm op of the plaquette-verify and mc-oracle workloads does no more
work than the bounds below.

Like ``test_sweep_cost.py``, these are counts, not times, so they show an op
that does more work where a timed benchmark run on a shared machine cannot.
plaquette-verify counts Python calls into ``src/ftcost`` and calls of the
numpy entry points that ``plaquette`` and ``pauli`` reach through their
``np`` name, counted by a wrapper at that name, so the bound does not depend
on numpy's internals.  mc-oracle counts the uniforms an op draws, from the
sizes passed to the generator.  The workload modules are imported, never
changed.
"""

import collections
import importlib
import os
import sys
from pathlib import Path

import numpy as np

import ftcost
from ftcost import noise, pauli, plaquette

BENCH = Path(__file__).resolve().parent.parent / "bench"
#: Python calls into ``src/ftcost`` of one warm plaquette op, on CPython 3.11.7.
MAX_PLAQUETTE_CALLS = 344
#: Calls of each numpy entry point in one warm plaquette op, by its name under ``np``.
MAX_NUMPY_CALLS = {
    "abs": 1, "array": 3, "asarray": 4, "cos": 3, "divide": 2, "einsum": 5, "empty": 2,
    "exp": 10, "eye": 1, "linalg.eigh": 2, "linalg.norm": 5, "matmul": 3, "ndim": 2,
    "ones_like": 2, "random.default_rng": 1, "shape": 2, "sin": 3, "sqrt": 3, "vdot": 1,
    "zeros": 4,
}


def _workload(name: str):
    """``bench/workloads/<name>.py``, imported as part of its package."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(f"workloads.{name}")
    finally:
        sys.path.remove(str(BENCH))


class _CountingNamespace:
    """A module, or one of its submodules, whose functions count their calls
    by dotted name into ``counts``; classes and constants pass through."""

    def __init__(self, module, counts: collections.Counter, prefix: str = ""):
        self._module, self._counts, self._prefix = module, counts, prefix

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if type(value).__name__ == "module":
            return _CountingNamespace(value, self._counts, f"{self._prefix}{name}.")
        if not callable(value) or isinstance(value, type):
            return value
        key = self._prefix + name

        def counted(*args, **kwargs):
            self._counts[key] += 1
            return value(*args, **kwargs)

        return counted


def _plaquette_op_counts(monkeypatch) -> tuple[int, collections.Counter]:
    """(Python calls into ``src/ftcost``, numpy calls by name) of one warm op."""
    workload = _workload("plaquette_verify").PlaquetteVerify()
    api = workload.api(lambda name, fn, tag=None: fn)
    assert workload.check(1, workload.execute(api, 1))  # fill every cache first
    numpy_calls = collections.Counter()
    for module in (plaquette, pauli):
        monkeypatch.setattr(module, "np", _CountingNamespace(np, numpy_calls))
    package = os.path.dirname(ftcost.__file__) + os.sep
    calls = collections.Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[os.path.basename(frame.f_code.co_filename), frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        report = workload.execute(api, 2)
    finally:
        sys.setprofile(None)
    assert workload.check(2, report)
    return sum(calls.values()), numpy_calls


def test_one_plaquette_op_stays_within_its_call_counts(monkeypatch):
    calls, numpy_calls = _plaquette_op_counts(monkeypatch)
    assert calls <= MAX_PLAQUETTE_CALLS, f"{calls} calls > {MAX_PLAQUETTE_CALLS}"
    over = {name: count for name, count in numpy_calls.items()
            if count > MAX_NUMPY_CALLS.get(name, 0)}
    assert not over, f"numpy calls over their bounds: {over}"


class _CountingGenerator:
    """``numpy.random.Generator`` that adds the size of each ``random`` draw to ``drawn``."""

    def __init__(self, generator, drawn: list):
        self._generator, self._drawn = generator, drawn

    def random(self, size=None, dtype=np.float64, out=None):
        self._drawn.append(out.size if out is not None else int(np.prod(size or 1)))
        return self._generator.random(size, dtype, out)


def _uniforms_of(op, monkeypatch) -> int:
    """The uniforms one cold mc-oracle op draws, both kinds together."""
    workload = _workload("mc_oracle").McOracle()
    api = workload.api(lambda name, fn, tag=None: fn)
    drawn = []
    generator = np.random.Generator
    monkeypatch.setattr(np.random, "Generator",
                        lambda bits: _CountingGenerator(generator(bits), drawn))
    noise._mc_counts.cache_clear()  # a cold draw, as each op of a round is
    workload.execute(api, op)
    monkeypatch.undo()
    return sum(drawn)


def test_one_mc_op_draws_each_uniform_once(monkeypatch):
    workload = _workload("mc_oracle").McOracle
    for p, n_rus in workload.settings:
        drawn = _uniforms_of((p, n_rus, workload.mc_seeds[0]), monkeypatch)
        assert drawn <= workload.trials * n_rus, f"{drawn} uniforms at n_rus={n_rus}"
