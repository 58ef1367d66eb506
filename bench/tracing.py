"""In-memory spans around calls into ftcost, and their per-name summary.

A span is recorded by a wrapper that the benchmark puts around a public
function of the module that owns a layer: either a function the benchmark
calls itself, or the name a calling module looks up (``ftcost.pipeline.
select_distance``, ``ftcost.pauli.PauliSum.dense``).  Nothing under ``src/``
is changed.  Spans of one op share its op id, carry their parent's id and are
written out only when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

#: Name of the span the benchmark opens around each whole op.
ROOT = "op"


class MissingTarget(AttributeError):
    """A span's patch target is gone from the program."""


class Tracer:
    """Records spans as ``(op, id, parent, name, tag, start, end)`` tuples."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._open: list[int] = []

    def wrap(self, name, fn, tag=None):
        """``fn`` recording one span per call; ``tag(*args, **kwargs)`` labels it."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else None
            open_.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                label = tag(*args, **kwargs) if tag else None
                spans[sid] = (self.op, sid, parent, name, label, start, end)

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each ``(owner, attribute, span name)`` by a traced wrapper.

        A target the program no longer has raises ``MissingTarget``: a
        refactor that renames one must update the workload's ``patches`` in
        the same change, or its layer would silently read 0.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                if not hasattr(owner, attr):
                    raise MissingTarget(f"{owner.__name__}.{attr} (span {name!r}) no longer "
                                        "exists; update the workload's patches")
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as JSON lines, times in ns from the first span."""
        origin = self.spans[0][5] if self.spans else 0.0
        with open(path, "w") as f:
            for op, sid, parent, name, tag, start, end in self.spans:
                f.write(json.dumps([op, sid, parent, name, tag,
                                    round((start - origin) * 1e9),
                                    round((end - origin) * 1e9)]) + "\n")


def summarize(path):
    """Aggregate the spans dumped to ``path`` by name.

    Returns ``(ops, self_s, incl)``: the number of ops (root spans), total
    self seconds per span name (duration minus the time its child spans
    cover), and ``(total seconds, calls)`` per ``(name, tag)``.  Reads the
    file twice instead of holding every span.
    """
    child_ns: dict[int, int] = {}
    with open(path) as f:
        for line in f:
            _, _, parent, _, _, start, end = json.loads(line)
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
    ops = 0
    self_s: dict[str, float] = {}
    incl: dict[tuple, list] = {}
    with open(path) as f:
        for line in f:
            _, sid, parent, name, tag, start, end = json.loads(line)
            if parent is None:
                ops += 1
            dur = end - start
            self_s[name] = self_s.get(name, 0.0) + (dur - child_ns.pop(sid, 0)) * 1e-9
            total = incl.setdefault((name, tag), [0.0, 0])
            total[0] += dur * 1e-9
            total[1] += 1
    return ops, self_s, incl
