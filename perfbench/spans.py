"""In-memory spans recorded around calls into curveflow's layers.

A span is (trace, name, start, end, parent): ``trace`` groups the spans of
one CLI run, ``parent`` is the index of the enclosing span or -1. Spans are
recorded by replacing a module attribute with a timing wrapper, so the
program itself is not edited; ``Tracer.restore`` puts the originals back.
"""

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [trace, name, start, end, parent]
        self.trace = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        rec = [self.trace, name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of module.attr."""
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.span(name, orig, *args, **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def restore(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for idx, rec in enumerate(spans):
        if rec[4] >= 0:
            children[rec[4]].append(idx)
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[idx], key=lambda k: spans[k][2]):
            lo = max(spans[c][2], cursor)
            hi = min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration and summed self time."""
    agg = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for rec, own in zip(spans, self_times(spans)):
        a = agg[rec[1]]
        a["calls"] += 1
        a["total"] += rec[3] - rec[2]
        a["self"] += own
    return dict(agg)
