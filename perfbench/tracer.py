"""Outside-in span tracer for the benchmark.

The tracer replaces a module attribute -- the binding a caller looks up
at call time, such as ``pwdrecon.harness.experiment.lasso_fit`` -- with
a wrapper that records a span around each call. Nothing in the program
changes; ``restore`` puts every original binding back. Spans stay in
memory (name, start, end, parent) and are written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans; None for a root span


class Tracer:
    """Records nested spans and named counts from wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self._open.pop()
        self.spans[idx].end = self.clock()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, module_name: str, attr: str, span_name: str,
             on_result=None) -> None:
        """Trace calls made through ``module_name.attr``.

        The module is fetched by its import name, because a package may
        shadow a submodule with a function of the same name (as
        ``pwdrecon.net.train`` does). ``on_result(tracer, args, result)``
        runs after a call that returned, outside its span.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": self.counts}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children of one span run one after another inside it (one thread),
    so the covered part is the sum of their durations clipped to the
    parent's interval.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            covered[s.parent] += max(0.0, min(s.end, p.end)
                                     - max(s.start, p.start))
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def tail_percentile(n: int, min_beyond: int = 10) -> int | None:
    """Highest whole percentile with at least ``min_beyond`` of n samples
    beyond it, or None when even the median has fewer beyond it."""
    for p in range(99, 49, -1):
        if n * (100 - p) / 100 >= min_beyond:
            return p
    return None

