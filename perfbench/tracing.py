"""In-memory span recording around calls into the enslab modules.

A :class:`Tracer` wraps functions so each call records a span: name, start,
end and the index of the span that was open when it began (its parent).
Wrappers are installed only inside :meth:`Tracer.patched` and removed on
exit, so untraced passes run the unmodified program.

A name must be patched where it is looked up, not where it is defined:
``spinecho`` binds ``probcore.entropy`` at import, ``DiscreteDistribution``
classmethods are shared class attributes, and a module's internal calls
(``suppression_curve`` -> ``build_apparatus``) resolve through its globals,
which is what makes them nest as child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager


class Tracer:
    """Records spans as ``[name, start, end, parent]`` lists, in call order.

    ``counts`` accumulates work counters that wrapped calls report from their
    return values, keyed by span name.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._open = []

    def wrap(self, fn, name, count=None):
        """``fn`` recording a span per call; ``count(result)`` adds to counts[name]."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, None, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self._open.pop()
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(result)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Install span wrappers on ``(owner, attribute, span name, count)`` targets.

        Attributes the owner does not have are skipped, so the benchmark keeps
        running when a later version of the program drops a function; its
        spans then read zero.
        """
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = inspect.getattr_static(owner, attr, None)
                if original is None:
                    continue
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(original.__func__, name, count))
                else:
                    replacement = self.wrap(original, name, count)
                setattr(owner, attr, replacement)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> list:
    """Duration of each span minus the part of it its children cover."""
    children = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[k][1], spans[k][2]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: call count, total (inclusive) time and self time."""
    table = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return table
