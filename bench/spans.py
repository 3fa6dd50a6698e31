"""Span tracing around the library's public functions.

The tracer wraps chosen functions where they are looked up: every
``nilsteer`` module attribute bound to the same function object is
replaced by one wrapper, so calls between modules (``planner`` calling
``integrate`` through its own import, ``canonical`` calling
``build_hall_basis``) land in the wrapper too.  Nothing inside the
library changes; the wrappers are removed again when the context ends,
so checks and untraced queries run the library as it is.

A span records (name, start, end, parent span, query id).  Spans stay
in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.query = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.query]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, on_return=None, span=True):
        def wrapper(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
                on_return(self, result)
                return result
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_return is not None:
                on_return(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key, amount=1):
        self.counts[key] += amount

    def keep_max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    @contextmanager
    def span(self, name, query=None):
        """A span opened by the benchmark itself: the set-up, or one
        query, whose id the spans inside it then carry."""
        self.query = query
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)
            self.query = None

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
        return dict(out)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "query"],
                "names": names,
                "spans": [[ids[n], s - t0, e - t0, p, q]
                          for n, s, e, p, q in self.spans],
            }, fh, separators=(",", ":"))


@contextmanager
def installed(tracer, targets):
    """Swap each target for its wrapper in every nilsteer module.

    targets maps "module.function" to (on_return, span, only), where
    only, when not None, restricts the swap to the named modules.
    """
    undo = []
    try:
        for qual, (on_return, span, only) in targets.items():
            mod_name, fn_name = qual.rsplit(".", 1)
            original = getattr(sys.modules["nilsteer." + mod_name], fn_name)
            wrapper = tracer.wrap(qual, original, on_return, span)
            for name, module in list(sys.modules.items()):
                if not name.startswith("nilsteer."):
                    continue
                if only is not None and name[len("nilsteer."):] not in only:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)
