"""In-memory span recording around calls into the hybridldpc layers.

A span is (name, start_ns, end_ns, parent index, op id, note). Spans are
appended to a list while the benchmark runs and written out when it ends;
nothing is aggregated on the hot path. A layer's self time is its span's
duration minus the time covered by its child spans.

Instrumentation replaces a callable by a recording wrapper in every
``hybridldpc`` module namespace that binds it (modules import functions by
name, so patching the defining module alone would miss those callers), or
on its class for methods. ``Tracer.uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------- recording ----------------

    def wrap(self, name: str, fn, note=None):
        """Recording wrapper for ``fn``. ``note(args, kwargs, result)``
        may return a small JSON-able value kept with the span."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                extra = note(args, kwargs, result) if note is not None else None
                spans[idx] = (name, t0, t1, parent, self.op, extra)

        return traced

    def install(self, targets) -> None:
        """Wrap each target: ``(owner, attribute, span name, note)``.

        A module owner is patched in every loaded ``hybridldpc`` module
        that binds the same object; a class owner is patched in place."""
        for owner, attr, name, note in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, note)
            if isinstance(owner, type):
                homes = [owner]
            else:
                homes = [mod for key, mod in sorted(sys.modules.items())
                         if key.split(".")[0] == "hybridldpc"
                         and getattr(mod, attr, None) is original]
            for home in homes:
                self._patches.append((home, attr, original))
                setattr(home, attr, wrapped)

    def uninstall(self) -> None:
        for home, attr, original in reversed(self._patches):
            setattr(home, attr, original)
        self._patches.clear()

    # ---------------- analysis ----------------

    def finished(self) -> list[tuple]:
        if any(s is None for s in self.spans) or self._stack:
            raise RuntimeError("spans still open")
        return self.spans

    def write(self, path: str, run_id: str) -> None:
        doc = {
            "run_id": run_id,
            "fields": ["name", "start_ns", "end_ns", "parent", "op", "note"],
            "spans": self.finished(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def self_times(spans: list[tuple]) -> list[int]:
    """Self time of each span in ns: duration minus its children's spans."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def span_cost_ns(calls: int = 20000) -> float:
    """Time in ns one recording wrapper adds to a call, measured on a
    no-op function; the median of five rounds of ``calls`` calls."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    rounds = []
    for _ in range(5):
        t0 = perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = perf_counter_ns()
        rounds.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(rounds)[2]
