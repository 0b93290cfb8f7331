"""In-memory span recorder for the traced benchmark run.

Each traced name is a public (or, for the expectation checks, module-level)
callable of the simulator, patched at the place its caller looks it up.
A span records its name, start, end and the span that was open when it
began. Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span named `name`."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        """Wrap fn so that each call only bumps a counter (no span)."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget recorded spans and counters; patches stay in place."""
        for store in (self.names, self.starts, self.ends, self.parents):
            store.clear()
        self.counters.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self time in seconds)."""
        child_time = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = {}
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (
                self.ends[i] - self.starts[i] - child_time[i]
            )
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path: str, meta: dict) -> None:
        """Spans as JSON: names once, then [name index, start, end, parent]."""
        index = {name: i for i, name in enumerate(sorted(set(self.names)))}
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": sorted(index, key=index.get),
                    "spans": [
                        [index[n], round(s - t0, 9), round(e - t0, 9), p]
                        for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
                    ],
                },
                fh,
                separators=(",", ":"),
            )
            fh.write("\n")
