"""In-memory spans recorded around fracube's module attributes.

A :class:`Tracer` replaces a module attribute (say ``pipeline._scc_live``)
with a wrapper that records one span per call: name, start, end, parent span
and op id.  Only the benchmark installs wrappers, and only for the traced
half of a traced run; :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(tracer, value)`` sees each value."""
        tracer = self
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(nid)
            try:
                value = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if on_result is not None:
                on_result(tracer, value)
            return value

        return traced

    def install(self, modules: dict, plan) -> None:
        """Patch every (module, attribute) in ``plan``.

        ``plan`` is a sequence of (span name, [(module key, attribute)], on_result).
        Attributes a module does not have are skipped.
        """
        for name, sites, on_result in plan:
            for mod_key, attr in sites:
                module = modules[mod_key]
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._patches.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document of parallel columns."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [list(self.name), list(self.start), list(self.end),
                      list(self.parent), list(self.op)],
            "counters": self.counters,
        }
        path.write_text(json.dumps(doc))
