"""In-memory span tracer that instruments a package from outside.

`Tracer.install` replaces a function, in every module of the package that
holds it, by a wrapper that records one span per call: name, start, end and
the span open when the call began (its parent).  Spans stay in flat arrays
until the run ends; `summarize` turns them into per-name call counts, total
time and self time, and `write_csv` saves them.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from typing import Callable

NO_PARENT = -1


def package_modules(package: str) -> list:
    """The imported modules of a package, the package itself included."""
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, fn: Callable, name, on_result: Callable | None = None) -> Callable:
        """Wrap fn so each call records a span.  `name` is a string or a
        function of the call's arguments that returns one; `on_result`, if
        given, sees each return value."""
        fixed = None if callable(name) else self._name_id(name)

        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(
                fixed if fixed is not None else self._name_id(name(*args, **kwargs))
            )
            self.parent.append(self._open[-1] if self._open else NO_PARENT)
            self.end.append(0)
            self._open.append(sid)
            self.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = self.clock()
                self._open.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, fn: Callable, on_result: Callable) -> Callable:
        """Wrap fn without a span; `on_result` sees each return value."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        return wrapper

    def install(self, package: str, module: str, attr: str, make_wrapper: Callable) -> bool:
        """Replace `package.module.attr` by make_wrapper(original) wherever a
        module of the package holds that object.  Returns False, changing
        nothing, when the attribute does not exist."""
        original = getattr(sys.modules.get(f"{package}.{module}"), attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for mod in package_modules(package):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return True

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def spans(self) -> list[tuple[str, int, int, int]]:
        """(name, start, end, parent) per span, in start order."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_of, self.start, self.end, self.parent)
        ]

    def write_csv(self, path: str) -> None:
        """Spans as gzip-compressed CSV: id, parent, name, start and end in
        nanoseconds from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for sid, (name, start, end, parent) in enumerate(self.spans()):
                out.write(f"{sid},{parent},{name},{start - t0},{end - t0}\n")


def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[tuple[str, int, int, int]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration, and self duration (a span's
    duration minus the part of it its child spans cover), in clock units.

    Totals add every span of a name, so they assume a name never nests
    inside itself."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for sid, (name, start, end, _) in enumerate(spans):
        stats = out.setdefault(name, {"calls": 0, "total": 0, "self": 0})
        stats["calls"] += 1
        stats["total"] += end - start
        stats["self"] += end - start - covered(children.get(sid, []), start, end)
    return out
