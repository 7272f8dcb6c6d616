"""Spans and call counts recorded around the package's public functions.

A probe names one function or method at a module boundary.  Installing it
replaces that name in every loaded module of the package that holds the same
object, since the package's modules import functions by name
(`from .x import f`).  A probe whose target no longer exists is reported as
absent instead of failing, so the benchmark keeps working across refactors of
the program.

Every timed probe adds its call to per-name totals: calls, inclusive time and
self time, which is its duration minus the durations of the timed calls made
directly inside it.  A `span` probe also keeps the call itself (name, start,
end, parent span, operation index) in memory for the trace file; an
`aggregate` probe is for hot functions that would produce millions of spans.
A `count` probe only counts calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"


@dataclass(frozen=True)
class Probe:
    target: str  # "package.module:function" or "package.module:Class.method"
    name: str  # metric-facing name; several probes may share one
    mode: str = SPAN
    keep: bool = False  # retain (args, result) of each call for later analysis


class Tracer:
    def __init__(self, package: str = "burnloc", clock: Callable[[], float] = perf_counter):
        self.package = package
        self.clock = clock
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.spans: list[list] = []  # [name, parent span index, op, start, end]
        self.counts: Counter = Counter()
        self.kept: dict[str, list] = {}
        self.absent: list[str] = []
        self.current_op = -1
        self._stack: list[list] = []  # per open call: [child seconds, nearest span index]
        self._undo: list[tuple[object, str, object]] = []

    def timed(self, name: str, fn: Callable, record: bool = True, keep: bool = False) -> Callable:
        row = self.totals.setdefault(name, [0, 0.0, 0.0])
        kept = self.kept.setdefault(name, []) if keep else None
        stack, spans, clock = self._stack, self.spans, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if record:
                index = len(spans)
                span = [name, parent, self.current_op, 0.0, 0.0]
                spans.append(span)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                row[0] += 1
                row[1] += d
                row[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if record:
                    span[3], span[4] = t0, t1
            if kept is not None:
                kept.append((args, result))
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, probes, special: dict | None = None) -> None:
        """Wrap every probe target; `special` maps a probe name to a wrapper factory."""
        for probe in probes:
            resolved = _resolve(probe.target)
            if resolved is None:
                self.absent.append(probe.target)
                continue
            owner, attr, raw = resolved
            func, rewrap = _unwrap_descriptor(raw)
            if special and probe.name in special:
                wrapped = special[probe.name](probe, func)
            elif probe.mode == COUNT:
                wrapped = self.counter(probe.name, func)
            else:
                wrapped = self.timed(probe.name, func, record=probe.mode == SPAN, keep=probe.keep)
            if isinstance(owner, type):
                self._set(owner, attr, rewrap(wrapped))
            else:
                for module in self._package_modules():
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._set(module, key, wrapped)

    def _package_modules(self):
        prefix = self.package + "."
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(prefix))
        ]

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0,))[0] + self.counts.get(name, 0)

    def inclusive(self, *names: str) -> float:
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def own(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def write(self, path) -> None:
        """Write the kept spans, the per-name totals, the counts and the absent probes."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": {
                    "columns": ["name", "parent", "op", "start", "end"],
                    "rows": [[n, p, o, round(s, 7), round(e, 7)] for n, p, o, s, e in self.spans],
                },
                "totals": {n: {"calls": c, "inclusive_s": t, "self_s": s}
                           for n, (c, t, s) in self.totals.items()},
                "counts": dict(self.counts),
                "absent": self.absent,
            }, fh, separators=(",", ":"))


def _resolve(target: str):
    """(owner, attribute, raw attribute value) for a probe target, or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None or not (callable(raw) or isinstance(raw, (classmethod, staticmethod))):
        return None
    return owner, attr, raw


def _unwrap_descriptor(raw):
    """The plain callable behind a class attribute, and how to re-wrap a replacement."""
    if isinstance(raw, classmethod):
        return raw.__func__, classmethod
    if isinstance(raw, staticmethod):
        return raw.__func__, staticmethod
    return raw, lambda f: f


def clear_caches(package: str = "burnloc") -> None:
    """Empty every function-level cache in the package, seen through wrappers too."""
    prefix = package + "."
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(prefix)):
            continue
        for value in list(vars(module).values()):
            while value is not None:
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
                value = getattr(value, "__wrapped__", None)
