"""Span tracing from outside the program.

Wrappers are installed around public functions of each ``stochdet``
module, at every import site: the defining module and every module that
bound the function under its own name. Methods are patched on their
class. Each call records one span (name, start, end, parent) in memory;
nothing is written until the traced phase ends.

A missing target raises, so a refactor that renames a public function
makes the traced run fail instead of silently reporting zero.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Tracer:
    names: list[str] = field(default_factory=list)
    span_name: list[int] = field(default_factory=list)
    span_start: list[int] = field(default_factory=list)
    span_end: list[int] = field(default_factory=list)
    span_parent: list[int] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    _name_ids: dict[str, int] = field(default_factory=dict)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def add_span(self, name: str, start_ns: int, end_ns: int, parent: int) -> None:
        """A span reconstructed after the fact (e.g. from stage markers)."""
        self.span_name.append(self.name_id(name))
        self.span_start.append(start_ns)
        self.span_end.append(end_ns)
        self.span_parent.append(parent)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive ns, and self ns (inclusive minus children)."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child_ns = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_ns[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            rec = out.setdefault(self.names[self.span_name[i]], {"calls": 0, "ns": 0, "self_ns": 0})
            rec["calls"] += 1
            rec["ns"] += dur[i]
            rec["self_ns"] += dur[i] - child_ns[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: index, name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self.span_parent[i]}\n"
                )


def _wrap(tracer: Tracer, span_name: str, fn: Callable, on_result: Callable | None):
    nid = tracer.name_id(span_name)

    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(tracer.counters, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", span_name)
    return traced


class Installation:
    """Wrappers in place; ``remove`` restores every patched binding."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


def install(tracer: Tracer, targets: list[tuple[str, str, str, Callable | None]]) -> Installation:
    """targets: (module, qualified name, span name, optional result hook).

    A qualified name ``Class.method`` patches the class attribute; a plain
    name patches the function in its module and in every loaded
    ``stochdet`` module that bound the same object.
    """
    inst = Installation()
    try:
        for module_name, qualname, span_name, on_result in targets:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, meth = qualname.split(".", 1)
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                inst.patch(cls, meth, _wrap(tracer, span_name, original, on_result))
                continue
            original = getattr(module, qualname)
            wrapper = _wrap(tracer, span_name, original, on_result)
            sites = [
                m
                for name, m in list(sys.modules.items())
                if m is not None and (name == "stochdet" or name.startswith("stochdet."))
            ]
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        inst.patch(site, attr, wrapper)
    except Exception:
        inst.remove()
        raise
    return inst
