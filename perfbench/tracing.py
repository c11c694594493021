"""Span tracing from outside the program: shims on module attributes.

The traced run never edits the program.  It replaces attributes that
callers look up at call time — a module-level function name such as
``repro.scheduling.pipeline.dppo`` or a method on a class such as
``repro.serve.farm.WorkerFarm.compile`` — with a wrapper that records a
span around the original call.  Spans live in memory and are written
out once, when the process ends.

A span is ``(id, name, start, end, parent, rid, attrs)``; ``start`` and
``end`` are ``time.perf_counter()`` readings, which on Linux come from
the system-wide monotonic clock, so spans recorded by different
processes on one host share a time base.  ``parent`` is the span open
on the same thread when this one started.

Self time is a span's duration minus the part of its interval covered
by its children (:func:`self_times`), so the self times of one span
tree always add up to the duration of its root.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Dict[str, Any]


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self, tag: str = "") -> None:
        self.tag = tag or str(os.getpid())
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float,
               parent: Optional[str] = None, rid: Any = None,
               **attrs: Any) -> Span:
        """Store a span measured elsewhere (e.g. by a parent process)."""
        span = {
            "id": f"{self.tag}:{next(self._ids)}", "name": name,
            "start": start, "end": end, "parent": parent, "rid": rid,
            "attrs": attrs,
        }
        self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             classify: Optional[Callable[..., Dict[str, Any]]] = None):
        """Run ``fn`` under a span.

        ``classify(result, args, kwargs)`` returns attrs for the span,
        such as a work count or the cache tier that answered.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = f"{self.tag}:{next(self._ids)}"
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = (classify(result, args, kwargs) if classify is not None
                 else {})
        self.spans.append({
            "id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "rid": None, "attrs": attrs,
        })
        return result

    def wrap(self, owner: Any, attr: str, name: str,
             classify: Optional[Callable[..., Dict[str, Any]]] = None
             ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Plain functions, methods, ``staticmethod`` and ``classmethod``
        attributes are all handled; the original is restored by
        :meth:`unwrap_all`.
        """
        raw = (owner.__dict__.get(attr) if isinstance(owner, type)
               else getattr(owner, attr))
        if raw is None:
            raw = getattr(owner, attr)
        tracer = self
        if isinstance(raw, (staticmethod, classmethod)):
            bound = getattr(owner, attr)

            @functools.wraps(bound)
            def shim_static(*args, **kwargs):
                return tracer.call(name, bound, args, kwargs, classify)

            replacement: Any = staticmethod(shim_static)
        else:
            @functools.wraps(raw)
            def shim(*args, **kwargs):
                return tracer.call(name, raw, args, kwargs, classify)

            replacement = shim
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(paths: Iterable[str]) -> List[Span]:
    spans: List[Span] = []
    for path in paths:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.load(handle))
    return spans


def export_in_fork_children(tracer: Tracer, prefix: str) -> None:
    """Have every ``multiprocessing`` fork child write its own spans.

    A forked child inherits the shims (and the parent's spans, which it
    drops).  Its spans are written to ``<prefix>.<pid>.json`` by a
    ``multiprocessing`` finalizer when the child shuts down normally.
    """
    from multiprocessing import util

    def after_fork(obj: Tracer) -> None:
        obj.tag = str(os.getpid())
        obj.spans = []
        obj._local = threading.local()
        util.Finalize(obj, obj.dump,
                      args=(f"{prefix}.{os.getpid()}.json",),
                      exitpriority=100)

    util.register_after_fork(tracer, after_fork)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def covered(intervals: List[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans: List[Span]) -> Dict[Optional[str], List[Span]]:
    kids: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        kids.setdefault(span["parent"], []).append(span)
    return kids


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids = children_of(spans)
    out: Dict[str, float] = {}
    for span in spans:
        inner = [(c["start"], c["end"]) for c in kids.get(span["id"], [])]
        dur = span["end"] - span["start"]
        out[span["id"]] = dur - covered(inner, span["start"], span["end"])
    return out


def subtree(spans: List[Span], root_id: str) -> List[Span]:
    kids = children_of(spans)
    out: List[Span] = []
    todo = [root_id]
    by_id = {s["id"]: s for s in spans}
    while todo:
        sid = todo.pop()
        out.append(by_id[sid])
        todo.extend(c["id"] for c in kids.get(sid, []))
    return out


def adopt_by_containment(parents: List[Span], children: List[Span]) -> None:
    """Set each unparented child's parent to the span that contains it.

    Links spans recorded by different processes (client -> server ->
    worker).  Only meaningful where one parent at a time can be open,
    which the traced runs guarantee by issuing requests one by one.
    The innermost (latest-starting) containing parent wins.
    """
    ordered = sorted(parents, key=lambda s: s["start"])
    for child in children:
        if child["parent"] is not None:
            continue
        best = None
        for cand in ordered:
            if cand["start"] > child["start"]:
                break
            if cand["end"] >= child["end"]:
                best = cand
        if best is not None:
            child["parent"] = best["id"]
            child["rid"] = best.get("rid")


def self_by_name(spans: List[Span]) -> Dict[str, Tuple[float, int]]:
    """Name -> (total self seconds, number of spans)."""
    st = self_times(spans)
    out: Dict[str, Tuple[float, int]] = {}
    for span in spans:
        total, count = out.get(span["name"], (0.0, 0))
        out[span["name"]] = (total + st[span["id"]], count + 1)
    return out


def durations(spans: List[Span], name: str) -> List[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def max_self_sum_error(spans: List[Span]) -> float:
    """Largest |sum of self times in a tree - its root's duration|, in s.

    Zero up to rounding whenever every child lies inside its parent and
    siblings do not overlap: the check that attribution lost nothing.
    """
    st = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    totals: Dict[str, float] = {}
    for span in spans:
        root = span
        while root["parent"] in by_id:
            root = by_id[root["parent"]]
        if root["parent"] is None:  # trees whose root was not recorded
            totals[root["id"]] = totals.get(root["id"], 0.0) + st[span["id"]]
    return max((abs(total - (by_id[rid]["end"] - by_id[rid]["start"]))
                for rid, total in totals.items()), default=0.0)
