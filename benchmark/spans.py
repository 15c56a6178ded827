"""In-memory span tracer that times kslab's public functions from outside.

Each traced function gets one wrapper, and that wrapper is installed on
every binding of the original in every loaded ``kslab`` module: the
defining module and each ``from .x import y`` copy.  Calls made through any
import path are therefore recorded.  Spans are kept in memory, each with its
parent's id, and summarized or written out once at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, name):
        self.id, self.parent, self.name = span_id, parent, name
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps ``targets`` while active, as a context manager.

    ``targets`` is a list of ``(module, attribute, note)``.  ``attribute``
    may be ``Class.method`` for a classmethod.  ``note``, when given, is
    called as ``note(args, kwargs, result, exc)`` after the call returns or
    raises, and its dict is stored on the span.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name)
            self.spans.append(span)
            self._stack.append(span.id)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if note is not None:
                    span.attrs = note(args, kwargs, result, exc)
        return wrapper

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kslab" or n.startswith("kslab."))]
        for module_name, attr, note in self.targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(meth, raw.__func__, note)))
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(attr, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        return self

    def __exit__(self, *exc_info):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False

    def dump(self, path: str, **header):
        payload = dict(header)
        payload["spans"] = [
            {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
             "end": s.end, "attrs": s.attrs} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(payload, fh)


def summarize(spans: list) -> dict:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the time its child spans
    cover; children of one span run one after another, so their durations
    add.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span in spans:
        entry = out[span.name]
        entry["calls"] += 1
        entry["s"] += span.duration
        entry["self_s"] += span.duration - child_time[span.id]
    return dict(out)
