"""Span tracing for the benchmark, installed from outside the program.

The program has no tracing of its own, so the benchmark wraps the public
functions of each layer at their module or class attribute and records one
span per call: ``[name, start, end, parent_index, count]``.  Spans stay in
memory; :func:`aggregate` turns a span list into per-name totals, self
times and counts, and :meth:`Tracer.restore` puts every original attribute
back.

Wrapping never touches arguments or results, so a traced run computes the
same bits as an untraced one; it only adds the cost of the wrapper calls.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

#: Index of each field in a span record.
NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Records nested spans around wrapped callables.

    Calls in one process are strictly nested, so a stack of open span
    indices gives every span its parent.  A process forked while spans are
    open must call :meth:`reset` before recording its own.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> list[list]:
        """Drop the recorded spans and the open-span stack; return the spans."""
        spans, self.spans, self._stack = self.spans, [], []
        return spans

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, 0)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, count: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        record = self.spans[index]
        record[START], record[END], record[COUNT] = start, end, count

    def wrap(self, func, name, count=None):
        """A traced stand-in for ``func``.

        ``name`` is a span name or a callable ``(*args, **kwargs) -> name``;
        ``count`` optionally maps the call's arguments to a work count stored
        in the span.  ``functools.wraps`` keeps ``__wrapped__``, so
        ``inspect.signature`` (which ``NSGAII`` uses to detect optional
        evaluator arguments) still sees the original parameters.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = self._open(label)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self._close(
                    index, start, count(*args, **kwargs) if count is not None else 0
                )

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def trace_function(self, func, name, count=None) -> None:
        """Wrap ``func`` at every ``repro`` module attribute bound to it.

        Functions imported by name (``from m import f``) live on in every
        importing module, so each import site is patched; the defining
        module's own global lookups see the patched attribute too.
        """
        traced = self.wrap(func, name, count)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.patch(module, attr, traced)

    def trace_method(self, cls: type, attr: str, name, count=None) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass that overrides it."""
        classes, pending = [], [cls]
        while pending:
            current = pending.pop()
            classes.append(current)
            pending.extend(current.__subclasses__())
        for current in classes:
            if attr in current.__dict__:
                self.patch(current, attr, self.wrap(current.__dict__[attr], name, count))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-name ``total`` (inclusive), ``self``, ``calls`` and ``count``.

    A span's self time is its duration minus the durations of its direct
    children.  The inclusive total counts only spans without an ancestor of
    the same name, so a wrapped function that reaches itself again (a
    decoder calling another traced decoder) is not counted twice.  Spans
    must be closed; ``parent`` indexes into the same list.
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child_time[record[PARENT]] += record[END] - record[START]
    result: dict[str, dict[str, float]] = {}
    for index, record in enumerate(spans):
        name = record[NAME]
        duration = record[END] - record[START]
        entry = result.setdefault(
            name, {"total": 0.0, "self": 0.0, "calls": 0, "count": 0}
        )
        entry["self"] += duration - child_time[index]
        entry["calls"] += 1
        entry["count"] += record[COUNT]
        ancestor = record[PARENT]
        while ancestor >= 0 and spans[ancestor][NAME] != name:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            entry["total"] += duration
    return result


def merge(parts: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Sum several :func:`aggregate` results (e.g. parent plus workers)."""
    merged: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, entry in part.items():
            target = merged.setdefault(
                name, {"total": 0.0, "self": 0.0, "calls": 0, "count": 0}
            )
            for key, value in entry.items():
                target[key] += value
    return merged
