"""Outside-in span tracing: rebind library functions, record spans, restore.

A :class:`Tracer` replaces a function binding in a module (``module.name``)
with a wrapper that records one span per call: name, start, end, parent
span id and the current iteration id.  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines.  :meth:`Tracer.restore` puts
every original binding back; callers run it in ``finally``.

Nothing here knows about rdstab; ``layers.py`` says what to wrap.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    iteration: Optional[int]
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "iteration": self.iteration,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(d["id"], d["parent"], d["iteration"], d["name"], d["start"], d["end"],
                   d.get("attrs", {}))


class Tracer:
    """Span recorder that owns the bindings it rebinds.

    ``wrap(module, attr, name)`` rebinds ``module.attr``.  A binding the
    module no longer has is skipped and listed in ``missing``, so a
    layer that stops being called reports zero calls instead of failing.
    ``memory=True`` also records the tracemalloc peak above the level at
    entry as ``attrs["peak_mb"]`` while ``track_memory`` is set; nested
    memory spans are handled.  tracemalloc slows every allocation, so
    callers time other iterations than those they measure memory in.
    ``describe(result)`` may return extra attributes for the span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.iteration: Optional[int] = None
        self.track_memory = False
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self._mem: list[list] = []

    # --- spans -------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), parent, self.iteration, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _mem_enter(self) -> None:
        if not self._mem:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            # the enclosing span keeps the peak it reached before this reset
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, 0])

    def _mem_exit(self) -> float:
        base, carried = self._mem.pop()
        peak = max(carried, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()
        return (peak - base) / 2**20

    # --- bindings ----------------------------------------------------------

    def wrap(self, module, attr: str, name: str, memory: bool = False,
             describe: Optional[Callable] = None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name)
            track = memory and self.track_memory
            if track:
                self._mem_enter()
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                span.attrs["error"] = type(err).__name__
                raise
            finally:
                if track:
                    span.attrs["peak_mb"] = self._mem_exit()
                self.end(span)
            if describe is not None:
                span.attrs.update(describe(result, *args, **kwargs))
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # --- output ------------------------------------------------------------

    def write(self, path: Path, header: Optional[dict] = None) -> None:
        """Write every span as one JSON line, after an optional header line."""
        with Path(path).open("w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def read_spans(path: Path) -> list[Span]:
    """Spans from a JSON-lines file written by :meth:`Tracer.write`."""
    spans = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            if "name" in d:
                spans.append(Span.from_dict(d))
    return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus that of its direct children.

    Spans come from one nested call stack, so children never overlap and
    never outlive their parent.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - covered.get(s.id, 0.0) for s in spans}
