"""Per-layer spans recorded around the calls into ``repro.core``'s layers.

:func:`traced` swaps each traced function, at the module or class binding
its callers actually look up, for a wrapper that records a span (name,
start, end, parent) in memory, and restores every original on exit, error
included.  Nothing inside ``src/`` changes.  A layer's self time is its
spans' duration minus the part covered by child spans.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import repro.core.game
import repro.core.incremental
import repro.core.shortest_paths
from repro.core import GameSession, IncrementalEngine
from repro.core.parallel import ParallelEvaluator
from repro.core.remote import RemoteEvaluator

# span name -> the (owner, attribute) bindings whose calls it records.
TRACED: dict[str, tuple[tuple[Any, str], ...]] = {
    "dynamics.run": ((GameSession, "run"),),
    "best_response.kernel": (
        (repro.core.incremental, "score_response"),
        (repro.core.incremental, "best_response_incremental"),
        (repro.core.incremental, "greedy_response"),
    ),
    "parallel.evaluate": ((ParallelEvaluator, "evaluate"),),
    "remote.evaluate": ((RemoteEvaluator, "evaluate"),),
    "incremental.residual": ((IncrementalEngine, "residual"),),
    "incremental.apply": ((IncrementalEngine, "apply"),),
    "shortest_paths.decremental": ((repro.core.incremental, "decremental_distances"),),
    "shortest_paths.apsp": (
        (repro.core.game, "all_pairs_shortest_paths"),
        (repro.core.shortest_paths, "all_pairs_shortest_paths"),
    ),
    "shortest_paths.dijkstra_rows": ((repro.core.shortest_paths, "dijkstra_rows"),),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_time: float = 0.0
    items: int = 0  # sources of a dijkstra_rows call


@dataclass
class Tracer:
    """In-memory span recorder for the thread that created it."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _thread: int = field(default_factory=threading.get_ident)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced_call(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent=parent)
            if name == "shortest_paths.dijkstra_rows":
                span.items = len(args[1])
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
                if parent is not None:
                    self.spans[parent].child_time += span.end - span.start

        traced_call.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced_call

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``time``, ``self`` time and ``items``."""
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "time": 0.0, "self": 0.0, "items": 0} for name in TRACED
        }
        for span in self.spans:
            entry = out[span.name]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["time"] += duration
            entry["self"] += duration - span.child_time
            entry["items"] += span.items
        return out


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer``'s wrappers on every :data:`TRACED` binding for the block."""
    originals: list[tuple[Any, str, Any]] = []
    try:
        for name, bindings in TRACED.items():
            for owner, attr in bindings:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
