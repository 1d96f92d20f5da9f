"""Layer tracing from outside the program.

The benchmark never edits ``src/``.  To split a traced run into layers it
rebinds, for the duration of one traced iteration, the attributes through
which one layer calls the next (a class method, or a name one module
imported from another) to a wrapper that records a span, and restores
them afterwards.

Spans are aggregated per layer name rather than kept one per call (a
sim-churn iteration makes about 23k routing guard calls): for each name
the tracer keeps the call count, the inclusive time and the time covered
by child spans.  A layer's self time is its inclusive time minus its
children's.  Every wrapped call is synchronous or, for the runtime's
transport, an ``async`` call that never suspends, so spans nest strictly
and one stack suffices even on the asyncio runtime.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Per-layer span aggregates plus plain counters, kept in memory."""

    def __init__(self) -> None:
        #: name -> [inclusive seconds, seconds covered by child spans, calls]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        self._open: List[float] = []

    def total(self, name: str) -> float:
        """Inclusive time of ``name``'s spans."""
        return self.spans.get(name, (0.0, 0.0, 0))[0]

    def self_s(self, name: str) -> float:
        """Time inside ``name``'s spans not covered by a child span."""
        total, child, _ = self.spans.get(name, (0.0, 0.0, 0))
        return total - child

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0.0, 0.0, 0))[2])

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """A wrapper of ``fn`` recording one ``name`` span per call.

        ``on_result(result)`` lets a wrapper count outcomes (for example
        admitted selections) where the work happens."""
        acc = self.spans.setdefault(name, [0.0, 0.0, 0])
        open_spans = self._open
        clock = perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                open_spans.append(0.0)
                started = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    acc[1] += open_spans.pop()
                    acc[0] += elapsed
                    acc[2] += 1
                    if open_spans:
                        open_spans[-1] += elapsed

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                acc[1] += open_spans.pop()
                acc[0] += elapsed
                acc[2] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregates as plain data, for the trace file."""
        return {
            name: {"calls": calls, "total_s": total, "self_s": total - child}
            for name, (total, child, calls) in sorted(self.spans.items())
        }


@contextmanager
def rebound(targets: List[Tuple[Any, str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """Rebind ``owner.attr`` to ``make(original)`` for each target; restore
    every original on exit, even when the traced call raises."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class TimedDaemon:
    """Daemon wrapper installed through the public ``Simulator.daemon``
    setter: times ``select`` and counts the enabled processors offered."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.select = tracer.wrap("statemodel.select", self._select)

    def _select(self, enabled, step):
        self._tracer.counts["statemodel.enabled"] += len(enabled)
        return self._inner.select(enabled, step)
