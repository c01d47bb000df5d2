"""Spans recorded around calls into the library's public functions.

The library has no trace points of its own, so the benchmark wraps the public
functions it times. A function imported by name into several modules is bound
once per module, and a call goes through the caller's binding, so every
binding in the package is replaced (and restored afterwards); otherwise calls
from inside the library would go unrecorded. Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, NamedTuple, Sequence

ROOT = "op"


class Span(NamedTuple):
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float


# Called after a traced call returns, to count work the return value reveals.
Observer = Callable[[Counter, tuple, dict, Any], None]


class Tracer:
    """Records spans only while an op is open, so calls outside ops cost one check."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._next_id = 0

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span recorded inside it carries op_id."""
        self._op = op_id
        with self.span(ROOT):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(self._op, sid, parent, name, start, end))

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        stack, spans, clock = self._stack, self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(self._op, sid, parent, name, start, end))
            if observe is not None:
                observe(self.counts, args, kwargs, out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op\tid\tparent\tname\tstart\tend\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.op}\t{s.id}\t{parent}\t{s.name}\t{s.start!r}\t{s.end!r}\n")


@contextlib.contextmanager
def installed(tracer: Tracer, package: str, targets: Iterable[tuple[str, Any, Observer | None]]):
    """Replace every binding of each target in the package's modules.

    `targets` holds (span name, original object, observer). A class is traced
    through its __init__. All bindings are restored on exit.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    undo: list[tuple[Any, str, Any]] = []
    try:
        for name, original, observe in targets:
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                setattr(original, "__init__", tracer.wrap(name, init, observe))
                undo.append((original, "__init__", init))
                continue
            wrapper = tracer.wrap(name, original, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def calls_under(spans: Sequence[Span], name: str, ancestor: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    by_id = {s.id: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        parent = s.parent
        while parent is not None:
            up = by_id[parent]
            if up.name == ancestor:
                count += 1
                break
            parent = up.parent
    return count


def by_name(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self time)."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += selfs[s.id]
    return {name: (calls[name], total[name]) for name in calls}
