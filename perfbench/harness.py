"""Closed-loop timing, summary statistics and answer checksums.

Nothing here imports the library, so these helpers are tested on their own
(see test_harness.py).
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Sequence

# Candidate tail percentiles, highest first. The reported tail is the highest
# one with at least MIN_BEYOND samples above it, so it is never read off a
# handful of outliers.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# Stored answers are rounded to this many decimals and compared within
# CHECKSUM_TOL, so reordered floating-point sums do not trip the gate but a
# changed answer does.
CHECKSUM_DIGITS = 9
CHECKSUM_TOL = 1e-6


def tail_percentile(samples: Sequence[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples above it) for the highest usable percentile.

    Uses the nearest-rank definition. None when fewer than 2 * MIN_BEYOND
    samples exist, since then not even the median has MIN_BEYOND above it.
    """
    xs = sorted(samples)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return q, xs[rank - 1], n - rank
    return None


@dataclass
class Variant:
    """One way of running an op: `run` is timed, `around(i)` is not.

    `around` returns a context manager entered outside the timed region, for
    set-up such as installing trace wrappers.
    """

    name: str
    run: Callable[[Any], Any]
    around: Callable[[int], ContextManager] = lambda i: contextlib.nullcontext()


@dataclass
class LoopResult:
    """Per-variant op durations and the failed attempts with their reasons."""

    durations: dict[str, list[float]] = field(default_factory=dict)
    failures: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(d) for d in self.durations.values())

    @property
    def failed(self) -> int:
        return len(self.failures)


def closed_loop(make_input: Callable[[int], Any], variants: Sequence[Variant],
                check: Callable[[int, Any, Any], str | None], seconds: float,
                period: int = 1, clock: Callable[[], float] = time.perf_counter) -> LoopResult:
    """Run ops back to back until `seconds` of op time have been measured.

    The loop stops only after a whole number of `period` inputs, so inputs
    that rotate through kinds keep their proportions in every run.

    Input i is built by make_input(i) and run once by every variant, the
    variant order alternating between inputs so neither side always runs
    first. Input generation and `check` run outside the timed region. An
    attempt fails when it raises or when check returns a reason; either way
    it counts exactly once.
    """
    result = LoopResult({v.name: [] for v in variants})
    busy = 0.0
    i = 0
    while busy < seconds or i % period:
        inp = make_input(i)
        order = variants if i % 2 == 0 else tuple(reversed(variants))
        for v in order:
            raised = None
            with v.around(i):
                t0 = clock()
                try:
                    out = v.run(inp)
                except Exception as exc:  # a raising op is a failed op; the run goes on
                    raised = exc
                t1 = clock()
            if raised is None:
                reason = check(i, inp, out)
            else:
                if not result.failures:
                    traceback.print_exception(raised, file=sys.stderr)
                reason = f"raised {type(raised).__name__}: {raised}"
            result.durations[v.name].append(t1 - t0)
            busy += t1 - t0
            if reason is not None:
                result.failures.append((i, v.name, reason))
        i += 1
    return result


def timing_summary(durations: Sequence[float], failed: int) -> dict[str, Any]:
    """Median, tail and throughput of one variant's op durations."""
    total = sum(durations)
    return {
        "ops": len(durations),
        "busy_s": total,
        "op_p50_s": statistics.median(durations),
        "op_tail": tail_percentile(durations),
        "ops_per_s": (len(durations) - failed) / total,
    }


def rounded(value: Any, digits: int = CHECKSUM_DIGITS) -> Any:
    """Round every float in a nested structure of lists, tuples and numbers."""
    if isinstance(value, (list, tuple)):
        return [rounded(v, digits) for v in value]
    if isinstance(value, float):
        return round(value, digits)
    return value


def checksum_mismatch(expected: Any, actual: Any, tol: float = CHECKSUM_TOL,
                      where: str = "answer") -> str | None:
    """Describe the first difference between two rounded answers, or None.

    Numbers match within `tol`; lists must have equal lengths; anything else
    must be equal.
    """
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{where}: length {len(actual)} != expected {len(expected)}"
        for k, (e, a) in enumerate(zip(expected, actual)):
            diff = checksum_mismatch(e, a, tol, f"{where}[{k}]")
            if diff is not None:
                return diff
        return None
    numbers = (int, float)
    if isinstance(expected, numbers) and isinstance(actual, numbers) \
            and not isinstance(expected, bool) and not isinstance(actual, bool):
        if abs(expected - actual) <= tol:
            return None
        return f"{where}: {actual!r} differs from expected {expected!r} by more than {tol:g}"
    if expected != actual:
        return f"{where}: {actual!r} != expected {expected!r}"
    return None
