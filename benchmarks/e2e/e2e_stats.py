"""Pure arithmetic of the end-to-end benchmark: quantiles, the quantile
guard, host-speed normalisation, and span self-times.

Nothing here imports ``repro`` or touches a clock except
:func:`host_calib`, so ``test_harness.py`` can check every rule on
hand-built inputs.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import statistics
import time
from typing import Iterable, NamedTuple, Sequence

#: What :func:`host_calib` measured, in ms, on the host where the first
#: baseline was taken (median of 900 calls over 20 s).  Timings are scaled by
#: ``HOST_CALIB_REF_MS / calibration`` so they read as if every segment had
#: run on that host at that speed.
HOST_CALIB_REF_MS = 21.0

#: Quantile guard: ranks ``q ± GUARD_WIDTH`` points must agree within
#: ``GUARD_TOLERANCE`` of the value at ``q``.
GUARD_WIDTH = 1.5
GUARD_TOLERANCE = 0.15

_MODPOW_BASE = (1 << 520) - 0x1F3B
_MODPOW_EXP = (1 << 521) - 1
_MODPOW_MOD = (1 << 521) - 0x2C7


def host_calib() -> float:
    """Run the fixed calibration kernel; return its wall time in ms.

    Three parts, roughly a third each, matching what the program spends
    its time on: an HMAC-SHA256 chain (the symmetric ciphers), an
    int/dict loop (the interpreter-bound planner and executor), and
    521-bit modular exponentiation (RSA envelopes, Paillier).  It
    allocates little and runs with the collector off, so its time
    follows the host's speed and nothing else.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        digest = b"\x00" * 32
        for _ in range(4000):
            digest = hmac.digest(digest, b"e2e-calibration", hashlib.sha256)
        table: dict[int, int] = {}
        acc = digest[0]
        for i in range(17500):
            acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
            table[acc & 1023] = table.get(i & 1023, 0) + (acc >> 7)
        value = _MODPOW_BASE
        for _ in range(11):
            value = pow(value, _MODPOW_EXP, _MODPOW_MOD)
        if value == 0 or not table:
            raise AssertionError("calibration kernel degenerated")
        return (time.perf_counter() - started) * 1000.0
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(before_ms: float, after_ms: float,
                 ref_ms: float = HOST_CALIB_REF_MS) -> float:
    """The multiplier that maps a segment's timings to the reference host.

    A segment bracketed by calibrations slower than the reference ran on a
    slower host, so its timings shrink by the same ratio.
    """
    if before_ms <= 0 or after_ms <= 0:
        raise ValueError("calibration times must be positive")
    return ref_ms / ((before_ms + after_ms) / 2.0)


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    position = min(max(q, 0.0), 100.0) / 100.0 * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


class Guard(NamedTuple):
    """One quantile-guard verdict."""

    ok: bool
    low: float
    value: float
    high: float


def quantile_guard(sorted_values: Sequence[float], q: float) -> Guard:
    """Whether percentile ``q`` sits inside one mode of the sample.

    A fixed mix of op classes has a step-shaped latency distribution; a
    percentile whose rank lands on a step flips between two classes from
    run to run.  The guard compares the values :data:`GUARD_WIDTH`
    points either side of ``q`` and passes only when they differ by at
    most :data:`GUARD_TOLERANCE` of the value at ``q``.
    """
    low = quantile(sorted_values, q - GUARD_WIDTH)
    value = quantile(sorted_values, q)
    high = quantile(sorted_values, q + GUARD_WIDTH)
    return Guard(high - low <= GUARD_TOLERANCE * value, low, value, high)


def spread(values: Iterable[float]) -> float:
    """Interquartile distance as a share of the median (the driver's
    steadiness measure)."""
    values = list(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Span(NamedTuple):
    """One timed call into a layer, recorded by ``e2e_trace``."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    query: int


def _shares(intervals: list[tuple[float, float]]) -> list[float]:
    """Split the union of ``intervals`` among them.

    Every elementary stretch is divided equally among the intervals
    active in it, so the shares add up to the union's length.  Siblings
    that do not overlap each get their whole duration.
    """
    cuts = sorted({edge for interval in intervals for edge in interval})
    shares = [0.0] * len(intervals)
    for left, right in zip(cuts, cuts[1:]):
        active = [i for i, (start, end) in enumerate(intervals)
                  if start <= left and right <= end]
        for i in active:
            shares[i] += (right - left) / len(active)
    return shares


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self-time per span id.

    A span's self-time is its duration minus the part of it that its
    children cover.  Children on pool threads may overlap each other;
    under the interpreter lock they take turns, so each is credited its
    share of the stretch it overlaps (:func:`_shares`) and passes that
    scale down to its own subtree.  The self-times of one tree therefore
    add up to the root's duration exactly.
    """
    spans = list(spans)
    children: dict[int | None, list[Span]] = {}
    known = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent if span.parent in known else None
        children.setdefault(parent, []).append(span)
    result: dict[int, float] = {}

    def visit(span: Span, scale: float) -> None:
        kids = children.get(span.span_id, [])
        clipped = [(max(k.start, span.start), min(k.end, span.end))
                   for k in kids]
        clipped = [(s, max(s, e)) for s, e in clipped]
        shares = _shares(clipped)
        result[span.span_id] = scale * (
            (span.end - span.start) - sum(shares))
        for kid, share in zip(kids, shares):
            duration = kid.end - kid.start
            visit(kid, scale * share / duration if duration > 0 else 0.0)

    for root in children.get(None, []):
        visit(root, 1.0)
    return result
