"""Pure helpers: percentiles, span self time, outcome accounting, names.

Nothing here imports the program under test, so these helpers are unit
tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable, Sequence

#: Samples that must lie strictly beyond a percentile before it is
#: reported; fewer make the tail a single unlucky request.
MIN_BEYOND = 10

#: Every outcome a reply can carry (``repro.api.OUTCOMES``) plus the
#: benchmark's own ``error`` (a protocol error frame).
OUTCOMES = ("served", "degraded", "timeout", "shed", "failed", "error")

#: Outcomes that carry an answer.
ANSWERED = ("served", "degraded")

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def percentile(values: Sequence[float], q: float) -> float | None:
    """The ``q``-quantile (0 < q < 1) of ``values``, or ``None``.

    ``None`` unless at least :data:`MIN_BEYOND` samples lie beyond the
    quantile's rank, i.e. ``n - ceil(q * n) >= MIN_BEYOND``.  The value
    is linearly interpolated between closest ranks (numpy's default).
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(values)
    if n == 0 or n - math.ceil(q * n) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    position = q * (n - 1)
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval first, so overlapping
    or overhanging children are never subtracted twice.
    """
    clipped = (
        (max(start, c_start), min(end, c_end)) for c_start, c_end in children
    )
    return max(0.0, (end - start) - union_length(clipped))


def span_self_times(spans: Sequence[dict]) -> list[float]:
    """Self time of every span in a flat list.

    Each span is a dict with ``start``, ``end`` and ``parent`` (the
    index of its parent span in the same list, or ``None``).
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            children[parent].append((span["start"], span["end"]))
    return [
        self_time(span["start"], span["end"], children[index])
        for index, span in enumerate(spans)
    ]


class OutcomeLedger:
    """Counts what became of every request sent, exactly once each.

    ``send`` is called when a request goes out and ``settle`` with its
    outcome; :meth:`check` fails unless every sent request was settled
    exactly once with a known outcome.
    """

    def __init__(self) -> None:
        self.sent: set = set()
        self.outcomes: dict = {}
        self.errors: list[str] = []

    def send(self, request_id) -> None:
        if request_id in self.sent:
            self.errors.append(f"request id {request_id!r} sent twice")
        self.sent.add(request_id)

    def settle(self, request_id, outcome: str) -> None:
        if request_id not in self.sent:
            self.errors.append(f"reply for unsent request {request_id!r}")
        elif request_id in self.outcomes:
            self.errors.append(f"request {request_id!r} settled twice")
        elif outcome not in OUTCOMES:
            self.errors.append(f"unknown outcome {outcome!r}")
        else:
            self.outcomes[request_id] = outcome

    def counts(self) -> Counter:
        return Counter(self.outcomes.values())

    @property
    def attempted(self) -> int:
        return len(self.sent)

    @property
    def answered(self) -> int:
        return sum(1 for o in self.outcomes.values() if o in ANSWERED)

    @property
    def failed(self) -> int:
        """Sent but not answered: shed, timeout, failed, error, and any
        request never settled."""
        return self.attempted - self.answered

    def check(self) -> list[str]:
        """Accounting violations (empty when every request settled once)."""
        problems = list(self.errors)
        unsettled = self.sent - set(self.outcomes)
        if unsettled:
            problems.append(f"{len(unsettled)} request(s) never settled")
        return problems


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric name: starts with a letter or
    digit, then at most 63 more of ``[A-Za-z0-9_.-]``."""
    return bool(_METRIC_NAME.fullmatch(name))


def metric(value: float, unit: str) -> dict:
    """One metric entry of the result line."""
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"metric value must be a finite number: {value!r}")
    return {"value": float(value), "unit": unit}
