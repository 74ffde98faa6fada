"""Deterministic resilience primitives.

:class:`CircuitBreaker` guards the serving runtime's degradation-ladder
rungs.  It lives here, free of serving dependencies, so it can be
tested (and reused) on its own; the serving package re-exports
everything for backwards compatibility.
"""

from __future__ import annotations

import threading

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Gauge encoding of breaker states (exported as
#: ``speakql_serving_breaker_state``).
BREAKER_STATE_VALUES = {
    BREAKER_CLOSED: 0,
    BREAKER_HALF_OPEN: 1,
    BREAKER_OPEN: 2,
}


class CircuitBreaker:
    """A deterministic, request-count-based circuit breaker.

    One breaker instance tracks any number of keys (the serving runtime
    uses ladder-rung names).
    Per key:

    - **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    - **open** — :meth:`allow` refuses (the caller routes around the
      key) and counts down; after ``cooldown_requests`` refusals the
      next request becomes the half-open trial.
    - **half-open** — exactly one trial request is allowed; its success
      closes the breaker, its failure re-opens it for a fresh cooldown.

    The cooldown counts *requests that consulted the breaker*, not
    seconds, so state transitions are reproducible under test.  All
    methods are thread-safe.
    """

    def __init__(
        self, failure_threshold: int = 3, cooldown_requests: int = 8
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_requests < 1:
            raise ValueError("cooldown_requests must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_requests = cooldown_requests
        self._lock = threading.Lock()
        self._state: dict[str, str] = {}
        self._failures: dict[str, int] = {}
        self._cooldown: dict[str, int] = {}
        self._trips: dict[str, int] = {}

    def state(self, key: str) -> str:
        with self._lock:
            return self._state.get(key, BREAKER_CLOSED)

    def trips(self, key: str) -> int:
        with self._lock:
            return self._trips.get(key, 0)

    def states(self) -> dict[str, str]:
        """A snapshot of every key's state (for health reporting)."""
        with self._lock:
            return dict(self._state)

    def allow(self, key: str) -> bool:
        """Whether a request may use ``key`` right now.

        Consulting an open key counts against its cooldown; the call
        that exhausts the cooldown flips the key to half-open and is
        itself allowed (it is the trial).
        """
        with self._lock:
            state = self._state.get(key, BREAKER_CLOSED)
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_HALF_OPEN:
                # A trial is already in flight; refuse concurrent ones.
                return False
            remaining = self._cooldown.get(key, 0) - 1
            if remaining > 0:
                self._cooldown[key] = remaining
                return False
            self._state[key] = BREAKER_HALF_OPEN
            return True

    def record_success(self, key: str) -> None:
        with self._lock:
            self._state[key] = BREAKER_CLOSED
            self._failures[key] = 0

    def record_failure(self, key: str) -> bool:
        """Record a failure; returns ``True`` when this call trips open."""
        with self._lock:
            state = self._state.get(key, BREAKER_CLOSED)
            if state == BREAKER_HALF_OPEN:
                # The trial failed: straight back to open.
                self._state[key] = BREAKER_OPEN
                self._cooldown[key] = self.cooldown_requests
                self._trips[key] = self._trips.get(key, 0) + 1
                return True
            failures = self._failures.get(key, 0) + 1
            self._failures[key] = failures
            if state == BREAKER_CLOSED and failures >= self.failure_threshold:
                self._state[key] = BREAKER_OPEN
                self._cooldown[key] = self.cooldown_requests
                self._trips[key] = self._trips.get(key, 0) + 1
                return True
            return False


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_VALUES",
    "CircuitBreaker",
]
