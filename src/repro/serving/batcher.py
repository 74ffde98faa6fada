"""Dynamic micro-batching: coalesce concurrent requests, dispatch once.

:class:`MicroBatcher` sits between an asyncio front end (the serving
daemon, the open-loop workload runner) and a
:class:`~repro.serving.runtime.ServingRuntime`.  Concurrently arriving
requests are held briefly and dispatched together as **one**
:meth:`~repro.serving.runtime.ServingRuntime.submit_batch` call,
amortizing the per-dispatch overhead of the front end — executor
hand-off, admission/accounting lock round-trips, span bookkeeping —
across the whole batch while preserving per-request outcomes and
bit-identical answers (``submit_batch`` executes requests through the
exact same ``_execute`` path as ``submit``).

Flush policy (:func:`flush_by`): a batch is dispatched the moment any
of these holds —

- **full** — ``max_batch_size`` requests are waiting;
- **wait** — the oldest request has waited ``max_wait_ms``;
- **deadline** — a waiting request's latency budget minus
  ``deadline_slack_ms`` is about to be eaten by coalescing (a
  tight-deadline request never idles in the queue);
- **drain** — :meth:`MicroBatcher.close` flushes whatever is pending.

Queue time is charged against the request: a request that spent ``w``
seconds in the front end — the coalescing window *plus* any wait in the
dispatch queue behind earlier batches — reaches the runtime with its
``deadline`` budget reduced by ``w``, so the client's end-to-end budget
keeps meaning what it means without coalescing: a request whose
budget was consumed by queueing times out instead of serving stale.

Observability: each dispatch opens a ``batch.flush`` span (``size``,
``reason``, and the carried wire ``trace_ids``) and maintains ``speakql_batch_flush_total`` /
``speakql_batch_flush_size`` / ``speakql_batch_coalesce_wait_seconds``.
The batcher's registry writes are confined to the event-loop thread —
give it its own :class:`~repro.observability.metrics.MetricsRegistry`
and merge at a synchronization point (the repo-wide registry
discipline), or call :meth:`merge_metrics_into` after :meth:`close`.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro.api import QueryRequest, QueryResponse
from repro.observability import names as obs_names
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Tracer

#: Flush reasons (the `reason` span attribute / metric label).
FLUSH_FULL = "full"
FLUSH_WAIT = "wait"
FLUSH_DEADLINE = "deadline"
FLUSH_TURN = "turn"
FLUSH_DRAIN = "drain"

#: Batch-size histogram buckets (requests per flush, powers of two).
BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

#: Default coalescing window and deadline slack (milliseconds).
DEFAULT_MAX_WAIT_MS = 2.0
DEFAULT_DEADLINE_SLACK_MS = 5.0


def flush_by(
    request: QueryRequest,
    enqueued_at: float,
    *,
    max_wait: float,
    deadline_slack: float,
) -> tuple[float, str]:
    """When (absolute clock) a pending request forces a flush, and why.

    Pure policy, unit-testable without an event loop: the request must
    be dispatched by ``enqueued_at + max_wait`` (reason ``wait``) — or
    earlier, when its deadline budget minus ``deadline_slack`` would
    otherwise be consumed by queueing (reason ``deadline``).
    """
    cutoff = enqueued_at + max_wait
    reason = FLUSH_WAIT
    if request.deadline is not None:
        near = enqueued_at + max(0.0, request.deadline - deadline_slack)
        if near < cutoff:
            cutoff, reason = near, FLUSH_DEADLINE
    return cutoff, reason


@dataclass
class _Pending:
    """One request waiting in the coalescing queue.

    ``enqueued_at`` is event-loop time (drives the flush timer);
    ``enqueued_mono`` is :func:`time.monotonic`, readable from the
    dispatch thread, which charges the full front-end wait against the
    request's deadline budget.
    """

    request: QueryRequest
    enqueued_at: float
    enqueued_mono: float
    flush_at: float
    flush_reason: str
    future: asyncio.Future


class MicroBatcher:
    """Coalesces concurrent submissions into ``submit_batch`` dispatches.

    Parameters
    ----------
    runtime:
        Anything with a ``submit_batch(requests) -> list[QueryResponse]``
        method (normally a :class:`~repro.serving.runtime.ServingRuntime`).
    max_batch_size:
        Flush immediately once this many requests are waiting.
    max_wait_ms:
        Flush once the oldest request has waited this long — the
        latency price of coalescing, and the knob that trades p50 for
        throughput.
    deadline_slack_ms:
        A pending request whose remaining deadline budget drops to this
        slack forces an immediate flush, so tight-deadline requests are
        never idled into a timeout by the coalescing window.
    dispatch_workers:
        Threads executing dispatched batches; >1 lets a new batch start
        while the previous one drains (open-loop overload behaviour).
    tracer / metrics:
        Event-loop-thread observability handles (see module docstring).

    Use from a single event loop; every method except construction must
    run on that loop.
    """

    def __init__(
        self,
        runtime,
        *,
        max_batch_size: int = 8,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        deadline_slack_ms: float = DEFAULT_DEADLINE_SLACK_MS,
        dispatch_workers: int = 2,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0 or deadline_slack_ms < 0:
            raise ValueError("wait/slack must be non-negative milliseconds")
        if dispatch_workers < 1:
            raise ValueError("dispatch_workers must be >= 1")
        self.runtime = runtime
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait_ms / 1000.0
        self.deadline_slack = deadline_slack_ms / 1000.0
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics
        self._pending: list[_Pending] = []
        self._timer: asyncio.TimerHandle | None = None
        self._timer_target = 0.0
        self._dispatches: set[asyncio.Future] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_workers, thread_name_prefix="batch-dispatch"
        )
        self._closed = False
        self.batches_dispatched = 0
        self.requests_submitted = 0

    # -- submission ----------------------------------------------------------

    async def submit(self, request: QueryRequest) -> QueryResponse:
        """Enqueue one request; resolves with its batch's response."""
        if self._closed:
            raise RuntimeError("the batcher is closed")
        loop = asyncio.get_running_loop()
        now = loop.time()
        cutoff, reason = flush_by(
            request,
            now,
            max_wait=self.max_wait,
            deadline_slack=self.deadline_slack,
        )
        pending = _Pending(
            request,
            now,
            time.monotonic(),
            cutoff,
            reason,
            loop.create_future(),
        )
        self._pending.append(pending)
        self.requests_submitted += 1
        if request.session_id is not None:
            # Correction turns are interactive by definition: a user is
            # watching the clause they just re-dictated.  Never idle one
            # in the coalescing window — flush the batch it joined now.
            self._flush(FLUSH_TURN)
        elif len(self._pending) >= self.max_batch_size:
            self._flush(FLUSH_FULL)
        else:
            self._arm_timer(loop, cutoff)
        return await pending.future

    # -- flush machinery -----------------------------------------------------

    def _arm_timer(
        self, loop: asyncio.AbstractEventLoop, cutoff: float
    ) -> None:
        """Ensure the flush timer fires no later than ``cutoff``.

        The timer is re-armed only when the new request needs an
        *earlier* flush than already scheduled — the common case (a
        later-cutoff arrival joining an armed batch) costs nothing,
        keeping the per-request hot path free of timer churn.
        """
        if self._timer is not None:
            if cutoff >= self._timer_target:
                return
            self._timer.cancel()
        self._timer_target = cutoff
        self._timer = loop.call_at(cutoff, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        if not self._pending:
            return
        due = min(self._pending, key=lambda p: p.flush_at)
        self._flush(due.flush_reason)

    def _flush(self, reason: str) -> None:
        """Dispatch everything pending as one ``submit_batch`` call."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch = self._pending
        self._pending = []
        if not batch:
            return
        loop = asyncio.get_running_loop()
        now = loop.time()
        for item in batch:
            self._observe(
                obs_names.BATCH_COALESCE_WAIT_SECONDS,
                max(0.0, now - item.enqueued_at),
            )
        if self.metrics is not None:
            self.metrics.counter(
                obs_names.BATCH_FLUSH_TOTAL, reason=reason
            ).inc()
            self.metrics.histogram(
                obs_names.BATCH_FLUSH_SIZE, buckets=BATCH_SIZE_BUCKETS
            ).observe(len(batch))
        self.batches_dispatched += 1
        dispatch = loop.run_in_executor(
            self._executor, self._dispatch, batch, reason
        )
        self._dispatches.add(dispatch)

        def _deliver(done: asyncio.Future) -> None:
            self._dispatches.discard(done)
            error = done.exception()
            if error is not None:
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(error)
                return
            for item, response in zip(batch, done.result()):
                if not item.future.done():
                    item.future.set_result(response)

        dispatch.add_done_callback(_deliver)

    def _dispatch(
        self, batch: Sequence[_Pending], reason: str
    ) -> list[QueryResponse]:
        """Runs on a dispatch thread: one batch, one runtime call.

        The full front-end wait — coalescing window plus time queued
        behind earlier batches — is charged against each request's
        deadline budget *here*, at the last moment before execution, so
        a request whose budget the queue consumed times out instead of
        serving stale.  (No metric writes on this thread: the batcher's
        registry is confined to the event loop.)
        """
        now = time.monotonic()
        requests: list[QueryRequest] = []
        for item in batch:
            request = item.request
            if request.deadline is not None:
                waited = max(0.0, now - item.enqueued_mono)
                request = replace(
                    request, deadline=max(0.0, request.deadline - waited)
                )
            requests.append(request)
        # Wire-level correlation: the flush span names every trace id it
        # carried, so a client-visible trace_id can be joined with the
        # batch that served it.
        trace_ids = [r.trace_id for r in requests if r.trace_id is not None]
        with self.tracer.span(
            obs_names.SPAN_BATCH_FLUSH,
            size=len(requests),
            reason=reason,
            trace_ids=trace_ids,
        ):
            return self.runtime.submit_batch(requests)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    # -- lifecycle -----------------------------------------------------------

    async def drain(self) -> None:
        """Flush pending requests and wait for in-flight dispatches."""
        if self._pending:
            self._flush(FLUSH_DRAIN)
        while self._dispatches:
            await asyncio.gather(
                *list(self._dispatches), return_exceptions=True
            )

    async def close(self) -> None:
        """Drain, then release the dispatch threads.  Idempotent."""
        if self._closed:
            await self.drain()
            return
        self._closed = True
        await self.drain()
        self._executor.shutdown(wait=True)

    def merge_metrics_into(self, target: MetricsRegistry) -> None:
        """Fold the batcher's (loop-confined) registry into ``target``.

        Call only after :meth:`close` (or :meth:`drain`) — merging while
        dispatches run would race the runtime's own writes.
        """
        if self.metrics is not None and self.metrics is not target:
            target.merge(self.metrics)


__all__ = [
    "BATCH_SIZE_BUCKETS",
    "DEFAULT_DEADLINE_SLACK_MS",
    "DEFAULT_MAX_WAIT_MS",
    "FLUSH_DEADLINE",
    "FLUSH_DRAIN",
    "FLUSH_FULL",
    "FLUSH_TURN",
    "FLUSH_WAIT",
    "MicroBatcher",
    "flush_by",
]
