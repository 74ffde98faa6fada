"""The resilient serving runtime: deadlines, shedding, degraded modes.

:class:`ServingRuntime` wraps a
:class:`~repro.core.service.SpeakQLService` and turns the batch
service's all-or-nothing contract ("every query succeeds or the batch
raises") into per-request service levels.  Every
:class:`~repro.api.QueryRequest` comes back as a
:class:`~repro.api.QueryResponse` whose **outcome** is first class:

``served``
    Answered at full fidelity by the requested configuration (rung 0).
``degraded``
    Answered, but by a cheaper rung of the :data:`degradation ladder
    <DEFAULT_LADDER>` — because an earlier rung failed, the rung's
    circuit breaker was open, or the request arrived under deadline
    pressure.
``shed``
    Rejected at admission: the bounded in-flight queue was full.  The
    request never executed.
``timeout``
    The deadline passed while the query was running; the pipeline
    stopped cooperatively at the next stage boundary or literal
    placeholder (:class:`~repro.errors.DeadlineExceededError`).
``failed``
    Every rung that was tried raised; the last error is reported.

Deadlines are **cooperative**: a request's ``deadline`` is a relative
budget in seconds, converted to an absolute ``time.perf_counter()``
cutoff at admission and checked between pipeline stages (never inside
one), so a timed-out query stops at a clean boundary with no partial
state.

The **degradation ladder** is an ordered tuple of :class:`Rung` objects,
each naming a set of :class:`~repro.core.pipeline.SpeakQLConfig`
overrides that trade answer quality for latency and resilience.  Rung 0
is always the requested configuration; the default ladder then shrinks
``top_k`` to 1 (skipping the runner-up decodes), and finally falls back
to BDB-only pruning.  Derived pipelines share the base pipeline's
artifact bundle, so climbing a rung never re-runs the offline step.

Each rung carries a deterministic **circuit breaker**: after
``failure_threshold`` consecutive failures a rung is skipped ("open")
for the next ``cooldown_requests`` requests that consult it, then a
single trial request is let through ("half-open"); success closes the
breaker, failure re-opens it.  The breaker counts requests, not
wall-clock time, so trip/recover sequences are reproducible in tests.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro.api import (
    OUTCOME_DEGRADED,
    OUTCOME_FAILED,
    OUTCOME_SERVED,
    OUTCOME_TIMEOUT,
    QueryRequest,
    QueryResponse,
    shed_response,
)
from repro.core.pipeline import SpeakQL
from repro.core.service import SpeakQLService
from repro.errors import DeadlineExceededError
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_VALUES,
    CircuitBreaker,
)
from repro.observability import names as obs_names
from repro.observability.forensics import QueryRecord, Recorder
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NULL_TRACER, Tracer
from repro.serving.protocol import ERROR_INTERNAL
from repro.serving.sessions import SessionDecoder, SessionError, SessionStore

# -- the degradation ladder --------------------------------------------------


@dataclass(frozen=True)
class Rung:
    """One rung of the degradation ladder.

    ``name`` keys the rung's circuit breaker and metrics; ``overrides``
    are the :class:`~repro.core.pipeline.SpeakQLConfig` fields this rung
    forces (applied *over* any per-request overrides — degradation
    wins).
    """

    name: str
    overrides: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.overrides, Mapping):
            object.__setattr__(
                self, "overrides", tuple(sorted(self.overrides.items()))
            )

    def overrides_dict(self) -> dict[str, object]:
        return dict(self.overrides)


#: The default ladder: requested config, then ``top_k=1`` (which skips
#: the runner-up decodes), then ``top_k=1`` with BDB-only pruning.  All
#: rungs produce *valid* answers: the cheaper rungs only shrink the
#: candidate list and drop the approximate optimizations.
DEFAULT_LADDER: tuple[Rung, ...] = (
    Rung("requested"),
    Rung("reduced_top_k", {"top_k": 1}),
    Rung(
        "bdb_only",
        {
            "top_k": 1,
            "use_bdb": True,
            "use_dap": False,
            "use_inv": False,
        },
    ),
)


# -- circuit breaker ---------------------------------------------------------
#
# The breaker lives in :mod:`repro.resilience`, free of serving
# dependencies; it is re-exported here because serving code and tests
# import it from this module.


# -- the runtime -------------------------------------------------------------


class ServingRuntime:
    """Per-request serving over a shared :class:`SpeakQLService`.

    Parameters
    ----------
    service:
        The batch service to wrap; rung 0 with no per-request overrides
        runs on ``service.pipeline`` itself, so an unpressured runtime
        is bit-identical to ``service.run_batch``.
    queue_limit:
        Maximum requests in flight at once; request ``queue_limit + 1``
        is shed at admission.
    ladder:
        The degradation ladder (default :data:`DEFAULT_LADDER`).  Rung 0
        must be the requested configuration (empty overrides).
    degrade_below:
        Deadline-pressure threshold in seconds: a request whose budget
        is *below* this starts at rung 1 directly (skipping the
        expensive requested config), and is reported ``degraded``.
        ``None`` (default) disables pressure-based degradation.
    breaker:
        The shared :class:`CircuitBreaker` (a default one is built from
        ``breaker_threshold``/``breaker_cooldown`` when omitted).
    tracer / metrics:
        Serving-level observability handles.  The runtime wraps every
        request in a ``serve`` span and maintains the
        ``speakql_serving_*`` instruments (guarded by the admission
        lock — unlike pipeline metrics these are shared across worker
        threads).
    """

    def __init__(
        self,
        service: SpeakQLService,
        *,
        queue_limit: int = 16,
        ladder: Iterable[Rung] = DEFAULT_LADDER,
        degrade_below: float | None = None,
        breaker: CircuitBreaker | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: int = 8,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        window_seconds: float = 60.0,
        window_slots: int = 6,
        clock=time.monotonic,
        trace_sample_rate: float = 1.0,
        trace_sink=None,
        sample_rng: random.Random | None = None,
        session_ttl: float = 900.0,
        session_limit: int = 64,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in [0, 1]")
        self.service = service
        self.queue_limit = queue_limit
        self.ladder = tuple(ladder)
        if not self.ladder:
            raise ValueError("the degradation ladder needs at least one rung")
        if self.ladder[0].overrides:
            raise ValueError(
                "rung 0 must be the requested configuration (no overrides)"
            )
        self.degrade_below = degrade_below
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=breaker_threshold,
            cooldown_requests=breaker_cooldown,
        )
        self.tracer = tracer if tracer is not None else service.pipeline.tracer
        self.metrics = metrics
        self.window_seconds = float(window_seconds)
        self.window_slots = int(window_slots)
        self.trace_sample_rate = float(trace_sample_rate)
        self.trace_sink = trace_sink
        self._clock = clock
        self._started = clock()
        self._sample_rng = sample_rng if sample_rng is not None else random.Random()
        self._lock = threading.Lock()
        self._inflight = 0
        self._shed = 0
        self._outcomes = {outcome: 0 for outcome in
                          ("served", "degraded", "shed", "timeout", "failed")}
        self._rungs: dict[int, int] = {}
        self._pipelines: dict[tuple, SpeakQL] = {}
        self.sessions = SessionStore(
            limit=session_limit, ttl_seconds=session_ttl, clock=clock
        )
        self._session_decoder: SessionDecoder | None = None
        self._session_evictions_seen = {"lru": 0, "ttl": 0}

    # -- admission -----------------------------------------------------------

    def submit(
        self,
        query: object,
        *,
        record: QueryRecord | None = None,
        pipeline_metrics: MetricsRegistry | None = None,
    ) -> QueryResponse:
        """Serve one request end to end; never raises for request errors.

        ``pipeline_metrics`` (optional) receives the pipeline's own
        stage/search instruments; confine it to the calling thread (the
        runtime's serving counters live in ``self.metrics`` and are
        lock-guarded instead).
        """
        request = QueryRequest.from_legacy(query)
        with self._lock:
            self._count(obs_names.SERVING_REQUESTS_TOTAL)
            if self._inflight >= self.queue_limit:
                self._shed += 1
                self._outcomes["shed"] += 1
                self._count(
                    obs_names.SERVING_OUTCOMES_TOTAL, outcome="shed"
                )
                return shed_response(request)
            self._inflight += 1
            self._gauge(obs_names.SERVING_QUEUE_DEPTH, self._inflight)
        try:
            response = self._execute(request, record, pipeline_metrics)
        finally:
            with self._lock:
                self._inflight -= 1
                self._gauge(obs_names.SERVING_QUEUE_DEPTH, self._inflight)
        with self._lock:
            self._account_response(response)
        return response

    def serve_batch(
        self,
        queries: Iterable[object],
        *,
        workers: int = 1,
        recorder: Recorder | None = None,
    ) -> list[QueryResponse]:
        """Serve a batch, preserving input order.

        With no deadlines, no pressure, and the default configuration
        every response is ``served`` at rung 0 and ``[r.output for r in
        responses]`` is bit-identical to ``service.run_batch`` on the
        same inputs — the runtime adds service levels, never answers.
        """
        requests = [QueryRequest.from_legacy(q) for q in queries]
        records: list[QueryRecord | None]
        if recorder is not None:
            records = [recorder.start_request(req) for req in requests]
        else:
            records = [None] * len(requests)
        items = list(zip(requests, records))
        if workers <= 1 or len(items) <= 1:
            return [
                self.submit(req, record=rec) for req, rec in items
            ]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(
                pool.map(lambda item: self.submit(item[0], record=item[1]),
                         items)
            )

    # -- execution -----------------------------------------------------------

    def _execute(
        self,
        request: QueryRequest,
        record: QueryRecord | None,
        pipeline_metrics: MetricsRegistry | None,
    ) -> QueryResponse:
        admitted = time.perf_counter()
        deadline_at = (
            admitted + request.deadline
            if request.deadline is not None
            else None
        )
        start_rung = 0
        if (
            self.degrade_below is not None
            and request.deadline is not None
            and request.deadline < self.degrade_below
            and len(self.ladder) > 1
        ):
            start_rung = 1
        attempts = 0
        last_error: BaseException | None = None
        tracer = self._request_tracer()
        bind_trace = tracer.enabled and request.trace_id is not None
        if bind_trace:
            tracer.set_trace_id(request.trace_id)
        try:
            if request.session_id is not None:
                response = self._execute_session(
                    request, admitted, deadline_at, record, tracer
                )
            else:
                response = self._run_ladder(
                    request, start_rung, deadline_at, admitted, attempts,
                    last_error, record, pipeline_metrics, tracer,
                )
        finally:
            if bind_trace:
                tracer.set_trace_id(None)
        return response

    def _execute_session(
        self,
        request: QueryRequest,
        admitted: float,
        deadline_at: float | None,
        record: QueryRecord | None,
        tracer: Tracer,
    ) -> QueryResponse:
        """Serve one correction-session turn via the incremental decoder.

        The session path skips the degradation ladder: a clause-span
        decode is already the cheap path, and splicing cached spans must
        stay bit-identical to a cold decode — a rung swap mid-session
        would silently break that.  Session-contract violations come
        back as ``failed`` responses carrying the wire protocol's
        ``error_kind`` (``unknown_session`` / ``turn_conflict``), never
        as exceptions.
        """
        decoder = self._session_decoder_instance()
        turn_kind = "cold" if request.edit is None else request.edit.kind
        result = None
        with tracer.span(
            "session.turn", mode=request.mode,
            session_id=request.session_id, turn=request.turn,
        ) as span:
            try:
                result = decoder.decode(
                    request,
                    deadline_at=deadline_at,
                    clock=time.perf_counter,
                    tracer=tracer if tracer.enabled else None,
                    collect_partials=request.stream,
                )
            except SessionError as error:
                response = self._finish(
                    request, OUTCOME_FAILED, rung=0, attempts=1,
                    admitted=admitted, error=str(error), record=record,
                )
                response = replace(response, error_kind=error.kind)
            except DeadlineExceededError as error:
                response = self._finish(
                    request, OUTCOME_TIMEOUT, rung=0, attempts=1,
                    admitted=admitted, error=str(error), record=record,
                )
            except Exception as error:  # noqa: BLE001 - serving boundary
                response = self._finish(
                    request, OUTCOME_FAILED, rung=0, attempts=1,
                    admitted=admitted, error=str(error), record=record,
                )
                response = replace(response, error_kind=ERROR_INTERNAL)
            else:
                span.set("spans", result.spans_total)
                span.set("reused", len(result.reused_spans))
                response = self._finish(
                    request, OUTCOME_SERVED, rung=0, attempts=1,
                    admitted=admitted, output=result.output, record=record,
                )
                response = replace(
                    response,
                    reused_spans=result.reused_spans,
                    partials=result.partials,
                )
            span.set("outcome", response.outcome)
        if record is not None:
            record.session_id = request.session_id
            record.turn = request.turn
            record.reused_spans = response.reused_spans
        self._session_metrics(turn_kind, result, response.wall_seconds)
        return response

    def _session_decoder_instance(self) -> SessionDecoder:
        """The lazily built session decoder (clause indexes build on the
        first session request, sharing the service's artifact bundle)."""
        with self._lock:
            if self._session_decoder is None:
                from repro.core.clauses import ClauseSpeakQL

                pipeline = self.service.pipeline
                clauses = ClauseSpeakQL(
                    catalog=pipeline.catalog,
                    engine=pipeline.engine,
                    phonetic_index=pipeline.phonetic_index,
                    artifacts=pipeline.artifacts,
                )
                self._session_decoder = SessionDecoder(
                    clauses, self.sessions
                )
            return self._session_decoder

    def _session_metrics(
        self, turn_kind: str, result, wall_seconds: float
    ) -> None:
        """Fold one session turn into the serving instruments."""
        if self.metrics is None:
            return
        stats = self.sessions.stats()
        with self._lock:
            self._count(obs_names.SESSION_TURNS_TOTAL, kind=turn_kind)
            if result is not None:
                decoded = result.spans_total - len(result.reused_spans)
                if decoded:
                    self.metrics.counter(
                        obs_names.SESSION_SPANS_DECODED_TOTAL
                    ).inc(decoded)
                if result.reused_spans:
                    self.metrics.counter(
                        obs_names.SESSION_SPANS_REUSED_TOTAL
                    ).inc(len(result.reused_spans))
            self._gauge(obs_names.SESSION_LIVE, stats["live"])
            for reason, key in (
                ("lru", "evicted_lru_total"), ("ttl", "expired_total"),
            ):
                delta = stats[key] - self._session_evictions_seen[reason]
                if delta > 0:
                    self.metrics.counter(
                        obs_names.SESSION_EVICTIONS_TOTAL, reason=reason
                    ).inc(delta)
                    self._session_evictions_seen[reason] = stats[key]
            self.metrics.histogram(
                obs_names.SESSION_TURN_SECONDS
            ).observe(wall_seconds)

    def _run_ladder(
        self,
        request: QueryRequest,
        start_rung: int,
        deadline_at: float | None,
        admitted: float,
        attempts: int,
        last_error: BaseException | None,
        record: QueryRecord | None,
        pipeline_metrics: MetricsRegistry | None,
        tracer: Tracer,
    ) -> QueryResponse:
        with tracer.span("serve", mode=request.mode) as span:
            for index in range(start_rung, len(self.ladder)):
                rung = self.ladder[index]
                if deadline_at is not None and (
                    time.perf_counter() >= deadline_at
                ):
                    response = self._finish(
                        request, OUTCOME_TIMEOUT, rung=index,
                        attempts=attempts, admitted=admitted,
                        error=f"deadline exceeded before rung {rung.name!r}",
                        record=record,
                    )
                    break
                if not self.breaker.allow(rung.name):
                    self._breaker_metrics(rung.name)
                    continue
                attempts += 1
                try:
                    output = self._attempt(
                        request, index, deadline_at, record,
                        pipeline_metrics, tracer,
                    )
                except DeadlineExceededError as error:
                    # Ran out of budget mid-flight: terminal by
                    # definition (no budget left for a cheaper rung).
                    # The breaker is *not* charged — the rung did not
                    # malfunction, the clock ran out.
                    response = self._finish(
                        request, OUTCOME_TIMEOUT, rung=index,
                        attempts=attempts, admitted=admitted,
                        error=str(error), record=record,
                    )
                    break
                except Exception as error:  # noqa: BLE001 - ladder boundary
                    last_error = error
                    tripped = self.breaker.record_failure(rung.name)
                    if tripped:
                        self._count_locked(
                            obs_names.SERVING_BREAKER_TRIPS_TOTAL,
                            stage=rung.name,
                        )
                    self._breaker_metrics(rung.name)
                    continue
                self.breaker.record_success(rung.name)
                self._breaker_metrics(rung.name)
                outcome = (
                    OUTCOME_SERVED if index == 0 else OUTCOME_DEGRADED
                )
                response = self._finish(
                    request, outcome, rung=index, attempts=attempts,
                    admitted=admitted, output=output, record=record,
                )
                break
            else:
                detail = (
                    f"all {len(self.ladder) - start_rung} rung(s) failed"
                    + (f"; last error: {last_error}" if last_error else
                       " (every rung's breaker was open)")
                )
                response = self._finish(
                    request, OUTCOME_FAILED, rung=len(self.ladder) - 1,
                    attempts=attempts, admitted=admitted, error=detail,
                    record=record,
                )
            span.set("outcome", response.outcome)
            span.set("rung", response.rung)
            span.set("attempts", response.attempts)
        return response

    def _attempt(
        self,
        request: QueryRequest,
        rung_index: int,
        deadline_at: float | None,
        record: QueryRecord | None,
        pipeline_metrics: MetricsRegistry | None,
        tracer: Tracer | None = None,
    ):
        tracer = tracer if tracer is not None else self.tracer
        pipeline = self._pipeline_for(request, rung_index)
        if request.seed is None:
            return pipeline.correct_transcription(
                request.text,
                tracer=tracer,
                metrics=pipeline_metrics,
                record=record,
                deadline=deadline_at,
            )
        return pipeline.query_from_speech(
            request.text,
            seed=request.seed,
            nbest=request.nbest,
            voice=request.speaker,
            tracer=tracer,
            metrics=pipeline_metrics,
            record=record,
            deadline=deadline_at,
        )

    def _request_tracer(self) -> Tracer:
        """The tracer this request gets: the runtime's own, or the
        shared :data:`NULL_TRACER` when the sampling coin says no."""
        tracer = self.tracer
        if not tracer.enabled:
            return tracer
        if self.trace_sample_rate >= 1.0:
            return tracer
        if self.trace_sample_rate <= 0.0:
            return NULL_TRACER
        if self._sample_rng.random() < self.trace_sample_rate:
            return tracer
        return NULL_TRACER

    def _pipeline_for(self, request: QueryRequest, rung_index: int) -> SpeakQL:
        """The pipeline serving ``request`` at ladder rung ``rung_index``.

        Rung 0 with no per-request overrides is the base pipeline
        itself — the bit-identity guarantee.  Every other combination is
        a derived pipeline over the *same* artifact bundle, built once
        and cached by its effective override set.
        """
        rung = self.ladder[rung_index]
        merged = dict(request.overrides)
        merged.update(rung.overrides_dict())  # degradation wins
        if not merged:
            return self.service.pipeline
        key = tuple(sorted(merged.items()))
        with self._lock:
            pipeline = self._pipelines.get(key)
        if pipeline is not None:
            return pipeline
        base = self.service.pipeline
        config = base.config.with_overrides(merged)
        pipeline = SpeakQL(
            base.catalog,
            engine=base.engine,
            structure_index=base.structure_index,
            config=config,
            phonetic_index=base.phonetic_index,
            artifacts=base.artifacts,
        )
        with self._lock:
            return self._pipelines.setdefault(key, pipeline)

    def _finish(
        self,
        request: QueryRequest,
        outcome: str,
        *,
        rung: int,
        attempts: int,
        admitted: float,
        output=None,
        error: str | None = None,
        record: QueryRecord | None = None,
    ) -> QueryResponse:
        return QueryResponse(
            request=request,
            outcome=outcome,
            output=output,
            record=record,
            rung=rung,
            attempts=attempts,
            error=error,
            wall_seconds=time.perf_counter() - admitted,
        )

    # -- health & metrics ----------------------------------------------------

    def health(self) -> dict:
        """A JSON-ready liveness/readiness snapshot (daemon probes)."""
        with self._lock:
            outcomes = dict(self._outcomes)
            inflight = self._inflight
        return {
            "status": "ok",
            "ready": self.service.artifacts is not None,
            "inflight": inflight,
            "queue_limit": self.queue_limit,
            "outcomes": outcomes,
            "breakers": self.breaker.states(),
            "ladder": [rung.name for rung in self.ladder],
            "sessions": {
                "live": len(self.sessions),
                "limit": self.sessions.limit,
            },
        }

    def statusz(self) -> dict:
        """A JSON-ready operator snapshot for ``GET /statusz``.

        Everything :meth:`health` reports, plus uptime, queue depth vs
        capacity, per-rung serve counts, per-rung breaker states, and
        rolling p50/p95/p99 end-to-end latency from the windowed
        histogram (alongside the cumulative-since-start figures).
        """
        now = self._clock()
        rolling = cumulative = None
        with self._lock:
            outcomes = dict(self._outcomes)
            inflight = self._inflight
            rungs = {str(r): n for r, n in sorted(self._rungs.items())}
            if self.metrics is not None:
                rolling = self.metrics.rolling_histogram(
                    obs_names.SERVING_E2E_WINDOW_SECONDS,
                    window_seconds=self.window_seconds,
                    slots=self.window_slots,
                    clock=self._clock,
                ).snapshot(now)
                cumulative = self.metrics.histogram(obs_names.SERVING_SECONDS)

        def _percentiles(histogram) -> dict:
            if histogram is None or histogram.count == 0:
                return {"count": 0, "p50_ms": None, "p95_ms": None,
                        "p99_ms": None}
            return {
                "count": histogram.count,
                "p50_ms": round(histogram.quantile(0.50) * 1000.0, 3),
                "p95_ms": round(histogram.quantile(0.95) * 1000.0, 3),
                "p99_ms": round(histogram.quantile(0.99) * 1000.0, 3),
            }

        return {
            "status": "ok",
            "ready": self.service.artifacts is not None,
            "uptime_seconds": round(now - self._started, 3),
            "queue": {"depth": inflight, "capacity": self.queue_limit},
            "outcomes": outcomes,
            "ladder": {
                "rungs": [rung.name for rung in self.ladder],
                "served_by_rung": rungs,
                "breakers": self.breaker.states(),
            },
            "sessions": self.sessions.stats(),
            "latency": {
                "window_seconds": self.window_seconds,
                "rolling": _percentiles(rolling),
                "cumulative": _percentiles(cumulative),
            },
            "trace": {
                "sample_rate": self.trace_sample_rate,
                "sink": (
                    str(self.trace_sink.path)
                    if self.trace_sink is not None else None
                ),
            },
        }

    def flush_traces(self) -> int:
        """Drain finished spans into the trace sink (no-op without one).

        Only spans carrying a ``trace_id`` attribute — i.e. belonging to
        a sampled, correlated request — are written; the rest are
        discarded with the drain.  Returns the spans written.
        """
        if self.trace_sink is None or not self.tracer.enabled:
            return 0
        spans = self.tracer.drain()
        keep = [
            span.to_dict()
            for span in spans
            if span.attributes.get("trace_id") is not None
        ]
        return self.trace_sink.write_spans(keep)

    def shutdown(self) -> None:
        """Flush any traces still buffered on the tracer (the daemon
        calls this once, after its drain)."""
        self.flush_traces()

    def _account_response(self, response: QueryResponse) -> None:
        """Fold one finished response into the counters; caller holds
        ``self._lock``."""
        self._outcomes[response.outcome] += 1
        self._count(obs_names.SERVING_OUTCOMES_TOTAL,
                    outcome=response.outcome)
        if response.ok:
            self._rungs[response.rung] = (
                self._rungs.get(response.rung, 0) + 1
            )
            self._count(obs_names.SERVING_RUNG_TOTAL,
                        rung=str(response.rung))
        self._observe_e2e(response.wall_seconds)

    def _observe_e2e(self, value: float) -> None:
        """Record one end-to-end latency into both the cumulative and
        the rolling-window histogram; caller holds ``self._lock``."""
        if self.metrics is None:
            return
        self.metrics.histogram(obs_names.SERVING_SECONDS).observe(value)
        self.metrics.rolling_histogram(
            obs_names.SERVING_E2E_WINDOW_SECONDS,
            window_seconds=self.window_seconds,
            slots=self.window_slots,
            clock=self._clock,
        ).observe(value)

    def _count(self, name: str, **labels: str) -> None:
        """Bump a serving counter; caller holds ``self._lock``."""
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc()

    def _count_locked(self, name: str, **labels: str) -> None:
        with self._lock:
            self._count(name, **labels)

    def _gauge(self, name: str, value: float, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name, **labels).set(value)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    def _breaker_metrics(self, rung_name: str) -> None:
        if self.metrics is None:
            return
        state = self.breaker.state(rung_name)
        with self._lock:
            self._gauge(
                obs_names.SERVING_BREAKER_STATE,
                BREAKER_STATE_VALUES[state],
                stage=rung_name,
            )


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_VALUES",
    "CircuitBreaker",
    "DEFAULT_LADDER",
    "Rung",
    "ServingRuntime",
]
