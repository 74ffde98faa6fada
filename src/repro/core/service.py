"""Parallel batch serving over one shared artifact bundle.

:class:`SpeakQLService` is the online serving layer: it owns a
:class:`~repro.core.pipeline.SpeakQL` facade backed by a read-only
:class:`~repro.core.artifacts.SpeakQLArtifacts` bundle and fans batches
of queries over worker threads.  All per-query state lives in a
:class:`~repro.core.stages.QueryContext` and all randomness flows
through explicit per-query seeds, so ``run_batch(..., workers=N)``
returns results in input order, bit-identical to the serial loop —
parallelism changes wall-clock time, never output.

Observability: ``run_batch(..., tracer=..., metrics=...)`` (or the
pipeline's default handles) wraps the batch in a ``batch`` span with one
child ``query`` span per request, and aggregates metrics **lock-free** —
each worker thread records into its own private
:class:`~repro.observability.metrics.MetricsRegistry`, and the per-
thread registries are merged into the caller's registry once, at batch
end (counter/histogram merging is commutative, so worker scheduling
cannot change the totals).  Queue wait (submit → execution start) and
execute time are reported separately per request as the
``speakql_batch_queue_wait_seconds`` / ``speakql_batch_execute_seconds``
histograms — the number that distinguishes "the pool is saturated" from
"queries are slow".  With both handles off, batches take the original
untouched fast path.

Requests are :class:`~repro.api.QueryRequest` objects — the unified
request type shared with the serving runtime, CLI, REPL, and daemon
(see :mod:`repro.api`).  The historical ``(sql, seed)`` tuple form
still normalizes, through a deprecation shim that warns once per call
site; new code constructs requests explicitly.

Typical use::

    service = SpeakQLService(catalog, artifacts=artifacts)
    outputs = service.run_batch(
        [QueryRequest(text="SELECT Salary FROM Employees", seed=7), ...],
        workers=4,
    )

    registry = MetricsRegistry()
    service.run_batch(queries, workers=4, metrics=registry)
    registry.histogram("speakql_stage_seconds",
                       stage="structure_search").quantile(0.95)
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING

from repro.api import BatchQueryError, QueryRequest
from repro.core.artifacts import SpeakQLArtifacts
from repro.core.pipeline import SpeakQL, SpeakQLConfig
from repro.core.result import SpeakQLOutput
from repro.observability import names as obs_names
from repro.observability.forensics import QueryRecord, Recorder, ReplayBundle
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Tracer
from repro.phonetics.phonetic_index import PhoneticIndex
from repro.sqlengine.catalog import Catalog

if TYPE_CHECKING:
    from repro.asr.engine import SimulatedAsrEngine


#: Legacy name for the batch request type; :class:`~repro.api.QueryRequest`
#: is the same class under its unified-API name.
BatchRequest = QueryRequest


class SpeakQLService:
    """Batch front-end sharing one read-only artifact bundle."""

    def __init__(
        self,
        catalog: Catalog | None = None,
        *,
        pipeline: SpeakQL | None = None,
        artifacts: SpeakQLArtifacts | None = None,
        config: SpeakQLConfig | None = None,
        engine: "SimulatedAsrEngine | None" = None,
        phonetic_index: PhoneticIndex | None = None,
    ) -> None:
        if pipeline is None:
            if catalog is None:
                raise ValueError("SpeakQLService needs a catalog or a pipeline")
            pipeline = SpeakQL(
                catalog,
                engine=engine,
                config=config or SpeakQLConfig(),
                phonetic_index=phonetic_index,
                artifacts=artifacts,
            )
        self.pipeline = pipeline
        self.artifacts = pipeline.artifacts

    @classmethod
    def from_pipeline(cls, pipeline: SpeakQL) -> "SpeakQLService":
        """Wrap an existing pipeline (shares its artifacts)."""
        return cls(pipeline=pipeline)

    @property
    def catalog(self) -> Catalog:
        return self.pipeline.catalog

    # -- single-query passthroughs -----------------------------------------

    def correct_transcription(self, transcription: str) -> SpeakQLOutput:
        return self.pipeline.correct_transcription(transcription)

    def query_from_speech(self, sql_text: str, seed: int, **kwargs) -> SpeakQLOutput:
        return self.pipeline.query_from_speech(sql_text, seed=seed, **kwargs)

    # -- batch API ----------------------------------------------------------

    def run_batch(
        self,
        spoken_queries: Iterable[object],
        *,
        workers: int = 1,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        recorder: Recorder | None = None,
    ) -> list[SpeakQLOutput]:
        """Run a batch of queries, fanning over ``workers`` threads.

        Accepts :class:`~repro.api.QueryRequest` objects, bare
        transcription strings (corrected without an ASR step), or any
        object with ``sql``/``seed`` attributes (e.g.
        :class:`~repro.dataset.spoken.SpokenQuery`).  The historical
        ``(sql_text, seed)`` tuple form still works through a
        ``DeprecationWarning`` shim.  Results come back in input order
        and are bit-identical to the serial loop; ``workers=1`` (the
        default) is the paper-faithful serial path.  A worker exception
        is re-raised as :class:`~repro.api.BatchQueryError` naming the
        failing request's input index, chained from the original.

        ``tracer``/``metrics`` override the pipeline's observability
        handles for this batch (see the module docstring for the
        span/metric layout and the lock-free aggregation scheme).  A
        ``recorder`` captures one forensic
        :class:`~repro.observability.forensics.QueryRecord` per request,
        in input order, without changing any output (see
        :meth:`write_replay_bundle`).
        """
        tracer = tracer if tracer is not None else self.pipeline.tracer
        metrics = metrics if metrics is not None else self.pipeline.metrics
        requests = [self._normalize(query) for query in spoken_queries]
        if not tracer.enabled and metrics is None and recorder is None:

            def run(item: tuple[int, QueryRequest]) -> SpeakQLOutput:
                index, request = item
                try:
                    return self._run_one(request)
                except Exception as error:
                    raise BatchQueryError(index, request, error) from error

            items = list(enumerate(requests))
            if workers <= 1 or len(requests) <= 1:
                return [run(item) for item in items]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(run, items))
        return self._run_batch_observed(
            requests, workers, tracer, metrics, recorder
        )

    def correct_batch(
        self,
        transcriptions: Sequence[str],
        *,
        workers: int = 1,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        recorder: Recorder | None = None,
    ) -> list[SpeakQLOutput]:
        """Correct raw transcriptions (no ASR step) as a batch."""
        return self.run_batch(
            [BatchRequest(text=text) for text in transcriptions],
            workers=workers,
            tracer=tracer,
            metrics=metrics,
            recorder=recorder,
        )

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _normalize(query: object) -> QueryRequest:
        return QueryRequest.from_legacy(query)

    def _run_one(
        self,
        request: QueryRequest,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        record: QueryRecord | None = None,
    ) -> SpeakQLOutput:
        # A request-level deadline is a relative budget; the pipeline
        # wants an absolute ``perf_counter`` cutoff.  The clock starts
        # when execution starts — admission latency is the serving
        # runtime's concern, not the batch service's.
        deadline = (
            time.perf_counter() + request.deadline
            if request.deadline is not None
            else None
        )
        if request.seed is None:
            return self.pipeline.correct_transcription(
                request.text,
                tracer=tracer,
                metrics=metrics,
                record=record,
                deadline=deadline,
            )
        return self.pipeline.query_from_speech(
            request.text,
            seed=request.seed,
            nbest=request.nbest,
            voice=request.speaker,
            tracer=tracer,
            metrics=metrics,
            record=record,
            deadline=deadline,
        )

    def _run_batch_observed(
        self,
        requests: list[QueryRequest],
        workers: int,
        tracer: Tracer,
        metrics: MetricsRegistry | None,
        recorder: Recorder | None = None,
    ) -> list[SpeakQLOutput]:
        """The traced/metered batch path.

        Per-worker registries are created lazily (one small lock guards
        only registry *creation*, never the recording hot path) and
        merged into ``metrics`` after the pool drains, so worker threads
        never contend on shared counters.
        """
        registries: list[MetricsRegistry] = []
        creation_lock = threading.Lock()
        local = threading.local()

        def worker_registry() -> MetricsRegistry | None:
            if metrics is None:
                return None
            registry = getattr(local, "registry", None)
            if registry is None:
                registry = MetricsRegistry()
                with creation_lock:
                    registries.append(registry)
                local.registry = registry
            return registry

        effective_workers = max(1, min(workers, max(len(requests), 1)))
        # Forensic records are started up front, in input order, so
        # ``recorder.records`` aligns with the outputs regardless of how
        # the pool schedules the work.
        records: list[QueryRecord | None]
        if recorder is not None:
            records = [recorder.start_request(req) for req in requests]
        else:
            records = [None] * len(requests)
        batch_start = time.perf_counter()
        try:
            with tracer.span(
                "batch", queries=len(requests), workers=effective_workers
            ) as batch_span:
                # Every request is enqueued up front (both the serial loop
                # and ``pool.map`` submit immediately), so queue wait is
                # execution start minus this instant.
                enqueued = time.perf_counter()

                def run(item: tuple[int, QueryRequest]) -> SpeakQLOutput:
                    index, request = item
                    registry = worker_registry()
                    started = time.perf_counter()
                    try:
                        with tracer.span(
                            "query", parent=batch_span, mode=request.mode
                        ):
                            output = self._run_one(
                                request, tracer, registry, records[index]
                            )
                    except Exception as error:
                        # The query span above already captured the
                        # original exception; re-raise tagged with the
                        # input index so callers know which request died.
                        raise BatchQueryError(index, request, error) from error
                    if registry is not None:
                        finished = time.perf_counter()
                        registry.histogram(
                            obs_names.BATCH_QUEUE_WAIT_SECONDS
                        ).observe(started - enqueued)
                        registry.histogram(
                            obs_names.BATCH_EXECUTE_SECONDS
                        ).observe(finished - started)
                        registry.counter(obs_names.BATCH_QUERIES_TOTAL).inc()
                    return output

                items = list(enumerate(requests))
                if effective_workers <= 1 or len(requests) <= 1:
                    outputs = [run(item) for item in items]
                else:
                    with ThreadPoolExecutor(
                        max_workers=effective_workers
                    ) as pool:
                        outputs = list(pool.map(run, items))
        finally:
            # Merge in a ``finally`` so a raising query still folds the
            # completed workers' registries into the caller's view — a
            # mid-batch failure must not silently drop the metrics of
            # every request that finished before it.
            if metrics is not None:
                for registry in registries:
                    metrics.merge(registry)
                metrics.histogram(obs_names.BATCH_SECONDS).observe(
                    time.perf_counter() - batch_start
                )
                metrics.gauge(obs_names.BATCH_WORKERS).set(effective_workers)
                if self.artifacts is not None:
                    self.artifacts.publish_metrics(metrics)
        return outputs

    # -- forensics ------------------------------------------------------------

    def write_replay_bundle(
        self,
        path: str | Path,
        recorder: Recorder,
        *,
        environment: dict | None = None,
    ) -> ReplayBundle:
        """Write ``recorder``'s records as a replay bundle at ``path``.

        The bundle carries the pipeline configuration, the artifact
        fingerprint (checked on replay — see
        :func:`~repro.observability.forensics.replay_bundle`), and an
        optional ``environment`` dict describing how to rebuild the
        pipeline (e.g. CLI schema/train/kernel arguments).
        """
        bundle = ReplayBundle(
            config=self.pipeline.config.to_dict(),
            fingerprint=self.artifacts.fingerprint()
            if self.artifacts is not None
            else {},
            records=list(recorder.records),
            environment=dict(environment or {}),
        )
        bundle.write(path)
        return bundle
