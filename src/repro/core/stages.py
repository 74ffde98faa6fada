"""Composable pipeline stages over a per-query context.

The online half of the paper's Figure 2 is a short chain of stages —
transcribe → mask → structure search → literal determination — each a
cheap pass over one query.  This module expresses them as small,
immutable :class:`PipelineStage` objects sharing nothing but the
read-only compiled assets they wrap (see
:mod:`repro.core.artifacts`), plus a mutable per-query
:class:`QueryContext` that accumulates stage timings and search
statistics.  :func:`run_stages` threads a value through a stage chain,
timing each stage into the context.

The context also carries the query's observability handles: a
:class:`~repro.observability.trace.Tracer` (default: the shared
disabled :data:`~repro.observability.trace.NULL_TRACER`) and an
optional :class:`~repro.observability.metrics.MetricsRegistry`.  When
either is live, :func:`run_stages` wraps each stage in a
``stage.<name>`` span and observes its wall seconds into the
``speakql_stage_seconds`` histogram; when both are off it runs the
original untraced loop, so the disabled path costs one extra branch per
query (see ``tests/observability/test_tracer.py``).

Because stages hold only immutable state and the context is per query,
the same stage objects can serve many queries concurrently (see
:class:`repro.core.service.SpeakQLService`).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.asr.engine import AsrResult, SimulatedAsrEngine
from repro.errors import DeadlineExceededError
from repro.core.result import (
    LITERAL_STAGE,
    MASK_STAGE,
    STRUCTURE_STAGE,
    TRANSCRIBE_STAGE,
    ComponentTimings,
)
from repro.literal.determiner import LiteralDeterminer, LiteralResult
from repro.observability import names as obs_names
from repro.observability.forensics import QueryRecord, StructureCandidate
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NULL_TRACER, Tracer
from repro.structure.masking import (
    MaskedTranscription,
    collapse_literal_runs,
    preprocess_transcription,
)
from repro.structure.search import SearchResult, SearchStats, StructureSearchEngine

if TYPE_CHECKING:
    from repro.asr.speakers import SpeakerProfile


@dataclass
class QueryContext:
    """Mutable per-query state threaded through the stages.

    One context serves one query (or one ASR alternative); contexts are
    never shared across queries, which is what keeps the batch service's
    parallel path bit-identical to the serial one.
    """

    seed: int | None = None
    nbest: int | None = None
    voice: "SpeakerProfile | None" = None
    stage_seconds: dict[str, float] = field(default_factory=dict)
    search_stats: SearchStats | None = None
    #: Observability handles; the defaults are strict no-ops.
    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry | None = None
    #: Forensic provenance record the stages fill in when recording is
    #: on (see :mod:`repro.observability.forensics`).  Stages only ever
    #: *add* observations; the pipeline's outputs are bit-identical with
    #: or without a record attached.
    query_record: QueryRecord | None = None
    #: Absolute ``time.perf_counter()`` cutoff for this query, or
    #: ``None`` for no deadline.  Enforced *cooperatively*: the query is
    #: only stopped between stages (:meth:`check_deadline`) and, inside
    #: literal determination, between placeholders — never inside a
    #: search or a vote, so a timed-out query leaves no half-mutated
    #: state.
    deadline: float | None = None
    #: Structures expected near this query's best match: the rank-0
    #: alternative's ranked structures, handed to each later n-best
    #: alternative so its search starts from their exact distances
    #: instead of a beam probe (:meth:`StructureSearchEngine.search`'s
    #: ``near``).  Request data, never engine state, so threads sharing
    #: an engine cannot see another request's structures.  Results are
    #: the same with or without it.
    near: tuple[tuple[str, ...], ...] = ()

    def record(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` against ``stage``."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def check_deadline(self, boundary: str) -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` when past due.

        ``boundary`` names the stage that was about to run; it lands on
        the exception (and in the serving runtime's timeout report).
        """
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            raise DeadlineExceededError(
                f"deadline exceeded before stage {boundary!r}",
                stage=boundary,
            )

    def merge(self, other: "QueryContext") -> None:
        """Fold another context's timings and stats into this one."""
        for stage, seconds in other.stage_seconds.items():
            self.record(stage, seconds)
        if other.search_stats is not None:
            self.search_stats = other.search_stats

    def timings(self) -> ComponentTimings:
        return ComponentTimings(stages=self.stage_seconds)


@runtime_checkable
class PipelineStage(Protocol):
    """One step of the online pipeline: ``run(value, ctx) -> value``."""

    name: str

    def run(self, value: Any, ctx: QueryContext) -> Any: ...


def run_stages(stages: list[PipelineStage], value: Any, ctx: QueryContext) -> Any:
    """Thread ``value`` through ``stages``, timing each into ``ctx``.

    With the context's tracer disabled and no registry attached this is
    the original untouched loop; otherwise each stage runs inside a
    ``stage.<name>`` span and its wall seconds land in the
    ``speakql_stage_seconds{stage=<name>}`` histogram.  Either way a
    stage's seconds are recorded exactly once in ``ctx``, never as
    overlapping timings.

    Deadlines are enforced here, at stage boundaries: with
    ``ctx.deadline`` set, each stage is preceded by a
    :meth:`QueryContext.check_deadline` — a query past its cutoff stops
    before the next stage starts and raises
    :class:`~repro.errors.DeadlineExceededError` naming the boundary.
    Inside the literal stage the determiner also checks before every
    placeholder (:meth:`LiteralStage.run` passes ``ctx.deadline``).
    """
    tracer = ctx.tracer
    metrics = ctx.metrics
    if not tracer.enabled and metrics is None:
        if ctx.deadline is None:
            for stage in stages:
                start = time.perf_counter()
                value = stage.run(value, ctx)
                ctx.record(stage.name, time.perf_counter() - start)
            return value
        for stage in stages:
            ctx.check_deadline(stage.name)
            start = time.perf_counter()
            value = stage.run(value, ctx)
            ctx.record(stage.name, time.perf_counter() - start)
        return value
    for stage in stages:
        if ctx.deadline is not None:
            ctx.check_deadline(stage.name)
        with tracer.span(obs_names.STAGE_SPAN_PREFIX + stage.name):
            start = time.perf_counter()
            value = stage.run(value, ctx)
            elapsed = time.perf_counter() - start
        ctx.record(stage.name, elapsed)
        if metrics is not None:
            metrics.histogram(
                obs_names.STAGE_SECONDS, stage=stage.name
            ).observe(elapsed)
    return value


# -- intermediate values -----------------------------------------------------


@dataclass(frozen=True)
class MaskedQuery:
    """A preprocessed transcription plus the tokens fed to the search."""

    masked: MaskedTranscription
    search_tokens: tuple[str, ...]

    @property
    def source(self) -> tuple[str, ...]:
        return self.masked.source


@dataclass(frozen=True)
class StructureMatches:
    """Search results for one masked transcription."""

    masked: MaskedQuery
    results: tuple[SearchResult, ...]

    @property
    def best(self) -> SearchResult | None:
        return self.results[0] if self.results else None


@dataclass(frozen=True)
class CorrectedQuery:
    """Final per-alternative correction: SQL plus its evidence."""

    sql: str
    structure: SearchResult | None
    literals: LiteralResult | None


# -- stages ------------------------------------------------------------------


@dataclass(frozen=True)
class TranscribeStage:
    """Dictate SQL text through the simulated ASR engine."""

    engine: SimulatedAsrEngine
    default_nbest: int = 5
    name: str = TRANSCRIBE_STAGE

    def run(self, value: str, ctx: QueryContext) -> AsrResult:
        if ctx.seed is None:
            raise ValueError("TranscribeStage requires ctx.seed")
        channel = None
        if ctx.voice is not None:
            channel = ctx.voice.channel(self.engine.channel.profile)
        return self.engine.transcribe(
            value,
            seed=ctx.seed,
            nbest=ctx.nbest or self.default_nbest,
            channel=channel,
            tracer=ctx.tracer,
            record=ctx.query_record,
        )


@dataclass(frozen=True)
class MaskStage:
    """SplChar handling + literal masking of a raw transcription."""

    literal_focused: bool = False
    name: str = MASK_STAGE

    def run(self, value: str, ctx: QueryContext) -> MaskedQuery:
        masked = preprocess_transcription(value)
        tokens = masked.masked
        if self.literal_focused:
            tokens = collapse_literal_runs(tokens)
        result = MaskedQuery(masked=masked, search_tokens=tuple(tokens))
        if ctx.query_record is not None:
            ctx.query_record.source_tokens = tuple(masked.source)
            ctx.query_record.masked = result.search_tokens
        return result


@dataclass(frozen=True)
class StructureSearchStage:
    """Similarity search over the shared structure index.

    The wrapped engine runs its one kernel against arrays lowered once
    in the offline step, so concurrent queries share the index without
    copying or locking.
    """

    searcher: StructureSearchEngine
    k: int = 1
    name: str = STRUCTURE_STAGE

    def run(self, value: MaskedQuery, ctx: QueryContext) -> StructureMatches:
        record = ctx.query_record
        # The forensic record wants the ranked top-k context, not just
        # the stage's own k.  One search at the wider k serves both: its
        # top-k prefix is exactly a k-wide search, so recording never
        # perturbs the output.
        width = self.k if record is None else max(record.top_k, self.k)
        ranked, stats = self.searcher.search(
            value.search_tokens, k=width, near=ctx.near
        )
        results = ranked[: self.k]
        ctx.search_stats = stats
        if record is not None:
            record.candidates = tuple(
                StructureCandidate(structure=tuple(r.structure), distance=r.distance)
                for r in ranked
            )
            record.search_stats = asdict(stats)
        if ctx.metrics is not None:
            _publish_search_stats(ctx.metrics, stats)
        return StructureMatches(masked=value, results=tuple(results))


@dataclass(frozen=True)
class LiteralStage:
    """Fill the best structure's placeholders from the phonetic index."""

    determiner: LiteralDeterminer
    name: str = LITERAL_STAGE

    def run(self, value: StructureMatches, ctx: QueryContext) -> CorrectedQuery:
        best = value.best
        if best is None:
            return CorrectedQuery(sql="", structure=None, literals=None)
        literals = self.determiner.determine(
            list(value.masked.source),
            best.structure,
            tracer=ctx.tracer,
            record=ctx.query_record,
            deadline=ctx.deadline,
        )
        return CorrectedQuery(sql=literals.sql(), structure=best, literals=literals)


def _publish_search_stats(metrics: MetricsRegistry, stats: SearchStats) -> None:
    """Fold one search's statistics into the registry.

    Cache hits count as served searches (plus a cache-hit tick) but do
    not re-count the original search's work counters.
    """
    metrics.counter(obs_names.SEARCH_TOTAL).inc()
    if stats.result_cache_hit:
        metrics.counter(obs_names.SEARCH_RESULT_CACHE_HITS).inc()
        return
    metrics.counter(obs_names.SEARCH_NODES_VISITED).inc(stats.nodes_visited)
    metrics.counter(obs_names.SEARCH_DP_CELLS).inc(stats.dp_cells)
    metrics.counter(obs_names.SEARCH_TRIES_SEARCHED).inc(stats.tries_searched)
    metrics.counter(obs_names.SEARCH_TRIES_SKIPPED).inc(stats.tries_skipped)
    metrics.counter(
        obs_names.SEARCH_CANDIDATES_SCORED
    ).inc(stats.candidates_scored)
    if stats.levels_visited:
        metrics.counter(
            obs_names.SEARCH_LEVELS_VISITED
        ).inc(stats.levels_visited)
    if stats.rows_pruned:
        metrics.counter(obs_names.SEARCH_ROWS_PRUNED).inc(stats.rows_pruned)
    if stats.beam_bound_updates:
        metrics.counter(
            obs_names.SEARCH_BEAM_BOUND_UPDATES
        ).inc(stats.beam_bound_updates)
    if stats.near_seeds:
        metrics.counter(obs_names.SEARCH_NEAR_SEEDS).inc(stats.near_seeds)
