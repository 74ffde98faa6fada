"""The SpeakQL end-to-end pipeline (paper Figure 2).

``SpeakQL`` is a thin facade over the layered core: immutable compiled
assets live in a shared :class:`~repro.core.artifacts.SpeakQLArtifacts`
bundle (the paper's offline step), each query runs through the
composable stages of :mod:`repro.core.stages` (the online step), and
:class:`~repro.core.service.SpeakQLService` fans batches of queries over
worker threads sharing one bundle.

Typical use::

    catalog = build_employees_catalog()
    speakql = SpeakQL(catalog)
    output = speakql.query_from_speech("SELECT Salary FROM Employees", seed=7)
    output.sql              # corrected SQL string
    output.queries[:5]      # top-5 candidates

To amortize the offline step across pipelines (several catalogs, worker
threads, repeated sessions), build the artifacts once and pass them in::

    artifacts = SpeakQLArtifacts.build()
    employees_speakql = SpeakQL(employees, artifacts=artifacts)
    yelp_speakql = SpeakQL(yelp, artifacts=artifacts)   # index shared
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields

from repro.asr.engine import AsrResult, SimulatedAsrEngine
from repro.asr.speakers import SpeakerProfile
from repro.core.artifacts import SpeakQLArtifacts
from repro.core.result import RUNNER_UP_STAGE, SpeakQLOutput
from repro.core.stages import (
    CorrectedQuery,
    LiteralStage,
    MaskStage,
    QueryContext,
    StructureMatches,
    StructureSearchStage,
    TranscribeStage,
    run_stages,
)
from repro.grammar.generator import DEFAULT_MAX_TOKENS
from repro.literal.determiner import LiteralDeterminer
from repro.observability import names as obs_names
from repro.observability.forensics import QueryRecord
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NULL_TRACER, Tracer
from repro.phonetics.phonetic_index import PhoneticIndex
from repro.sqlengine.catalog import Catalog
from repro.structure.edit_distance import DEFAULT_WEIGHTS, TokenWeights
from repro.structure.indexer import StructureIndex
from repro.structure.search import StructureSearchEngine


#: Schema version of :meth:`SpeakQLConfig.to_dict`; bump on
#: incompatible change.  Replay bundles and the serving degradation
#: ladder both speak this format.
CONFIG_VERSION = 2


@dataclass(frozen=True)
class SpeakQLConfig:
    """Configuration knobs of the pipeline."""

    max_structure_tokens: int = DEFAULT_MAX_TOKENS
    top_k: int = 5
    weights: TokenWeights = DEFAULT_WEIGHTS
    use_bdb: bool = True
    use_dap: bool = False
    use_inv: bool = False
    literal_window_size: int = 4
    #: Optional path caching the generated structures on disk (the
    #: paper's offline index-build step); rebuilt when the cap changes.
    index_cache_path: str | None = None
    #: Future-work mode (paper Section 8): collapse masked literal runs
    #: before the structure search, de-emphasizing structure relative to
    #: literals so ASR token-splitting cannot inflate the distance.
    literal_focused: bool = False

    # -- versioned serialization ------------------------------------------

    def to_dict(self) -> dict:
        """Versioned, JSON-ready form of every config knob.

        The one config wire format: replay bundles store it
        (:class:`~repro.observability.forensics.ReplayBundle`), the
        serving degradation ladder derives cheaper configs through it,
        and :meth:`from_dict` round-trips it exactly.
        """
        data = asdict(self)  # recursive: weights becomes a plain dict
        data["version"] = CONFIG_VERSION
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpeakQLConfig":
        """Reconstruct a config from :meth:`to_dict` output.

        Rejects unsupported versions and unknown keys loudly — a config
        that silently dropped a knob would replay a bundle against the
        wrong pipeline.
        """
        version = data.get("version")
        if version != CONFIG_VERSION:
            raise ValueError(
                f"unsupported SpeakQLConfig version {version!r} "
                f"(this build reads version {CONFIG_VERSION})"
            )
        payload = {k: v for k, v in data.items() if k != "version"}
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown SpeakQLConfig keys: {unknown}")
        weights = payload.get("weights")
        if isinstance(weights, Mapping):
            payload["weights"] = TokenWeights(**weights)
        return cls(**payload)

    def with_overrides(self, overrides: Mapping | None) -> "SpeakQLConfig":
        """A copy with ``overrides`` applied over this config's knobs.

        Overrides flow through the versioned dict form, so any override
        set a request (or ladder rung) can express is exactly the set a
        serialized config can express.
        """
        if not overrides:
            return self
        data = self.to_dict()
        for key, value in dict(overrides).items():
            if key == "version" or key not in data:
                raise ValueError(f"unknown SpeakQLConfig override {key!r}")
            data[key] = value
        return SpeakQLConfig.from_dict(data)


@dataclass
class SpeakQL:
    """The end-to-end speech-driven querying system.

    Parameters
    ----------
    catalog:
        The database being queried (drives the phonetic index and value
        typing).
    engine:
        ASR engine; defaults to the artifacts' engine (an untrained
        custom engine when no artifacts are given).  Train it on spoken
        SQL (``engine.train_on_sql``) for the paper's accuracy.
    structure_index:
        Pre-built structure index; built from the subset grammar when
        omitted (the offline step of Section 3.2/3.3).
    phonetic_index:
        Pre-built phonetic index of ``catalog``; derived from the
        catalog (via the artifacts bundle) when omitted.
    artifacts:
        Shared compiled-asset bundle.  Pass one bundle to many pipelines
        to build the structure index once and share per-catalog phonetic
        indexes.
    tracer / metrics:
        Default observability handles for every query this pipeline
        serves (see :mod:`repro.observability`).  The defaults are
        strict no-ops; per-call ``tracer=``/``metrics=`` arguments
        override them.
    """

    catalog: Catalog
    engine: SimulatedAsrEngine | None = None
    structure_index: StructureIndex | None = None
    config: SpeakQLConfig = field(default_factory=SpeakQLConfig)
    phonetic_index: PhoneticIndex | None = None
    artifacts: SpeakQLArtifacts | None = None
    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry | None = None
    _searcher: StructureSearchEngine = field(init=False, repr=False)
    _determiner: LiteralDeterminer = field(init=False, repr=False)
    _mask_stage: MaskStage = field(init=False, repr=False)
    _search_stage: StructureSearchStage = field(init=False, repr=False)
    _ranked_search_stage: StructureSearchStage = field(init=False, repr=False)
    _literal_stage: LiteralStage = field(init=False, repr=False)
    _runner_up_stage: "RunnerUpStage" = field(init=False, repr=False)
    _transcribe_stage: TranscribeStage = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.artifacts is None:
            self.artifacts = self._build_artifacts()
        if self.engine is None:
            self.engine = self.artifacts.engine
        if self.structure_index is None:
            self.structure_index = self.artifacts.structure_index
        if self.phonetic_index is None:
            self.phonetic_index = self.artifacts.phonetic_index(self.catalog)
        self._searcher = StructureSearchEngine(
            index=self.structure_index,
            weights=self.config.weights,
            use_bdb=self.config.use_bdb,
            use_dap=self.config.use_dap,
            use_inv=self.config.use_inv,
        )
        self._determiner = LiteralDeterminer(
            catalog=self.catalog,
            index=self.phonetic_index,
            window_size=self.config.literal_window_size,
        )
        self._transcribe_stage = TranscribeStage(
            engine=self.engine, default_nbest=self.config.top_k
        )
        self._mask_stage = MaskStage(literal_focused=self.config.literal_focused)
        self._search_stage = StructureSearchStage(searcher=self._searcher, k=1)
        # Speech mode searches the rank-0 text once, at the width its
        # runner-up structures need (see process_asr_result).
        self._ranked_search_stage = StructureSearchStage(
            searcher=self._searcher, k=max(self.config.top_k, 1)
        )
        self._literal_stage = LiteralStage(determiner=self._determiner)
        self._runner_up_stage = RunnerUpStage(speakql=self)

    def _build_artifacts(self) -> SpeakQLArtifacts:
        """Resolve the compiled assets this facade was configured with."""
        index = self.structure_index
        if index is None and self.config.index_cache_path is not None:
            from repro.structure.persistence import load_or_build

            index = load_or_build(
                self.config.index_cache_path,
                max_tokens=self.config.max_structure_tokens,
            )
        return SpeakQLArtifacts.build(
            max_structure_tokens=self.config.max_structure_tokens,
            engine=self.engine,
            structure_index=index,
        )

    # -- public API ---------------------------------------------------------

    def query_from_speech(
        self,
        sql_text: str,
        seed: int,
        nbest: int | None = None,
        voice: "SpeakerProfile | None" = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        record: QueryRecord | None = None,
        deadline: float | None = None,
    ) -> SpeakQLOutput:
        """Dictate ``sql_text`` through the simulated ASR and correct it.

        ``voice`` optionally selects a synthesized speaker profile (one
        of the eight Polly voices), which scales the acoustic channel.
        ``tracer``/``metrics`` override the pipeline's observability
        handles for this query; ``record`` (from
        :meth:`~repro.observability.forensics.Recorder.start`) captures
        full decision provenance without altering the output.
        ``deadline`` is an **absolute** ``time.perf_counter()`` instant:
        past it, the query stops at the next stage boundary or literal
        placeholder with :class:`~repro.errors.DeadlineExceededError`
        (see :mod:`repro.serving` for budget-relative deadlines).
        """
        tracer = tracer if tracer is not None else self.tracer
        metrics = metrics if metrics is not None else self.metrics
        if metrics is not None:
            metrics.counter(obs_names.QUERIES_TOTAL, mode="speech").inc()
        ctx = QueryContext(
            seed=seed, nbest=nbest or self.config.top_k, voice=voice,
            tracer=tracer, metrics=metrics, query_record=record,
            deadline=deadline,
        )
        asr = run_stages([self._transcribe_stage], sql_text, ctx)
        return self.process_asr_result(asr, ctx=ctx)

    def process_asr_result(
        self, asr: AsrResult, ctx: QueryContext | None = None
    ) -> SpeakQLOutput:
        """Run structure + literal determination on an ASR result.

        Each ASR alternative is corrected independently; the output's
        query list is the deduplicated sequence of corrected candidates
        (the "top 5 outputs" of Table 2), padded with runner-up
        *structures* of the top transcription.  The rank-0 alternative
        is searched once at ``config.top_k``: its best match drives the
        rank-0 correction and the same ranked matches supply the
        runner-ups, so each distinct masked text is searched once.

        The output's ``timings`` sum every alternative's stages plus the
        runner-up decodes (:data:`RUNNER_UP_STAGE`), so they account for
        the whole query; its ``search_stats`` are rank 0's.
        """
        if ctx is None:
            ctx = QueryContext(tracer=self.tracer, metrics=self.metrics)
        queries: list[str] = []
        top: CorrectedQuery | None = None
        ranked: StructureMatches | None = None
        near: tuple[tuple[str, ...], ...] = ()
        for rank, text in enumerate(asr.alternatives):
            # The forensic record follows the rank-0 alternative only —
            # that is the correction the output's winner comes from.
            # Later alternatives differ from rank 0 by a word or two, so
            # rank 0's ranked structures seed their searches.
            step_ctx = QueryContext(
                tracer=ctx.tracer,
                metrics=ctx.metrics,
                query_record=ctx.query_record if rank == 0 else None,
                deadline=ctx.deadline,
                near=near,
            )
            if rank == 0:
                matches = run_stages(
                    [self._mask_stage, self._ranked_search_stage], text, step_ctx
                )
                corrected = run_stages([self._literal_stage], matches, step_ctx)
                if text == asr.text:
                    ranked = matches
                top = corrected
                near = tuple(r.structure for r in matches.results)
            else:
                corrected = self._correct_one(text, step_ctx)
                step_ctx.search_stats = None  # the output reports rank 0's
            # Every alternative's stage time counts toward the query's.
            ctx.merge(step_ctx)
            if corrected.sql and corrected.sql not in queries:
                queries.append(corrected.sql)
        if len(queries) < self.config.top_k:
            # Diversify with runner-up *structures* for the top ASR text
            # (the n-best list often differs only in literals, so its
            # corrections collapse to few distinct queries).
            skip = top.structure if top is not None else None
            runner_ups = run_stages(
                [self._runner_up_stage], (asr.text, ranked, skip), ctx
            )
            for candidate in runner_ups:
                if candidate and candidate not in queries:
                    queries.append(candidate)
                if len(queries) >= self.config.top_k:
                    break
        if ctx.query_record is not None:
            rec = ctx.query_record
            rec.asr_text = asr.text
            rec.asr_alternatives = tuple(asr.alternatives)
            rec.queries = tuple(queries)
            rec.sql = queries[0] if queries else ""
        return SpeakQLOutput(
            asr_text=asr.text,
            asr_alternatives=asr.alternatives,
            queries=queries,
            structure=top.structure if top else None,
            literal_result=top.literals if top else None,
            timings=ctx.timings(),
            search_stats=ctx.search_stats,
        )

    def correct_transcription(
        self,
        transcription: str,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        record: QueryRecord | None = None,
        deadline: float | None = None,
    ) -> SpeakQLOutput:
        """Correct a raw transcription text (no ASR step).

        ``tracer``/``metrics`` override the pipeline's observability
        handles for this query; ``record`` captures decision provenance
        (see :mod:`repro.observability.forensics`); ``deadline`` is an
        absolute ``time.perf_counter()`` cutoff enforced at stage
        boundaries and between literal placeholders.
        """
        tracer = tracer if tracer is not None else self.tracer
        metrics = metrics if metrics is not None else self.metrics
        if metrics is not None:
            metrics.counter(
                obs_names.QUERIES_TOTAL, mode="transcription"
            ).inc()
        ctx = QueryContext(
            tracer=tracer, metrics=metrics, query_record=record,
            deadline=deadline,
        )
        corrected = self._correct_one(transcription, ctx)
        if record is not None:
            record.asr_text = transcription
            record.asr_alternatives = (transcription,)
            record.queries = (corrected.sql,) if corrected.sql else ()
            record.sql = corrected.sql
        return SpeakQLOutput(
            asr_text=transcription,
            asr_alternatives=(transcription,),
            queries=[corrected.sql] if corrected.sql else [],
            structure=corrected.structure,
            literal_result=corrected.literals,
            timings=ctx.timings(),
            search_stats=ctx.search_stats,
        )

    # -- internals ------------------------------------------------------------

    def _correct_one(self, transcription: str, ctx: QueryContext) -> CorrectedQuery:
        """Mask → structure search → literal determination for one text."""
        return run_stages(
            [self._mask_stage, self._search_stage, self._literal_stage],
            transcription,
            ctx,
        )

    def _structure_alternatives(
        self, ranked: StructureMatches, skip, query_ctx: QueryContext
    ) -> list[str]:
        """Corrected queries for the runner-up structures of one text.

        ``ranked`` holds the text's top-k matches from the search that
        already ran for it, so only literal determination runs here.
        The decodes run under the query's tracer, so their
        ``literal.determine`` spans land in its trace; metrics and the
        forensic record follow the rank-0 correction only.
        """
        source = list(ranked.masked.source)
        out: list[str] = []
        for result in ranked.results:
            if skip is not None and result.structure == skip.structure:
                continue
            literals = self._determiner.determine(
                source,
                result.structure,
                tracer=query_ctx.tracer,
                deadline=query_ctx.deadline,
            )
            out.append(literals.sql())
        return out


@dataclass(frozen=True, eq=False)
class RunnerUpStage:
    """Runner-up structure decodes of the top transcription, timed as
    the query's ``runner_up`` stage.

    Takes ``(top_text, ranked, skip)``: ``ranked`` is the rank-0 search
    when the rank-0 alternative is the top text, else ``None`` and the
    top text is searched here (an empty or hand-built n-best list);
    ``skip`` is the structure the rank-0 correction already used.
    """

    speakql: SpeakQL
    name: str = RUNNER_UP_STAGE

    def run(self, value, ctx: QueryContext) -> list[str]:
        text, ranked, skip = value
        speakql = self.speakql
        if ranked is None:
            ranked = run_stages(
                [speakql._mask_stage, speakql._ranked_search_stage],
                text,
                QueryContext(tracer=ctx.tracer, deadline=ctx.deadline),
            )
        return speakql._structure_alternatives(ranked, skip, ctx)
