"""Query forensics: decision provenance, record/replay, attribution.

When the pipeline gets a query wrong, the PR 3 trace says where time
went but not *why* the answer was wrong.  This module captures the full
decision provenance of a query — the acoustic-channel error events, the
top-k structure candidates with their weighted edit distances, and the
per-placeholder literal voting tallies — into a versioned,
JSON-serializable :class:`QueryRecord`, and builds three consumers on
top of it:

- **record/replay** — a :class:`ReplayBundle` (records + pipeline config
  + artifact fingerprints) written at batch end; :func:`replay_record`
  re-executes a single query from it and :func:`replay_mismatches`
  asserts the output is bit-identical, turning any production miss into
  an offline repro case.  A bundle whose fingerprint does not match the
  serving artifacts fails loudly (:class:`FingerprintMismatchError`).
- an **attribution engine** — :func:`attribute` classifies a miss
  (given ground truth) into the taxonomy of :data:`ATTRIBUTION_CAUSES`;
  :func:`attribute_records` feeds per-class counters into a
  :class:`~repro.observability.metrics.MetricsRegistry`.
- **explain** — :func:`render_record` renders one record as a
  human-readable narrative (transcription diff, candidate table, voting
  table), backing the ``repro explain`` CLI.

Recording is *observational*: a pipeline run with a record attached
produces bit-identical :class:`~repro.core.result.SpeakQLOutput` SQL to
the same run without one (the recorder's extra top-k candidate search
is a separate, exact query that never replaces the stage's own search).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.asr.channel import AsrEvent
from repro.grammar.vocabulary import normalize_token, tokenize_sql
from repro.observability import names as obs_names
from repro.observability.metrics import MetricsRegistry
from repro.structure.edit_distance import (
    DEFAULT_WEIGHTS,
    TokenWeights,
    weighted_edit_distance,
)
from repro.structure.masking import mask_literals

#: Schema version of serialized records; bump on incompatible change.
RECORD_VERSION = 1

#: Schema version of serialized bundles.
BUNDLE_VERSION = 1

#: The miss taxonomy, every miss lands in exactly one class:
#:
#: - ``asr_unrecoverable`` — the corrupted masked transcription is
#:   strictly closer to the (wrong) top-1 structure than to the gold
#:   structure: no exact search at any k could rank gold first.
#: - ``structure_not_in_topk`` — the gold structure is absent from the
#:   recorded top-k even though it is no farther than the chosen one
#:   (ties beyond k, or the structure is outside the index).
#: - ``structure_ranked_low`` — the gold structure is in the top-k but
#:   not at rank 1.
#: - ``literal_category`` — right structure, but the gold literal never
#:   entered the placeholder's candidate ranking (wrong window, wrong
#:   candidate set, or a typed-value recovery that missed).
#: - ``literal_voting`` — right structure, gold literal was ranked, but
#:   lost the phonetic vote.
#: - ``invalid_sql`` — the produced SQL does not even *execute* on a
#:   real engine (parse error, unknown table/column, or timeout).  Only
#:   assigned when the caller supplies an ``executable`` predicate
#:   (built from :class:`repro.execution.ExecutionScorer`); without one
#:   the taxonomy degrades to the original five pipeline-stage classes.
#:   The remaining five classes then cover the *wrong-but-executable*
#:   misses — the query ran, but answered the wrong question.
ATTRIBUTION_CAUSES = (
    "asr_unrecoverable",
    "structure_not_in_topk",
    "structure_ranked_low",
    "literal_category",
    "literal_voting",
    "invalid_sql",
)


class ReplayError(RuntimeError):
    """A replay bundle could not be replayed."""


class FingerprintMismatchError(ReplayError):
    """The bundle's artifact fingerprint does not match the pipeline's."""


# -- record types ------------------------------------------------------------


@dataclass
class StructureCandidate:
    """One top-k structure candidate with its weighted edit distance."""

    structure: tuple[str, ...]
    distance: float

    def to_dict(self) -> dict:
        return {"structure": list(self.structure), "distance": self.distance}

    @classmethod
    def from_dict(cls, data: dict) -> "StructureCandidate":
        return cls(
            structure=tuple(data["structure"]), distance=data["distance"]
        )


@dataclass
class PlaceholderTrace:
    """Decision provenance of one placeholder.

    ``ranking`` is the literal ranking the vote produced (best first,
    truncated); ``votes`` holds the vote counts for the ranked literals.
    ``typed`` marks a typed-value recovery (number/date) that bypassed
    voting; ``pool_size`` is the size of the candidate set B the vote
    ran over (0 for typed recoveries).
    """

    index: int
    category: str
    window: tuple[int, int]
    window_tokens: tuple[str, ...]
    chosen: str
    value_type: str | None = None
    typed: bool = False
    ranking: tuple[str, ...] = ()
    votes: dict[str, int] = field(default_factory=dict)
    pool_size: int = 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "category": self.category,
            "window": list(self.window),
            "window_tokens": list(self.window_tokens),
            "chosen": self.chosen,
            "value_type": self.value_type,
            "typed": self.typed,
            "ranking": list(self.ranking),
            "votes": dict(self.votes),
            "pool_size": self.pool_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlaceholderTrace":
        return cls(
            index=data["index"],
            category=data["category"],
            window=tuple(data["window"]),
            window_tokens=tuple(data["window_tokens"]),
            chosen=data["chosen"],
            value_type=data.get("value_type"),
            typed=data.get("typed", False),
            ranking=tuple(data.get("ranking", ())),
            votes=dict(data.get("votes", {})),
            pool_size=data.get("pool_size", 0),
        )


@dataclass
class QueryRecord:
    """Full decision provenance of one query through the pipeline.

    Filled in incrementally by the stages (only the rank-0 ASR
    alternative — the one behind the top-1 answer — is recorded).  The
    ``mode``/``input_text``/``seed``/``nbest``/``voice`` header is
    everything a replay needs to re-execute the query.
    """

    mode: str  # "speech" (dictation) or "transcription" (correction)
    input_text: str
    seed: int | None = None
    nbest: int | None = None
    voice: str | None = None
    top_k: int = 5  # structure candidates to record
    version: int = RECORD_VERSION
    # -- ASR (speech mode only) --
    spoken: tuple[str, ...] = ()
    heard: tuple[str, ...] = ()
    asr_events: list[AsrEvent] = field(default_factory=list)
    asr_text: str = ""
    asr_alternatives: tuple[str, ...] = ()
    # -- masking + structure search --
    source_tokens: tuple[str, ...] = ()
    masked: tuple[str, ...] = ()
    candidates: tuple[StructureCandidate, ...] = ()
    search_stats: dict = field(default_factory=dict)
    # -- literal determination --
    placeholders: list[PlaceholderTrace] = field(default_factory=list)
    # -- output --
    queries: tuple[str, ...] = ()
    sql: str = ""
    # -- correction session (additive; absent in pre-session bundles) --
    session_id: str | None = None
    turn: int = 0
    reused_spans: tuple[str, ...] = ()

    @property
    def top_structure(self) -> tuple[str, ...] | None:
        return self.candidates[0].structure if self.candidates else None

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "mode": self.mode,
            "input_text": self.input_text,
            "seed": self.seed,
            "nbest": self.nbest,
            "voice": self.voice,
            "top_k": self.top_k,
            "spoken": list(self.spoken),
            "heard": list(self.heard),
            "asr_events": [asdict(event) for event in self.asr_events],
            "asr_text": self.asr_text,
            "asr_alternatives": list(self.asr_alternatives),
            "source_tokens": list(self.source_tokens),
            "masked": list(self.masked),
            "candidates": [c.to_dict() for c in self.candidates],
            "search_stats": dict(self.search_stats),
            "placeholders": [p.to_dict() for p in self.placeholders],
            "queries": list(self.queries),
            "sql": self.sql,
            "session_id": self.session_id,
            "turn": self.turn,
            "reused_spans": list(self.reused_spans),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryRecord":
        version = data.get("version")
        if version != RECORD_VERSION:
            raise ValueError(
                f"unsupported QueryRecord version {version!r} "
                f"(this build reads version {RECORD_VERSION})"
            )
        return cls(
            mode=data["mode"],
            input_text=data["input_text"],
            seed=data.get("seed"),
            nbest=data.get("nbest"),
            voice=data.get("voice"),
            top_k=data.get("top_k", 5),
            spoken=tuple(data.get("spoken", ())),
            heard=tuple(data.get("heard", ())),
            asr_events=[
                AsrEvent(
                    kind=e["kind"],
                    before=tuple(e["before"]),
                    after=tuple(e["after"]),
                )
                for e in data.get("asr_events", ())
            ],
            asr_text=data.get("asr_text", ""),
            asr_alternatives=tuple(data.get("asr_alternatives", ())),
            source_tokens=tuple(data.get("source_tokens", ())),
            masked=tuple(data.get("masked", ())),
            candidates=tuple(
                StructureCandidate.from_dict(c)
                for c in data.get("candidates", ())
            ),
            search_stats=dict(data.get("search_stats", {})),
            placeholders=[
                PlaceholderTrace.from_dict(p)
                for p in data.get("placeholders", ())
            ],
            queries=tuple(data.get("queries", ())),
            sql=data.get("sql", ""),
            # Additive session fields: old bundles (same RECORD_VERSION,
            # recorded pre-sessions) read back with the defaults.
            session_id=data.get("session_id"),
            turn=data.get("turn", 0),
            reused_spans=tuple(data.get("reused_spans", ())),
        )


class Recorder:
    """Creates and collects :class:`QueryRecord` objects for a batch.

    The batch service calls :meth:`start` once per request *in input
    order, before fanning out*, so ``records`` always lines up with the
    batch's outputs regardless of worker scheduling.
    """

    def __init__(self, top_k: int = 5) -> None:
        self.top_k = top_k
        self.records: list[QueryRecord] = []

    def start(
        self,
        *,
        mode: str,
        input_text: str,
        seed: int | None = None,
        nbest: int | None = None,
        voice: str | None = None,
        session_id: str | None = None,
        turn: int = 0,
    ) -> QueryRecord:
        """Create (and keep) the record for one query."""
        record = QueryRecord(
            mode=mode,
            input_text=input_text,
            seed=seed,
            nbest=nbest,
            voice=voice,
            top_k=self.top_k,
            session_id=session_id,
            turn=turn,
        )
        self.records.append(record)
        return record

    def start_request(self, request) -> QueryRecord:
        """Create the record for one :class:`~repro.api.QueryRequest`.

        Records of one correction session share a ``session_id`` and
        order by ``turn``, so a session's whole trajectory can be
        reassembled from a bundle.
        """
        return self.start(
            mode=request.mode,
            input_text=request.text,
            seed=request.seed,
            nbest=request.nbest,
            voice=request.speaker.name
            if request.speaker is not None
            else None,
            session_id=getattr(request, "session_id", None),
            turn=getattr(request, "turn", 0),
        )

    def __len__(self) -> int:
        return len(self.records)


# -- replay bundles ----------------------------------------------------------


@dataclass
class ReplayBundle:
    """Records + pipeline config + artifact fingerprints, as one file.

    ``config`` is the serialized :class:`~repro.core.pipeline
    .SpeakQLConfig`; ``fingerprint`` identifies the artifact bundle that
    served the recorded traffic (see ``SpeakQLArtifacts.fingerprint``);
    ``environment`` is free-form rebuild context (the CLI stores its
    ``--schema``/``--train`` flags there so ``repro replay`` can
    reconstruct the same pipeline).
    """

    config: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)
    records: list[QueryRecord] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    version: int = BUNDLE_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": dict(self.config),
            "fingerprint": dict(self.fingerprint),
            "environment": dict(self.environment),
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReplayBundle":
        version = data.get("version")
        if version != BUNDLE_VERSION:
            raise ValueError(
                f"unsupported ReplayBundle version {version!r} "
                f"(this build reads version {BUNDLE_VERSION})"
            )
        return cls(
            config=dict(data.get("config", {})),
            fingerprint=dict(data.get("fingerprint", {})),
            environment=dict(data.get("environment", {})),
            records=[
                QueryRecord.from_dict(r) for r in data.get("records", ())
            ],
        )

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=True),
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "ReplayBundle":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )

    def speakql_config(self):
        """The bundle's config as a live, validated ``SpeakQLConfig``.

        Goes through the versioned
        :meth:`~repro.core.pipeline.SpeakQLConfig.from_dict`, so a
        bundle written by an incompatible build fails loudly instead of
        replaying with silently different settings.  (Lazy import: the
        observability layer must not import the core at module scope.)
        """
        from repro.core.pipeline import SpeakQLConfig

        return SpeakQLConfig.from_dict(self.config)


def check_fingerprint(bundle: ReplayBundle, artifacts) -> None:
    """Fail loudly when ``bundle`` was recorded against other artifacts.

    Replaying against a different structure index, token cap, or ASR
    engine would silently produce different answers; every differing
    fingerprint key is reported.
    """
    current = artifacts.fingerprint()
    mismatched = {
        key: (bundle.fingerprint.get(key), current.get(key))
        for key in set(bundle.fingerprint) | set(current)
        if bundle.fingerprint.get(key) != current.get(key)
    }
    if mismatched:
        detail = ", ".join(
            f"{key}: recorded={rec!r} current={cur!r}"
            for key, (rec, cur) in sorted(mismatched.items())
        )
        raise FingerprintMismatchError(
            f"replay bundle does not match the serving artifacts ({detail})"
        )


def replay_record(pipeline, record: QueryRecord):
    """Re-execute one recorded query through ``pipeline``.

    Returns the fresh :class:`~repro.core.result.SpeakQLOutput`; use
    :func:`replay_mismatches` to assert bit-identity with the record.
    """
    if record.mode == "speech":
        if record.seed is None:
            raise ReplayError("speech record has no seed")
        voice = None
        if record.voice:
            from repro.asr.speakers import POLLY_VOICES

            by_name = {profile.name: profile for profile in POLLY_VOICES}
            voice = by_name.get(record.voice)
            if voice is None:
                raise ReplayError(f"unknown voice {record.voice!r}")
        return pipeline.query_from_speech(
            record.input_text,
            seed=record.seed,
            nbest=record.nbest,
            voice=voice,
        )
    return pipeline.correct_transcription(record.input_text)


def replay_mismatches(record: QueryRecord, output) -> list[str]:
    """Differences between a record and its replayed output (empty = OK)."""
    problems: list[str] = []
    if output.sql != record.sql:
        problems.append(f"sql: recorded {record.sql!r}, got {output.sql!r}")
    if tuple(output.queries) != tuple(record.queries):
        problems.append(
            f"queries: recorded {list(record.queries)!r}, "
            f"got {list(output.queries)!r}"
        )
    if record.mode == "speech":
        if output.asr_text != record.asr_text:
            problems.append(
                f"asr_text: recorded {record.asr_text!r}, "
                f"got {output.asr_text!r}"
            )
        if tuple(output.asr_alternatives) != tuple(record.asr_alternatives):
            problems.append("asr_alternatives differ")
    return problems


def replay_bundle(pipeline, bundle: ReplayBundle, index: int | None = None):
    """Replay every record of ``bundle`` (or just record ``index``).

    Checks the artifact fingerprint first and raises
    :class:`FingerprintMismatchError` on any difference.  Returns
    ``[(record, output, mismatches), ...]``.
    """
    check_fingerprint(bundle, pipeline.artifacts)
    records = bundle.records
    if index is not None:
        if not 0 <= index < len(records):
            raise ReplayError(
                f"record index {index} out of range (bundle has "
                f"{len(records)} record(s))"
            )
        records = [records[index]]
    out = []
    for record in records:
        output = replay_record(pipeline, record)
        out.append((record, output, replay_mismatches(record, output)))
    return out


# -- attribution -------------------------------------------------------------


@dataclass(frozen=True)
class Attribution:
    """Why one query was (or was not) answered correctly."""

    correct: bool
    cause: str | None  # one of ATTRIBUTION_CAUSES, None when correct
    detail: str = ""


@dataclass
class AttributionSummary:
    """Per-class miss counts for a batch of attributed records."""

    total: int
    misses: int
    counts: dict[str, int]
    attributions: list[Attribution]


def _normalized(sql: str) -> list[str]:
    return [normalize_token(token) for token in tokenize_sql(sql)]


def attribute(
    record: QueryRecord,
    gold_sql: str,
    weights: TokenWeights = DEFAULT_WEIGHTS,
    executable=None,
) -> Attribution:
    """Classify ``record`` against its ground truth.

    Classification is *total*: every miss lands in exactly one class of
    :data:`ATTRIBUTION_CAUSES`, so per-class counts always sum to the
    miss count.

    ``executable`` is an optional ``str -> bool`` predicate (does this
    SQL run on a real engine?).  When given, a miss whose produced SQL
    fails it is classed ``invalid_sql`` before any pipeline-stage
    analysis — the sharpest split first: the query didn't just answer
    the wrong question, it never ran.
    """
    if _normalized(record.sql) == _normalized(gold_sql):
        return Attribution(correct=True, cause=None)

    if executable is not None and not executable(record.sql):
        return Attribution(
            correct=False,
            cause="invalid_sql",
            detail="produced SQL does not execute on the backend",
        )

    gold_tokens = tokenize_sql(gold_sql)
    gold_masked = mask_literals(list(gold_tokens))
    gold_structure = tuple(gold_masked.masked)
    gold_literals = [gold_tokens[i] for i in gold_masked.literal_spans]

    top = record.top_structure
    if top is None:
        return Attribution(
            correct=False,
            cause="structure_not_in_topk",
            detail="no structure candidates were found",
        )

    if tuple(top) == gold_structure:
        return _attribute_literal_miss(record, gold_literals)

    ranked = [tuple(c.structure) for c in record.candidates]
    if gold_structure in ranked:
        rank = ranked.index(gold_structure)
        return Attribution(
            correct=False,
            cause="structure_ranked_low",
            detail=f"gold structure ranked #{rank + 1} of {len(ranked)}",
        )

    top_distance = record.candidates[0].distance
    gold_distance = weighted_edit_distance(
        list(record.masked), list(gold_structure), weights
    )
    if gold_distance > top_distance:
        return Attribution(
            correct=False,
            cause="asr_unrecoverable",
            detail=(
                f"ASR left the masked query at distance {gold_distance:.2f} "
                f"from gold vs {top_distance:.2f} from the chosen structure"
            ),
        )
    return Attribution(
        correct=False,
        cause="structure_not_in_topk",
        detail=(
            f"gold structure (distance {gold_distance:.2f}) missing from "
            f"the top-{len(ranked)} candidates"
        ),
    )


def _attribute_literal_miss(
    record: QueryRecord, gold_literals: list[str]
) -> Attribution:
    """Right structure, wrong SQL: pin the first offending placeholder."""
    for idx, trace in enumerate(record.placeholders):
        gold = gold_literals[idx] if idx < len(gold_literals) else ""
        if trace.chosen.lower() == gold.lower():
            continue
        if trace.typed or gold.lower() not in {
            literal.lower() for literal in trace.ranking
        }:
            return Attribution(
                correct=False,
                cause="literal_category",
                detail=(
                    f"placeholder #{idx} ({trace.category}): gold "
                    f"{gold!r} never entered the candidate ranking "
                    f"(chose {trace.chosen!r})"
                ),
            )
        return Attribution(
            correct=False,
            cause="literal_voting",
            detail=(
                f"placeholder #{idx} ({trace.category}): gold {gold!r} "
                f"was ranked but lost the vote to {trace.chosen!r}"
            ),
        )
    return Attribution(
        correct=False,
        cause="literal_voting",
        detail="literal rendering differs from gold",
    )


def attribute_records(
    records: list[QueryRecord],
    gold_sqls: list[str],
    metrics: MetricsRegistry | None = None,
    weights: TokenWeights = DEFAULT_WEIGHTS,
    executable=None,
) -> AttributionSummary:
    """Attribute a batch and (optionally) publish per-class counters.

    Publishes ``speakql_attribution_queries_total`` per record and
    ``speakql_attribution_misses_total{cause=...}`` per miss.
    ``executable`` is passed through to :func:`attribute` to enable the
    ``invalid_sql`` class.
    """
    if len(records) != len(gold_sqls):
        raise ValueError(
            f"{len(records)} record(s) vs {len(gold_sqls)} gold query(ies)"
        )
    attributions = [
        attribute(record, gold, weights, executable=executable)
        for record, gold in zip(records, gold_sqls)
    ]
    counts = {cause: 0 for cause in ATTRIBUTION_CAUSES}
    misses = 0
    for attribution in attributions:
        if attribution.correct:
            continue
        misses += 1
        counts[attribution.cause] += 1
    if metrics is not None:
        metrics.counter(obs_names.ATTRIBUTION_QUERIES_TOTAL).inc(len(records))
        for cause, count in counts.items():
            if count:
                metrics.counter(
                    obs_names.ATTRIBUTION_MISSES_TOTAL, cause=cause
                ).inc(count)
    return AttributionSummary(
        total=len(records),
        misses=misses,
        counts=counts,
        attributions=attributions,
    )


# -- explain -----------------------------------------------------------------


def render_record(record: QueryRecord, gold_sql: str | None = None) -> str:
    """One record as a human-readable narrative (the ``explain`` CLI)."""
    lines: list[str] = []
    say = lines.append
    say(f"mode   : {record.mode}")
    say(f"input  : {record.input_text}")
    if record.mode == "speech":
        say(f"seed   : {record.seed}   voice: {record.voice or '-'}")
        say("")
        say("-- acoustic channel --")
        say(f"spoken : {' '.join(record.spoken)}")
        say(f"heard  : {' '.join(record.heard)}")
        if record.asr_events:
            for event in record.asr_events:
                before = " ".join(event.before) or "∅"
                after = " ".join(event.after) or "∅"
                say(f"  [{event.kind}] {before} -> {after}")
        else:
            say("  (no injected errors)")
        say("")
        say("-- decode --")
        say(f"asr    : {record.asr_text}")
        for rank, alt in enumerate(record.asr_alternatives[1:], start=2):
            say(f"  alt {rank}: {alt}")
    say("")
    say("-- structure search --")
    say(f"masked : {' '.join(record.masked)}")
    if record.candidates:
        for rank, candidate in enumerate(record.candidates, start=1):
            say(
                f"  {rank}. d={candidate.distance:5.2f}  "
                f"{' '.join(candidate.structure)}"
            )
    else:
        say("  (no candidates)")
    if record.search_stats:
        stats = record.search_stats
        say(
            f"  nodes={stats.get('nodes_visited', 0)} "
            f"scored={stats.get('candidates_scored', 0)} "
            f"tries={stats.get('tries_searched', 0)}"
            f"+{stats.get('tries_skipped', 0)} skipped"
        )
    say("")
    say("-- literal determination --")
    if record.placeholders:
        for trace in record.placeholders:
            window = " ".join(trace.window_tokens) or "∅"
            say(
                f"  #{trace.index} {trace.category:<9} "
                f"window[{trace.window[0]}:{trace.window[1]}] "
                f"{window!r} -> {trace.chosen!r}"
                + (f" ({trace.value_type})" if trace.value_type else "")
            )
            if trace.typed:
                say("      typed-value recovery (no vote)")
            elif trace.ranking:
                tally = "  ".join(
                    f"{literal}:{trace.votes.get(literal, 0)}"
                    for literal in trace.ranking[:5]
                )
                say(f"      votes ({trace.pool_size} candidates): {tally}")
    else:
        say("  (no placeholders)")
    say("")
    say("-- output --")
    say(f"sql    : {record.sql}")
    for rank, query in enumerate(record.queries[1:], start=2):
        say(f"  alt {rank}: {query}")
    if gold_sql is not None:
        attribution = attribute(record, gold_sql)
        say("")
        say("-- attribution --")
        say(f"gold   : {gold_sql}")
        if attribution.correct:
            say("verdict: correct")
        else:
            say(f"verdict: MISS ({attribution.cause})")
            say(f"  {attribution.detail}")
    return "\n".join(lines)


__all__ = [
    "ATTRIBUTION_CAUSES",
    "Attribution",
    "AttributionSummary",
    "AsrEvent",
    "BUNDLE_VERSION",
    "FingerprintMismatchError",
    "PlaceholderTrace",
    "QueryRecord",
    "RECORD_VERSION",
    "Recorder",
    "ReplayBundle",
    "ReplayError",
    "StructureCandidate",
    "attribute",
    "attribute_records",
    "check_fingerprint",
    "render_record",
    "replay_bundle",
    "replay_mismatches",
    "replay_record",
]
