"""Incremental correction sessions for the serving layer.

The paper's headline interaction is clause-level correction: the user
dictates a query once, then re-dictates one wrong clause or
touch-patches a token — not the whole query (Section 5; the pilot study
found whole-query re-dictation unusable past ~10 seconds of phrase).
This module makes that loop first-class on the serving side:

- :class:`SessionStore` — a bounded, TTL'd, thread-safe LRU of
  :class:`SessionState`, keyed by ``QueryRequest.session_id``.  Each
  state caches the query's clause segmentation and one
  :class:`SpanDecode` per clause: the span's text, its narrowing
  tables context, the corrected SQL, the top-k
  :class:`~repro.observability.forensics.StructureCandidate`s, and the
  span's :class:`~repro.structure.search.SearchStats`.
- :class:`SessionDecoder` — decodes turn 0 cold (every clause span),
  then, for a correction turn carrying a
  :class:`~repro.api.ClauseEdit`, re-searches **only the affected
  span** and splices the cached decodes of unchanged clauses.

Why splicing is bit-identical to a cold decode of the same text: a
span decode is a pure function of ``(clause text, clause kind, tables
context)`` — the clause grammar's index, the engine weights, and the
literal determiner are fixed per serving process — so replaying a
cached :class:`SpanDecode` yields exactly the candidates, distances,
and stats counters a fresh search would.  The tables context is part
of the reuse key, which makes the one real cross-clause dependency
(the FROM tables narrow later clauses' literal determination) an
automatic invalidation: edit the FROM clause and every dependent span
re-decodes.

Turn ordering is strict (``turn == last_turn + 1``); violations raise
:class:`TurnConflictError` and an expired/evicted/unknown session
raises :class:`UnknownSessionError` — both map onto the wire
protocol's closed ``error_kind`` catalog.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.api import EDIT_REDICTATE, ClauseEdit, QueryRequest
from repro.core.clauses import CLAUSE_TO_KIND, ClauseSpeakQL
from repro.core.result import ComponentTimings, SpeakQLOutput
from repro.errors import DeadlineExceededError
from repro.grammar.vocabulary import tokenize_sql
from repro.interface.display import Clause, split_clauses
from repro.observability.forensics import StructureCandidate
from repro.serving.protocol import (
    ERROR_TURN_CONFLICT,
    ERROR_UNKNOWN_SESSION,
)
from repro.structure.compiled import span_state_key
from repro.structure.masking import preprocess_transcription
from repro.structure.search import SearchStats

#: The timing stage one session turn reports (clause search + literal
#: determination run per span; the split is not observable per stage).
SESSION_DECODE_STAGE = "session_decode"

#: Candidates cached per span (enough for the interface's alternatives
#: drawer without re-searching).
DEFAULT_SPAN_TOP_K = 5


class SessionError(RuntimeError):
    """Base of session-turn failures; ``kind`` is the wire error kind."""

    kind: str = "internal"


class UnknownSessionError(SessionError):
    """The turn referenced a session the store does not hold (never
    started, expired past its TTL, or evicted by the LRU bound)."""

    kind = ERROR_UNKNOWN_SESSION


class TurnConflictError(SessionError):
    """The turn arrived out of order (contract: ``last_turn + 1``)."""

    kind = ERROR_TURN_CONFLICT


@dataclass(frozen=True)
class SpanDecode:
    """The cached decode of one clause span.

    ``state_key`` is :func:`repro.structure.compiled.span_state_key`
    over the span's masked tokens and the engine weights in force —
    the handle onto the search kernel's per-span DP/beam work this
    cache entry stands in for (reweighting changes the key, so stale
    distances are never replayed).
    """

    clause: str
    text: str
    tables_context: tuple[str, ...]
    sql: str
    candidates: tuple[StructureCandidate, ...]
    stats: SearchStats | None
    state_key: tuple

    def matches(self, text: str, tables_context: tuple[str, ...]) -> bool:
        """Whether this cached decode answers ``text`` in context."""
        return self.text == text and self.tables_context == tables_context


@dataclass(frozen=True)
class TurnResult:
    """What one decoded session turn produced.

    ``reused_spans`` names the clauses whose cached decode was spliced
    in unchanged; ``spans_total`` counts every clause span of the turn
    (so ``spans_total - len(reused_spans)`` spans were searched);
    ``partials`` holds the clause-level partial frames when they were
    requested.
    """

    output: SpeakQLOutput
    reused_spans: tuple[str, ...]
    spans_total: int
    partials: tuple = ()


@dataclass
class SessionState:
    """Everything one correction session has decoded so far."""

    session_id: str
    turn: int = -1
    text: str = ""
    clause_texts: "OrderedDict[str, str]" = field(default_factory=OrderedDict)
    spans: dict[str, SpanDecode] = field(default_factory=dict)
    output: SpeakQLOutput | None = None
    created_at: float = 0.0
    last_used: float = 0.0
    turns_total: int = 0
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )


class SessionStore:
    """Bounded, TTL'd, thread-safe LRU of :class:`SessionState`.

    ``limit`` caps live sessions (least recently used evicted first);
    ``ttl_seconds`` expires sessions idle longer than the TTL at the
    next store access.  ``clock`` is injectable for tests (monotonic
    seconds).
    """

    def __init__(
        self,
        limit: int = 64,
        ttl_seconds: float = 900.0,
        clock=time.monotonic,
    ) -> None:
        if limit < 1:
            raise ValueError("session limit must be >= 1")
        if ttl_seconds <= 0:
            raise ValueError("session ttl_seconds must be > 0")
        self.limit = limit
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: OrderedDict[str, SessionState] = OrderedDict()
        self._created_total = 0
        self._evicted_lru_total = 0
        self._expired_total = 0
        self._turns_total = 0

    def __len__(self) -> int:
        with self._lock:
            self._sweep_locked()
            return len(self._sessions)

    def get(self, session_id: str) -> SessionState | None:
        """The live session, LRU-touched — ``None`` if absent/expired."""
        with self._lock:
            self._sweep_locked()
            state = self._sessions.get(session_id)
            if state is None:
                return None
            self._sessions.move_to_end(session_id)
            state.last_used = self._clock()
            return state

    def create(self, session_id: str) -> SessionState:
        """A fresh state under ``session_id`` (replacing any prior one),
        evicting the least recently used session beyond the limit."""
        with self._lock:
            self._sweep_locked()
            now = self._clock()
            state = SessionState(
                session_id=session_id, created_at=now, last_used=now
            )
            self._sessions.pop(session_id, None)
            self._sessions[session_id] = state
            self._created_total += 1
            while len(self._sessions) > self.limit:
                self._sessions.popitem(last=False)
                self._evicted_lru_total += 1
            return state

    def record_turn(self, state: SessionState) -> None:
        """Bookkeeping after a successfully decoded turn."""
        with self._lock:
            state.turns_total += 1
            state.last_used = self._clock()
            self._turns_total += 1

    def sweep(self) -> int:
        """Expire idle sessions now; returns how many were dropped."""
        with self._lock:
            return self._sweep_locked()

    def _sweep_locked(self) -> int:
        horizon = self._clock() - self.ttl_seconds
        expired = [
            sid
            for sid, state in self._sessions.items()
            if state.last_used < horizon
        ]
        for sid in expired:
            del self._sessions[sid]
        self._expired_total += len(expired)
        return len(expired)

    def stats(self) -> dict:
        """Operator snapshot (reported on ``statusz``)."""
        with self._lock:
            self._sweep_locked()
            return {
                "live": len(self._sessions),
                "limit": self.limit,
                "ttl_seconds": self.ttl_seconds,
                "created_total": self._created_total,
                "evicted_lru_total": self._evicted_lru_total,
                "expired_total": self._expired_total,
                "turns_total": self._turns_total,
            }


def merge_search_stats(parts: list[SearchStats | None]) -> SearchStats | None:
    """Sum per-span stats into one query-level view.

    Counters add; ``result_cache_hit`` (``compare=False`` on
    :class:`SearchStats`) is an OR.
    """
    present = [p for p in parts if p is not None]
    if not present:
        return None
    total = SearchStats()
    for part in present:
        total.nodes_visited += part.nodes_visited
        total.dp_cells += part.dp_cells
        total.tries_searched += part.tries_searched
        total.tries_skipped += part.tries_skipped
        total.candidates_scored += part.candidates_scored
        total.levels_visited += part.levels_visited
        total.rows_pruned += part.rows_pruned
        total.beam_bound_updates += part.beam_bound_updates
        total.near_seeds += part.near_seeds
    total.result_cache_hit = any(part.result_cache_hit for part in present)
    return total


class SessionDecoder:
    """Clause-wise incremental decoding over a :class:`SessionStore`.

    ``clauses`` supplies the per-clause-kind searchers and the literal
    determiner (share the serving pipeline's artifacts so the clause
    indexes build once per process); ``top_k`` is how many candidates
    each span caches.
    """

    def __init__(
        self,
        clauses: ClauseSpeakQL,
        store: SessionStore,
        *,
        top_k: int = DEFAULT_SPAN_TOP_K,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.clauses = clauses
        self.store = store
        self.top_k = top_k

    # -- turn entry point ----------------------------------------------------

    def decode(
        self,
        request: QueryRequest,
        *,
        deadline_at: float | None = None,
        clock=time.monotonic,
        tracer=None,
        collect_partials: bool = False,
    ) -> TurnResult:
        """Serve one session turn.

        Returns a :class:`TurnResult`; when ``collect_partials`` its
        ``partials`` carry one clause-level frame per span in decode
        order.  Raises :class:`UnknownSessionError` /
        :class:`TurnConflictError` per the session contract and
        :class:`~repro.errors.DeadlineExceededError` at span
        boundaries.
        """
        if request.session_id is None:
            raise ValueError("not a session request (session_id is None)")
        if request.turn == 0:
            state = self.store.create(request.session_id)
        else:
            state = self.store.get(request.session_id)
            if state is None:
                raise UnknownSessionError(
                    f"unknown session {request.session_id!r}: never "
                    "started, expired, or evicted — restart from turn 0"
                )
        with state.lock:
            if request.turn > 0 and request.turn != state.turn + 1:
                raise TurnConflictError(
                    f"turn {request.turn} arrived out of order for session "
                    f"{request.session_id!r} (expected {state.turn + 1})"
                )
            if request.turn == 0:
                text = request.text
            else:
                assert request.edit is not None  # enforced by QueryRequest
                text = self._apply_edit(state, request.edit)
            started = clock()
            result = self._decode_text(
                state, text, deadline_at=deadline_at, clock=clock,
                tracer=tracer, collect_partials=collect_partials,
            )
            result.output.timings = ComponentTimings(
                stages={SESSION_DECODE_STAGE: clock() - started}
            )
            state.turn = request.turn
            state.text = text
            state.output = result.output
        self.store.record_turn(state)
        return result

    # -- internals -----------------------------------------------------------

    def _apply_edit(self, state: SessionState, edit: ClauseEdit) -> str:
        """The session's full text after splicing one clause edit.

        An edit replaces its clause's text (or introduces the clause,
        inserted at its canonical position).  Both edit kinds splice
        the same way — ``redictate`` text is a fresh transcription of
        the clause, ``token_patch`` the display's patched tokens.
        """
        new_texts: OrderedDict[str, str] = OrderedDict()
        placed = False
        canonical = [clause.value for clause in Clause]
        for name in canonical:
            if name == edit.clause:
                new_texts[name] = edit.text
                placed = True
            elif name in state.clause_texts:
                new_texts[name] = state.clause_texts[name]
        if not placed:  # pragma: no cover - canonical covers CLAUSE_NAMES
            new_texts[edit.clause] = edit.text
        return " ".join(new_texts.values())

    def _decode_text(
        self,
        state: SessionState,
        text: str,
        *,
        deadline_at: float | None,
        clock,
        tracer,
        collect_partials: bool,
    ) -> TurnResult:
        segmented = split_clauses(text.split())
        if not segmented:
            # No clause head at all (free-form fragment): decode the
            # whole text as one SELECT-grammar span so the session
            # still answers.
            segmented = {Clause.SELECT: text.split()}
        clause_texts: OrderedDict[str, str] = OrderedDict(
            (clause.value, " ".join(tokens))
            for clause, tokens in segmented.items()
        )
        spans: dict[str, SpanDecode] = {}
        reused: list[str] = []
        partials: list[dict] = []
        assembled: list[str] = []
        stats_parts: list[SearchStats | None] = []
        tables: list[str] = []
        for clause, tokens in segmented.items():
            if deadline_at is not None and clock() >= deadline_at:
                raise DeadlineExceededError(
                    f"deadline exceeded before session span {clause.value!r}"
                )
            clause_text = " ".join(tokens)
            tables_context = tuple(tables)
            cached = state.spans.get(clause.value)
            if cached is not None and cached.matches(
                clause_text, tables_context
            ):
                span = cached
                reused.append(clause.value)
                was_reused = True
            else:
                span = self._decode_span(clause, clause_text, tables_context,
                                         tracer=tracer)
                was_reused = False
            spans[clause.value] = span
            assembled.append(span.sql)
            stats_parts.append(span.stats)
            if clause is Clause.FROM:
                tables = [
                    t
                    for t in tokenize_sql(span.sql)
                    if self.clauses.catalog.has_table(t)
                ]
            if collect_partials:
                partials.append({
                    "clause": clause.value,
                    "sql": span.sql,
                    "reused": was_reused,
                })
        state.clause_texts = clause_texts
        state.spans = spans
        output = SpeakQLOutput(
            asr_text=text,
            asr_alternatives=(),
            queries=[" ".join(assembled)],
            structure=None,
            literal_result=None,
            search_stats=merge_search_stats(stats_parts),
        )
        return TurnResult(
            output=output,
            reused_spans=tuple(reused),
            spans_total=len(segmented),
            partials=tuple(partials),
        )

    def _decode_span(
        self,
        clause: Clause,
        clause_text: str,
        tables_context: tuple[str, ...],
        *,
        tracer=None,
    ) -> SpanDecode:
        kind = CLAUSE_TO_KIND[clause]
        span = None
        if tracer is not None:
            with tracer.span("session.span", clause=clause.value,
                             kind=kind.value):
                span = self._decode_span_inner(
                    clause, kind, clause_text, tables_context
                )
        else:
            span = self._decode_span_inner(
                clause, kind, clause_text, tables_context
            )
        return span

    def _decode_span_inner(
        self, clause, kind, clause_text: str, tables_context: tuple[str, ...]
    ) -> SpanDecode:
        sql, results, stats = self.clauses.decode_clause(
            clause_text,
            kind,
            k=self.top_k,
            tables_context=list(tables_context) or None,
        )
        masked = preprocess_transcription(clause_text)
        searcher = self.clauses._searcher(kind)
        return SpanDecode(
            clause=clause.value,
            text=clause_text,
            tables_context=tables_context,
            sql=sql,
            candidates=tuple(
                StructureCandidate(structure=r.structure, distance=r.distance)
                for r in results
            ),
            stats=stats,
            state_key=span_state_key(masked.masked, searcher.weights),
        )


__all__ = [
    "DEFAULT_SPAN_TOP_K",
    "SESSION_DECODE_STAGE",
    "SessionDecoder",
    "SessionError",
    "SessionState",
    "SessionStore",
    "SpanDecode",
    "TurnConflictError",
    "TurnResult",
    "UnknownSessionError",
    "merge_search_stats",
]
