"""The unified request/response API of the serving surface.

Every way of asking SpeakQL a question — the batch service, the serving
runtime, the CLI, the REPL, the JSON-lines daemon — speaks the same two
frozen dataclasses:

- :class:`QueryRequest` — what to run: the input text, the dictation
  seed (``None`` = correct a raw transcription), an optional speaker
  profile, an optional **deadline** (a latency budget in seconds,
  enforced cooperatively at stage boundaries and literal
  placeholders), and per-request
  **config overrides** applied on top of the serving pipeline's
  :class:`~repro.core.pipeline.SpeakQLConfig`.
- :class:`QueryResponse` — what happened: the pipeline output (when one
  was produced), a first-class **outcome** (one of :data:`OUTCOMES`),
  the per-stage timings, the optional forensic record, and — for
  degraded service — which rung of the degradation ladder answered.

Requests may belong to a **correction session**: ``session_id``/``turn``
key per-query decode state cached by the serving runtime's
:class:`~repro.serving.sessions.SessionStore`, and ``edit`` carries the
clause-level correction (:class:`ClauseEdit` — a re-dictated clause or a
SQL-keyboard token patch) a turn applies.  A correction turn re-searches
only the affected clause span and splices the cached results for
unchanged clauses, bit-identical to a cold decode of the same text.

The historical ``(sql, seed)`` tuple calling convention has been
removed; :func:`QueryRequest.from_legacy` now raises :class:`TypeError`
with a migration hint.  Every call site constructs
:class:`QueryRequest` directly.

Config overrides flow through the versioned
:meth:`~repro.core.pipeline.SpeakQLConfig.to_dict` /
:meth:`~repro.core.pipeline.SpeakQLConfig.from_dict` serialization (the
same format replay bundles store), so a request that asks for
``{"use_bdb": False, "top_k": 1}`` is reproducible from its
serialized form byte for byte.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.result import ComponentTimings, SpeakQLOutput
from repro.errors import DeadlineExceededError

if TYPE_CHECKING:
    from repro.asr.speakers import SpeakerProfile
    from repro.observability.forensics import QueryRecord

# -- outcomes ----------------------------------------------------------------

#: Request answered at full fidelity by the requested configuration.
OUTCOME_SERVED = "served"
#: Request answered, but by a cheaper rung of the degradation ladder.
OUTCOME_DEGRADED = "degraded"
#: Request rejected at admission (queue full) — never executed.
OUTCOME_SHED = "shed"
#: Request stopped at a stage boundary (or literal placeholder) after
#: its deadline passed.
OUTCOME_TIMEOUT = "timeout"
#: Every ladder rung raised; the error of the last attempt is reported.
OUTCOME_FAILED = "failed"

#: Every outcome a :class:`QueryResponse` can carry, exactly one per
#: request — their counts sum to the requests submitted.
OUTCOMES = (
    OUTCOME_SERVED,
    OUTCOME_DEGRADED,
    OUTCOME_SHED,
    OUTCOME_TIMEOUT,
    OUTCOME_FAILED,
)


class BatchQueryError(RuntimeError):
    """A batch worker raised; carries the failing request's input index.

    The original exception is chained as ``__cause__`` and its message
    is embedded, so existing ``match=``-style assertions on the
    underlying error keep working while the traceback now names which
    request died.
    """

    def __init__(self, index: int, request: "QueryRequest",
                 error: BaseException) -> None:
        preview = request.text if len(request.text) <= 60 else (
            request.text[:57] + "...")
        super().__init__(
            f"batch request #{index} ({preview!r}, seed={request.seed}) "
            f"failed: {error}"
        )
        self.index = index
        self.request = request


# -- clause edits ------------------------------------------------------------

#: The clause re-dictation edit: the user spoke the clause again and the
#: turn carries the new transcription of that clause.
EDIT_REDICTATE = "redictate"
#: The SQL-keyboard edit: the user touch-patched tokens in place and the
#: turn carries the clause's patched text.
EDIT_TOKEN_PATCH = "token_patch"

#: Every edit kind a correction turn can carry (closed set).
EDIT_KINDS = (EDIT_REDICTATE, EDIT_TOKEN_PATCH)

#: Clause names an edit may target (the interface's record buttons; see
#: :class:`repro.interface.display.Clause`).
CLAUSE_NAMES = ("SELECT", "FROM", "WHERE", "GROUP BY", "ORDER BY", "LIMIT")


@dataclass(frozen=True)
class ClauseEdit:
    """One clause-level correction applied by a session turn.

    ``kind`` is one of :data:`EDIT_KINDS`; ``clause`` names the clause
    the edit targets (one of :data:`CLAUSE_NAMES`); ``text`` is the
    clause's new transcription (``redictate``) or its patched token
    string (``token_patch``).  Both kinds re-search only the affected
    clause span — the distinction is provenance (spoken vs touched),
    kept for forensics, metrics, and interface costing.
    """

    kind: str
    clause: str
    text: str

    def __post_init__(self) -> None:
        if self.kind not in EDIT_KINDS:
            raise ValueError(
                f"unknown edit kind {self.kind!r}; expected one of {EDIT_KINDS}"
            )
        if self.clause not in CLAUSE_NAMES:
            raise ValueError(
                f"unknown clause {self.clause!r}; expected one of {CLAUSE_NAMES}"
            )
        if not isinstance(self.text, str) or not self.text.strip():
            raise ValueError("edit needs a non-empty 'text' string")

    def to_dict(self) -> dict:
        """JSON-ready wire shape (see :mod:`repro.serving.protocol`)."""
        return {"kind": self.kind, "clause": self.clause, "text": self.text}

    @classmethod
    def from_dict(cls, data: object) -> "ClauseEdit":
        if not isinstance(data, Mapping):
            raise ValueError("'edit' must be a JSON object")
        unknown = sorted(set(data) - {"kind", "clause", "text"})
        if unknown:
            raise ValueError(f"unknown edit key(s): {unknown}")
        missing = sorted({"kind", "clause", "text"} - set(data))
        if missing:
            raise ValueError(f"edit is missing key(s): {missing}")
        return cls(kind=data["kind"], clause=data["clause"], text=data["text"])


# -- requests ----------------------------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """One unit of work for any SpeakQL serving surface.

    ``seed`` selects the dictation path (speech simulation); ``None``
    treats ``text`` as a raw ASR transcription to correct.  ``deadline``
    is a latency budget in **seconds from submission** (``None`` = no
    deadline); ``overrides`` are :class:`SpeakQLConfig` field overrides
    applied for this request only, stored as a sorted tuple of pairs so
    the request stays frozen and hashable.  ``trace_id`` is the
    wire-level correlation id: clients may supply one, the daemons
    generate one otherwise, and it is echoed on the response and stamped
    on every span the request opens.

    ``session_id``/``turn`` enrol the request in a correction session:
    turn 0 is the cold decode that seeds the
    :class:`~repro.serving.sessions.SessionStore` entry, and every turn
    ``>= 1`` carries exactly one :class:`ClauseEdit`.  Sessions are
    transcription-mode only (``seed`` must stay ``None``); ``stream``
    asks the daemons to emit clause-level partial frames before the
    final reply.
    """

    text: str
    seed: int | None = None
    nbest: int | None = None
    speaker: "SpeakerProfile | None" = None
    deadline: float | None = None
    overrides: tuple[tuple[str, object], ...] = ()
    trace_id: str | None = None
    session_id: str | None = None
    turn: int = 0
    edit: "ClauseEdit | None" = None
    stream: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.overrides, Mapping):
            object.__setattr__(
                self, "overrides", tuple(sorted(self.overrides.items()))
            )
        elif isinstance(self.overrides, (tuple, list)):
            pairs = tuple(self.overrides)
            for pair in pairs:
                if (
                    not isinstance(pair, (tuple, list))
                    or len(pair) != 2
                    or not isinstance(pair[0], str)
                ):
                    raise TypeError(
                        "overrides pairs must be (name, value) 2-tuples "
                        f"with a string name, got {pair!r}"
                    )
            object.__setattr__(
                self, "overrides", tuple(tuple(pair) for pair in pairs)
            )
        else:
            raise TypeError(
                "overrides must be a mapping or a tuple of (name, value) "
                f"pairs, not {type(self.overrides).__name__}"
            )
        if self.nbest is not None and self.nbest < 1:
            raise ValueError("nbest must be >= 1 when given")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be a non-negative budget in seconds")
        if self.turn < 0:
            raise ValueError("turn must be >= 0")
        if self.turn > 0 and self.session_id is None:
            raise ValueError("turn > 0 requires a session_id")
        if self.edit is not None:
            if self.session_id is None or self.turn < 1:
                raise ValueError(
                    "an edit rides a correction turn: it requires a "
                    "session_id and turn >= 1"
                )
        elif self.session_id is not None and self.turn >= 1:
            raise ValueError(
                "correction turns (turn >= 1) must carry an edit; "
                "turn 0 is the cold decode"
            )
        if self.session_id is not None and self.seed is not None:
            raise ValueError(
                "sessions are transcription-mode only: a session request "
                "must leave seed=None"
            )

    @property
    def mode(self) -> str:
        """``"speech"`` (dictation) or ``"transcription"`` (correction)."""
        return "transcription" if self.seed is None else "speech"

    def overrides_dict(self) -> dict[str, object]:
        """The per-request config overrides as a plain dict."""
        return dict(self.overrides)

    def with_overrides(self, **overrides: object) -> "QueryRequest":
        """A copy with ``overrides`` merged over the existing ones."""
        merged = self.overrides_dict()
        merged.update(overrides)
        return replace(self, overrides=tuple(sorted(merged.items())))

    @classmethod
    def from_legacy(cls, query: object) -> "QueryRequest":
        """Normalize a legacy request shape into a :class:`QueryRequest`.

        Accepts a :class:`QueryRequest` (returned as-is), a bare string
        (corrected without an ASR step), or an object with
        ``sql``/``seed`` attributes (e.g.
        :class:`~repro.dataset.spoken.SpokenQuery`).  The historical
        ``(sql_text, seed)`` tuple form was removed and now raises
        :class:`TypeError` with a migration hint.
        """
        if isinstance(query, cls):
            return query
        if isinstance(query, str):
            return cls(text=query)
        if isinstance(query, tuple) and len(query) == 2:
            raise TypeError(
                "(sql, seed) tuple requests were removed; construct "
                "repro.api.QueryRequest(text=..., seed=...) instead"
            )
        sql = getattr(query, "sql", None)
        if isinstance(sql, str):
            return cls(text=sql, seed=getattr(query, "seed", None))
        raise TypeError(f"cannot interpret query request: {query!r}")


# -- responses ---------------------------------------------------------------


@dataclass(frozen=True)
class QueryResponse:
    """What one :class:`QueryRequest` produced.

    ``output`` is present for ``served``/``degraded`` outcomes and
    ``None`` for ``shed``/``timeout``/``failed``; ``rung`` is the
    degradation-ladder rung that answered (0 = the requested config);
    ``error`` carries the final error string of a ``failed`` (or the
    boundary description of a ``timeout``) response, and ``error_kind``
    the matching entry of the wire protocol's closed catalog
    (:data:`repro.serving.protocol.ERROR_KINDS`) when one applies.

    For session requests ``reused_spans`` names the clauses whose cached
    decode was spliced in unchanged, ``partial`` marks a clause-level
    partial frame (the final reply always has ``partial=False``), and
    ``partials`` buffers the partial frames the daemons write before the
    final reply (never serialized into :meth:`to_dict` itself).
    """

    request: QueryRequest
    outcome: str
    output: SpeakQLOutput | None = None
    record: "QueryRecord | None" = None
    rung: int = 0
    attempts: int = 1
    error: str | None = None
    wall_seconds: float = 0.0
    reused_spans: tuple[str, ...] = ()
    partial: bool = False
    error_kind: str | None = None
    partials: tuple = ()

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ValueError(
                f"unknown outcome {self.outcome!r}; expected one of {OUTCOMES}"
            )

    @property
    def ok(self) -> bool:
        """Whether an answer was produced (served or degraded)."""
        return self.output is not None

    @property
    def sql(self) -> str:
        """The top-1 corrected SQL ("" when no answer was produced)."""
        return self.output.sql if self.output is not None else ""

    @property
    def timings(self) -> ComponentTimings:
        """Per-stage timings (empty when the query never executed)."""
        if self.output is not None:
            return self.output.timings
        return ComponentTimings()

    @property
    def session_id(self) -> str | None:
        """The correction session this response belongs to (echoed)."""
        return self.request.session_id

    @property
    def turn(self) -> int:
        """The session turn this response answers (echoed)."""
        return self.request.turn

    def to_dict(self) -> dict:
        """JSON-ready summary (the daemon's wire format)."""
        return {
            "outcome": self.outcome,
            "sql": self.sql,
            "queries": list(self.output.queries) if self.output else [],
            "rung": self.rung,
            "attempts": self.attempts,
            "error": self.error,
            "error_kind": self.error_kind,
            "wall_ms": round(self.wall_seconds * 1000.0, 3),
            "trace_id": self.request.trace_id,
            "session_id": self.session_id,
            "turn": self.turn,
            "reused_spans": list(self.reused_spans),
            "partial": self.partial,
        }


#: Convenience shed/timeout constructors used by the serving runtime.
def shed_response(request: QueryRequest) -> QueryResponse:
    """The response for a request rejected at admission."""
    return QueryResponse(
        request=request, outcome=OUTCOME_SHED, attempts=0,
        error="queue full: request shed at admission",
    )


__all__ = [
    "BatchQueryError",
    "CLAUSE_NAMES",
    "ClauseEdit",
    "DeadlineExceededError",
    "EDIT_KINDS",
    "EDIT_REDICTATE",
    "EDIT_TOKEN_PATCH",
    "OUTCOMES",
    "OUTCOME_DEGRADED",
    "OUTCOME_FAILED",
    "OUTCOME_SERVED",
    "OUTCOME_SHED",
    "OUTCOME_TIMEOUT",
    "QueryRequest",
    "QueryResponse",
    "shed_response",
]
