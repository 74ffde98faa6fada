"""The versioned JSON-lines wire protocol of the serving daemon.

The one codec :mod:`repro.serving.async_daemon` decodes requests and
encodes replies with, on stdin and on every TCP connection alike — the
same hostile frame yields the identical ``error_kind`` reply on either
transport.

Wire shape (one JSON object per line)::

    {"id": 1, "text": "select salary from celeries",
     "protocol_version": 1}
    {"id": 2, "session_id": "s-1", "turn": 1,
     "edit": {"kind": "redictate", "clause": "WHERE",
              "text": "where salary > 60000"}}

- ``protocol_version`` is optional on requests (assumed current when
  absent, so pre-versioning clients keep working) but **closed**: a
  present-but-unsupported version is rejected with
  ``error_kind="unsupported_protocol"`` before any other validation.
  Every reply — success or error — is stamped with the version it
  speaks.
- ``error_kind`` values come from the closed :data:`ERROR_KINDS`
  catalog; clients can switch on them without parsing prose.
- ``partial: true`` asks for clause-level partial frames (one line per
  decoded clause, ``"partial": true``) before the final reply.

The codec is transport-free: it maps ``dict`` ↔
:class:`~repro.api.QueryRequest`/:class:`~repro.api.QueryResponse` and
leaves line framing, health probes, and concurrency to the daemon.
"""

from __future__ import annotations

import secrets
from dataclasses import replace

from repro.api import ClauseEdit, QueryRequest, QueryResponse

#: The one protocol version this build speaks.  Bump when the wire
#: shape changes incompatibly; requests pinned to another version are
#: rejected with :data:`ERROR_UNSUPPORTED_PROTOCOL`.
PROTOCOL_VERSION = 1

#: Default bound on one JSON-lines request frame.  A frame beyond this
#: is answered with a structured ``invalid_request`` error instead of
#: being parsed (or worse, killing the daemon) — the connection stays
#: alive.
DEFAULT_MAX_LINE_BYTES = 1 << 20

# -- the closed error catalog -------------------------------------------------

#: Client-side protocol errors: malformed JSON, unknown keys, oversized
#: frames, invalid field values.  Runtime outcomes
#: (``timeout``/``failed``/``shed``) are *not* errors of this kind —
#: they are valid responses.
ERROR_INVALID_REQUEST = "invalid_request"
#: The request pinned a ``protocol_version`` this build does not speak.
ERROR_UNSUPPORTED_PROTOCOL = "unsupported_protocol"
#: A correction turn referenced a session the store does not hold
#: (never started, expired past its TTL, or evicted by the LRU bound).
ERROR_UNKNOWN_SESSION = "unknown_session"
#: A correction turn arrived out of order for its session (the wire
#: contract is strictly ``turn == last_turn + 1``).
ERROR_TURN_CONFLICT = "turn_conflict"
#: The serving side raised unexpectedly while decoding a session turn.
ERROR_INTERNAL = "internal"

#: Every ``error_kind`` a reply can carry — closed so clients can
#: exhaustively switch on it.
ERROR_KINDS = (
    ERROR_INVALID_REQUEST,
    ERROR_UNSUPPORTED_PROTOCOL,
    ERROR_UNKNOWN_SESSION,
    ERROR_TURN_CONFLICT,
    ERROR_INTERNAL,
)


class UnsupportedProtocolError(ValueError):
    """A request pinned a protocol version this build does not speak."""

    kind = ERROR_UNSUPPORTED_PROTOCOL


#: Request keys the decoder accepts — anything else is rejected loudly
#: (a typo'd ``dedline_ms`` silently serving without a deadline would
#: be worse than an error).
ALLOWED_REQUEST_KEYS = frozenset({
    "id",
    "text",
    "seed",
    "nbest",
    "deadline_ms",
    "overrides",
    "trace_id",
    "protocol_version",
    "session_id",
    "turn",
    "edit",
    "partial",
})


def error_reply(kind: str, message: str, request_id=None) -> dict:
    """One structured error frame; ``kind`` must be in the catalog."""
    if kind not in ERROR_KINDS:
        raise ValueError(
            f"unknown error kind {kind!r}; expected one of {ERROR_KINDS}"
        )
    return {
        "id": request_id,
        "error": message,
        "error_kind": kind,
        "protocol_version": PROTOCOL_VERSION,
    }


def invalid_request_reply(message: str, request_id=None) -> dict:
    """The structured error reply for an unusable request frame."""
    return error_reply(ERROR_INVALID_REQUEST, message, request_id)


def oversized_line_reply(max_line_bytes: int) -> dict:
    return invalid_request_reply(
        f"request line exceeds max_line_bytes={max_line_bytes}"
    )


def decode_request(data: dict) -> QueryRequest:
    """Build a :class:`QueryRequest` from one decoded wire object.

    ``deadline_ms`` (milliseconds, wire-friendly) maps to the request's
    ``deadline`` budget in seconds; ``overrides`` is an optional config
    override mapping.  Raises :class:`UnsupportedProtocolError` for a
    pinned-but-unsupported ``protocol_version`` and :class:`ValueError`
    (→ ``invalid_request``) for everything else unusable.
    """
    unknown = sorted(set(data) - ALLOWED_REQUEST_KEYS)
    if unknown:
        raise ValueError(f"unknown request key(s): {unknown}")
    version = data.get("protocol_version")
    if version is not None and version != PROTOCOL_VERSION:
        raise UnsupportedProtocolError(
            f"protocol_version {version!r} is not supported; this build "
            f"speaks version {PROTOCOL_VERSION}"
        )
    edit_data = data.get("edit")
    edit = None
    if edit_data is not None:
        edit = ClauseEdit.from_dict(edit_data)
    text = data.get("text")
    if text is None and edit is not None:
        # Correction turns carry the edit; the full text lives in the
        # session state, so the wire frame may omit it.
        text = ""
    if not isinstance(text, str) or (not text and edit is None):
        raise ValueError("request needs a non-empty 'text' string")
    deadline_ms = data.get("deadline_ms")
    trace_id = data.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ValueError("'trace_id' must be a string")
    session_id = data.get("session_id")
    if session_id is not None and (
        not isinstance(session_id, str) or not session_id
    ):
        raise ValueError("'session_id' must be a non-empty string")
    turn = data.get("turn", 0)
    if not isinstance(turn, int) or isinstance(turn, bool):
        raise ValueError("'turn' must be an integer")
    stream = data.get("partial", False)
    if not isinstance(stream, bool):
        raise ValueError("'partial' must be a boolean")
    return QueryRequest(
        text=text,
        seed=data.get("seed"),
        nbest=data.get("nbest"),
        deadline=deadline_ms / 1000.0 if deadline_ms is not None else None,
        overrides=data.get("overrides") or (),
        trace_id=trace_id,
        session_id=session_id,
        turn=turn,
        edit=edit,
        stream=stream,
    )


def encode_response(response: QueryResponse, request_id=None) -> dict:
    """The final reply frame for one served request."""
    out = response.to_dict()
    out["protocol_version"] = PROTOCOL_VERSION
    if request_id is not None:
        out["id"] = request_id
    return out


def partial_frames(response: QueryResponse, request_id=None) -> list[dict]:
    """The buffered clause-level partial frames preceding the final
    reply (empty unless the request asked ``partial: true``)."""
    frames = []
    for partial in response.partials:
        frame = dict(partial)
        frame["partial"] = True
        frame["protocol_version"] = PROTOCOL_VERSION
        frame["trace_id"] = response.request.trace_id
        frame["session_id"] = response.session_id
        frame["turn"] = response.turn
        if request_id is not None:
            frame["id"] = request_id
        frames.append(frame)
    return frames


def response_frames(response: QueryResponse, request_id=None) -> list[dict]:
    """Every wire frame one response produces: the partial frames (if
    streaming was requested) followed by the final reply."""
    frames = partial_frames(response, request_id)
    frames.append(encode_response(response, request_id))
    return frames


def ensure_trace_id(request: QueryRequest) -> QueryRequest:
    """The request with a trace id: the client's, or a fresh 64-bit hex
    id generated at the daemon edge."""
    if request.trace_id is not None:
        return request
    return replace(request, trace_id=secrets.token_hex(8))


def error_kind_of(error: BaseException) -> str:
    """The catalog entry for a decode-time exception (errors carrying a
    ``kind`` attribute keep it; everything else is ``invalid_request``)."""
    kind = getattr(error, "kind", ERROR_INVALID_REQUEST)
    return kind if kind in ERROR_KINDS else ERROR_INVALID_REQUEST


__all__ = [
    "ALLOWED_REQUEST_KEYS",
    "DEFAULT_MAX_LINE_BYTES",
    "ERROR_INTERNAL",
    "ERROR_INVALID_REQUEST",
    "ERROR_KINDS",
    "ERROR_TURN_CONFLICT",
    "ERROR_UNKNOWN_SESSION",
    "ERROR_UNSUPPORTED_PROTOCOL",
    "PROTOCOL_VERSION",
    "UnsupportedProtocolError",
    "decode_request",
    "encode_response",
    "ensure_trace_id",
    "error_kind_of",
    "error_reply",
    "invalid_request_reply",
    "oversized_line_reply",
    "partial_frames",
    "response_frames",
]
