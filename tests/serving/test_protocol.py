"""Drift-proof tests for the wire protocol (``serving/protocol``).

The daemon decodes requests and encodes replies through one codec on
every transport, so the contract here is stated once and asserted on
both ways in: the same hostile frame must produce the same
``error_kind`` reply whether it reaches ``handle_frames`` directly (as
TCP frames do) or arrives on stdin, and every reply — success, partial,
or error — carries ``protocol_version``.
"""

from __future__ import annotations

import json

import pytest

from repro.api import QueryRequest
from repro.core import SpeakQLArtifacts, SpeakQLService
from repro.serving import AsyncServingDaemon, ServingRuntime
from repro.serving.protocol import (
    ERROR_KINDS,
    ERROR_TURN_CONFLICT,
    ERROR_UNKNOWN_SESSION,
    ERROR_UNSUPPORTED_PROTOCOL,
    PROTOCOL_VERSION,
    UnsupportedProtocolError,
    decode_request,
    encode_response,
    error_reply,
)

from .daemon_harness import handle_frames, serve_stdin


@pytest.fixture()
def fresh_runtime(request):
    small_catalog = request.getfixturevalue("small_catalog")
    small_index = request.getfixturevalue("small_index")
    artifacts = SpeakQLArtifacts.build(
        structure_index=small_index,
        training_sql=["SELECT FirstName FROM Employees"],
    )
    service = SpeakQLService(small_catalog, artifacts=artifacts)
    return ServingRuntime(service)


def daemon_frames(runtime, *lines: str) -> list[list[dict]]:
    return handle_frames(AsyncServingDaemon(runtime), *lines)


def stdin_frames(runtime, line: str) -> list[dict]:
    code, frames = serve_stdin(
        AsyncServingDaemon(runtime), line + "\n"
    )
    assert code == 0
    return frames


class TestDecodeRequest:
    def test_session_fields_decode(self):
        request = decode_request(
            {
                "text": "select salary",
                "session_id": "s-1",
                "turn": 0,
                "partial": True,
            }
        )
        assert request.session_id == "s-1"
        assert request.turn == 0
        assert request.stream is True

    def test_edit_decodes_and_text_may_be_absent(self):
        request = decode_request(
            {
                "session_id": "s-1",
                "turn": 1,
                "edit": {
                    "kind": "redictate",
                    "clause": "WHERE",
                    "text": "where salary above 10",
                },
            }
        )
        assert request.edit is not None
        assert request.edit.clause == "WHERE"
        assert request.text == ""

    def test_current_protocol_version_accepted(self):
        request = decode_request(
            {"text": "x", "protocol_version": PROTOCOL_VERSION}
        )
        assert request == QueryRequest(text="x")

    def test_future_protocol_version_rejected(self):
        with pytest.raises(UnsupportedProtocolError):
            decode_request({"text": "x", "protocol_version": 99})

    def test_turn_must_be_an_int(self):
        with pytest.raises(ValueError, match="turn"):
            decode_request({"text": "x", "session_id": "s", "turn": "one"})
        with pytest.raises(ValueError, match="turn"):
            decode_request({"text": "x", "session_id": "s", "turn": True})

    def test_session_id_must_be_a_nonempty_string(self):
        with pytest.raises(ValueError, match="session_id"):
            decode_request({"text": "x", "session_id": ""})
        with pytest.raises(ValueError, match="session_id"):
            decode_request({"text": "x", "session_id": 7})


class TestReplies:
    def test_error_reply_requires_catalog_kind(self):
        with pytest.raises(ValueError, match="unknown error kind"):
            error_reply("made_up_kind", "boom")

    def test_error_reply_shape(self):
        reply = error_reply(ERROR_UNKNOWN_SESSION, "gone", request_id=4)
        assert reply == {
            "id": 4,
            "error": "gone",
            "error_kind": ERROR_UNKNOWN_SESSION,
            "protocol_version": PROTOCOL_VERSION,
        }

    def test_encode_response_stamps_version(self, fresh_runtime):
        response = fresh_runtime.submit(
            QueryRequest(text="select salary from salaries")
        )
        encoded = encode_response(response, request_id=1)
        assert encoded["protocol_version"] == PROTOCOL_VERSION
        assert encoded["id"] == 1
        assert encoded["outcome"] == "served"


# Hostile frames whose replies must not drift between the transports.
# (kind, line) — kind is the expected error_kind on the single reply.
HOSTILE = [
    ("invalid_request", "{not json"),
    ("invalid_request", "[1, 2]"),
    ("invalid_request", json.dumps({"id": 3, "text": "x", "bogus": 1})),
    ("invalid_request", json.dumps({"seed": 7})),
    ("invalid_request", json.dumps({"text": "x", "turn": -1,
                                    "session_id": "s"})),
    ("invalid_request", json.dumps({"text": "x", "session_id": "s",
                                    "turn": 1})),
    ("unsupported_protocol", json.dumps({"text": "x",
                                         "protocol_version": 99})),
    ("unknown_session", json.dumps({
        "session_id": "never-created", "turn": 1,
        "edit": {"kind": "redictate", "clause": "WHERE",
                 "text": "where salary above 10"},
    })),
]


class TestDaemonParity:
    @pytest.mark.parametrize("kind,line", HOSTILE)
    def test_same_error_kind_on_both_daemons(
        self, fresh_runtime, kind, line
    ):
        """The daemon's two ways in (direct frames, a stdin line) agree."""
        [direct_out] = daemon_frames(fresh_runtime, line)
        stdin_out = stdin_frames(fresh_runtime, line)
        assert len(direct_out) == len(stdin_out) == 1
        assert direct_out[0]["error_kind"] == kind
        assert stdin_out[0]["error_kind"] == kind
        assert direct_out[0]["protocol_version"] == PROTOCOL_VERSION
        assert stdin_out[0]["protocol_version"] == PROTOCOL_VERSION
        assert direct_out[0].get("id") == stdin_out[0].get("id")
        assert kind in ERROR_KINDS

    def test_turn_conflict_is_reported_on_the_wire(self, fresh_runtime):
        [cold], [conflict] = daemon_frames(
            fresh_runtime,
            json.dumps({
                "text": "select salary from salaries",
                "session_id": "w-1", "turn": 0,
            }),
            json.dumps({
                "session_id": "w-1", "turn": 5,
                "edit": {"kind": "redictate", "clause": "WHERE",
                         "text": "where salary above 10"},
            }),
        )
        assert cold["outcome"] == "served"
        assert conflict["error_kind"] == ERROR_TURN_CONFLICT
        assert conflict["outcome"] == "failed"

    def test_two_turn_session_exchange(self, fresh_runtime):
        """Cold turn, then a WHERE re-dictation that reuses spans."""
        [cold], [warm] = daemon_frames(
            fresh_runtime,
            json.dumps({
                "id": 1, "text": "select first name from employees",
                "session_id": "w-2", "turn": 0,
            }),
            json.dumps({
                "id": 2, "session_id": "w-2", "turn": 1,
                "edit": {"kind": "redictate", "clause": "WHERE",
                         "text": "where gender equals f"},
            }),
        )
        assert cold["outcome"] == "served"
        assert cold["session_id"] == "w-2"
        assert cold["turn"] == 0
        assert warm["outcome"] == "served"
        assert warm["turn"] == 1
        assert warm["reused_spans"] == ["SELECT", "FROM"]
        assert warm["protocol_version"] == PROTOCOL_VERSION

    def test_partial_frames_precede_the_final(self, fresh_runtime):
        [frames] = daemon_frames(fresh_runtime, json.dumps({
            "id": 7, "text": "select first name from employees",
            "session_id": "w-3", "turn": 0, "partial": True,
        }))
        assert len(frames) > 1
        *partials, final = frames
        assert all(frame["partial"] for frame in partials)
        assert all(
            frame["protocol_version"] == PROTOCOL_VERSION for frame in frames
        )
        assert all(frame["id"] == 7 for frame in frames)
        assert final["partial"] is False
        assert final["outcome"] == "served"
        assert [p["clause"] for p in partials] == ["SELECT", "FROM"]

    def test_unsupported_protocol_kind_in_catalog(self):
        assert ERROR_UNSUPPORTED_PROTOCOL in ERROR_KINDS
