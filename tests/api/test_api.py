"""Tests for the unified request/response API (``repro.api``).

The removed ``(sql, seed)`` tuple form is exercised once (as a hard
TypeError) in ``tests/core/test_service.py::TestRequestNormalization``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.api import (
    EDIT_REDICTATE,
    EDIT_TOKEN_PATCH,
    OUTCOMES,
    BatchQueryError,
    ClauseEdit,
    QueryRequest,
    QueryResponse,
    shed_response,
)
from repro.core import SpeakQLArtifacts, SpeakQLService


class TestQueryRequest:
    def test_overrides_mapping_normalizes_to_sorted_pairs(self):
        request = QueryRequest(
            text="x", overrides={"use_bdb": False, "top_k": 1}
        )
        assert request.overrides == (
            ("top_k", 1), ("use_bdb", False),
        )
        assert request.overrides_dict() == {
            "use_bdb": False, "top_k": 1,
        }

    def test_requests_are_frozen_and_hashable(self):
        request = QueryRequest(text="x", seed=7, overrides={"top_k": 1})
        assert hash(request) == hash(
            QueryRequest(text="x", seed=7, overrides={"top_k": 1})
        )
        with pytest.raises(AttributeError):
            request.seed = 8

    def test_mode_follows_seed(self):
        assert QueryRequest(text="x", seed=7).mode == "speech"
        assert QueryRequest(text="x").mode == "transcription"

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            QueryRequest(text="x", deadline=-0.1)

    def test_with_overrides_merges(self):
        request = QueryRequest(text="x", overrides={"top_k": 5})
        merged = request.with_overrides(top_k=1, use_dap=False)
        assert merged.overrides_dict() == {"top_k": 1, "use_dap": False}
        assert request.overrides_dict() == {"top_k": 5}  # original untouched

    def test_from_legacy_passthrough_and_string(self):
        request = QueryRequest(text="x", seed=7)
        assert QueryRequest.from_legacy(request) is request
        corrected = QueryRequest.from_legacy("select salary")
        assert corrected == QueryRequest(text="select salary")
        assert corrected.mode == "transcription"

    def test_from_legacy_sql_attribute_shape(self):
        spoken = SimpleNamespace(sql="SELECT 1", seed=3)
        request = QueryRequest.from_legacy(spoken)
        assert request.text == "SELECT 1"
        assert request.seed == 3

    def test_from_legacy_rejects_unknown_shapes(self):
        with pytest.raises(TypeError):
            QueryRequest.from_legacy(42)

    def test_from_legacy_tuple_is_a_hard_error(self):
        with pytest.raises(TypeError, match="QueryRequest\\(text=...,"):
            QueryRequest.from_legacy(("SELECT 1", 7))

    def test_overrides_pairs_accepted_without_sorting(self):
        request = QueryRequest(
            text="x", overrides=[("use_bdb", False), ("top_k", 1)]
        )
        assert request.overrides == (
            ("use_bdb", False), ("top_k", 1),
        )

    def test_overrides_rejects_unknown_container_types(self):
        with pytest.raises(TypeError, match="overrides must be a mapping"):
            QueryRequest(text="x", overrides=42)
        with pytest.raises(TypeError, match="overrides must be a mapping"):
            QueryRequest(text="x", overrides="top_k=1")
        with pytest.raises(TypeError, match="pairs"):
            QueryRequest(text="x", overrides=[("top_k", 1, "extra")])

    def test_nbest_validated_at_construction(self):
        with pytest.raises(ValueError, match="nbest"):
            QueryRequest(text="x", nbest=0)
        assert QueryRequest(text="x", nbest=3).nbest == 3


class TestSessionFields:
    def test_turn_requires_session(self):
        with pytest.raises(ValueError, match="session_id"):
            QueryRequest(text="x", turn=1)

    def test_correction_turn_requires_edit(self):
        with pytest.raises(ValueError, match="edit"):
            QueryRequest(text="x", session_id="s", turn=1)

    def test_edit_requires_correction_turn(self):
        edit = ClauseEdit(EDIT_REDICTATE, "WHERE", "where salary above 10")
        with pytest.raises(ValueError, match="turn"):
            QueryRequest(text="x", edit=edit)
        request = QueryRequest(text="", session_id="s", turn=1, edit=edit)
        assert request.edit is edit

    def test_sessions_are_transcription_mode_only(self):
        with pytest.raises(ValueError, match="transcription"):
            QueryRequest(text="x", session_id="s", seed=7)

    def test_clause_edit_validates(self):
        with pytest.raises(ValueError, match="kind"):
            ClauseEdit("scribble", "WHERE", "x")
        with pytest.raises(ValueError, match="clause"):
            ClauseEdit(EDIT_REDICTATE, "HAVING", "x")
        with pytest.raises(ValueError, match="text"):
            ClauseEdit(EDIT_TOKEN_PATCH, "WHERE", "   ")

    def test_clause_edit_round_trips_via_dict(self):
        edit = ClauseEdit(EDIT_TOKEN_PATCH, "GROUP BY", "group by gender")
        assert ClauseEdit.from_dict(edit.to_dict()) == edit
        with pytest.raises(ValueError, match="unknown"):
            ClauseEdit.from_dict({**edit.to_dict(), "extra": 1})


class TestQueryResponse:
    def test_outcome_validated(self):
        request = QueryRequest(text="x")
        with pytest.raises(ValueError, match="unknown outcome"):
            QueryResponse(request=request, outcome="lost")
        for outcome in OUTCOMES:
            QueryResponse(request=request, outcome=outcome)

    def test_answerless_response_defaults(self):
        response = shed_response(QueryRequest(text="x"))
        assert response.outcome == "shed"
        assert response.ok is False
        assert response.sql == ""
        assert response.attempts == 0
        assert response.timings.stages == {}

    def test_to_dict_wire_shape(self):
        response = QueryResponse(
            request=QueryRequest(text="x", trace_id="t-123"),
            outcome="timeout",
            rung=1,
            attempts=2,
            error="deadline exceeded before stage 'mask'",
            wall_seconds=0.0123456,
        )
        assert response.to_dict() == {
            "outcome": "timeout",
            "sql": "",
            "queries": [],
            "rung": 1,
            "attempts": 2,
            "error": "deadline exceeded before stage 'mask'",
            "error_kind": None,
            "wall_ms": 12.346,
            "trace_id": "t-123",
            "session_id": None,
            "turn": 0,
            "reused_spans": [],
            "partial": False,
        }

    def test_to_dict_trace_id_defaults_none(self):
        response = shed_response(QueryRequest(text="x"))
        assert response.to_dict()["trace_id"] is None


class TestBatchQueryError:
    def test_message_names_index_and_request(self):
        error = BatchQueryError(
            3, QueryRequest(text="SELECT 1", seed=9), RuntimeError("boom")
        )
        assert "#3" in str(error)
        assert "'SELECT 1'" in str(error)
        assert "seed=9" in str(error)
        assert "boom" in str(error)
        assert error.index == 3
        assert isinstance(error, RuntimeError)

    def test_long_text_is_previewed(self):
        error = BatchQueryError(
            0, QueryRequest(text="x" * 100), RuntimeError("boom")
        )
        assert "x" * 57 + "..." in str(error)
        assert "x" * 61 not in str(error)

    def test_worker_failure_surfaces_input_index(self, request):
        """A worker raising mid-batch names the failing input."""
        small_catalog = request.getfixturevalue("small_catalog")
        small_index = request.getfixturevalue("small_index")
        artifacts = SpeakQLArtifacts.build(
            structure_index=small_index,
            training_sql=["SELECT FirstName FROM Employees"],
        )
        service = SpeakQLService(small_catalog, artifacts=artifacts)
        real = service.pipeline.correct_transcription

        def poisoned(text, **kwargs):
            if text == "poison this one":
                raise RuntimeError("stage blew up")
            return real(text, **kwargs)

        service.pipeline.correct_transcription = poisoned
        try:
            with pytest.raises(BatchQueryError) as excinfo:
                service.run_batch(
                    [
                        "select salary from salaries",
                        "poison this one",
                        "select salary from salaries",
                    ],
                    workers=2,
                )
        finally:
            del service.pipeline.correct_transcription
        assert excinfo.value.index == 1
        assert "#1" in str(excinfo.value)
        assert "stage blew up" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
