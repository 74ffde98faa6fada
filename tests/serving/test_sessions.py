"""Tests for correction sessions: store lifecycle and runtime routing.

The store's behavioural contract — TTL expiry, LRU eviction at the
bound, monotonic turn ordering — is tested against a fake clock; the
runtime tests assert the session error taxonomy surfaces as structured
``error_kind`` responses and that session activity shows up in
health/statusz and forensic records.
"""

from __future__ import annotations

import pytest

from repro.api import (
    EDIT_REDICTATE,
    EDIT_TOKEN_PATCH,
    ClauseEdit,
    QueryRequest,
)
from repro.core import SpeakQLArtifacts, SpeakQLService
from repro.observability import names as obs_names
from repro.observability.metrics import MetricsRegistry
from repro.serving import ServingRuntime, SessionStore
from repro.serving.protocol import (
    ERROR_TURN_CONFLICT,
    ERROR_UNKNOWN_SESSION,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


def make_runtime(request, **kwargs) -> ServingRuntime:
    small_catalog = request.getfixturevalue("small_catalog")
    small_index = request.getfixturevalue("small_index")
    artifacts = SpeakQLArtifacts.build(
        structure_index=small_index,
        training_sql=["SELECT FirstName FROM Employees"],
    )
    service = SpeakQLService(small_catalog, artifacts=artifacts)
    return ServingRuntime(service, **kwargs)


def cold(session_id: str, text: str, **kwargs) -> QueryRequest:
    return QueryRequest(text=text, session_id=session_id, turn=0, **kwargs)


def correction(session_id: str, turn: int, clause: str, text: str,
               kind: str = EDIT_REDICTATE) -> QueryRequest:
    return QueryRequest(
        text="",
        session_id=session_id,
        turn=turn,
        edit=ClauseEdit(kind, clause, text),
    )


class TestSessionStore:
    def test_ttl_expires_idle_sessions(self, clock):
        store = SessionStore(ttl_seconds=10.0, clock=clock)
        store.create("a")
        clock.advance(5.0)
        assert store.get("a") is not None  # touch refreshes last_used
        clock.advance(9.0)
        assert store.get("a") is not None
        clock.advance(11.0)
        assert store.get("a") is None
        assert store.stats()["expired_total"] == 1

    def test_lru_eviction_at_the_bound(self, clock):
        store = SessionStore(limit=2, ttl_seconds=1000.0, clock=clock)
        store.create("a")
        store.create("b")
        assert store.get("a") is not None  # "a" now most recently used
        store.create("c")  # evicts "b", the LRU entry
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.get("c") is not None
        stats = store.stats()
        assert stats["evicted_lru_total"] == 1
        assert stats["live"] == 2

    def test_create_replaces_existing_session(self, clock):
        store = SessionStore(clock=clock)
        first = store.create("a")
        second = store.create("a")
        assert second is not first
        assert len(store) == 1

    def test_stats_counts_turns(self, clock):
        store = SessionStore(clock=clock)
        state = store.create("a")
        store.record_turn(state)
        store.record_turn(state)
        assert store.stats()["turns_total"] == 2
        assert store.stats()["created_total"] == 1


class TestRuntimeSessions:
    def test_unknown_session_error_kind(self, request):
        runtime = make_runtime(request)
        response = runtime.submit(
            correction("ghost", 1, "WHERE", "where salary above 10")
        )
        assert response.outcome == "failed"
        assert response.error_kind == ERROR_UNKNOWN_SESSION

    def test_turn_ordering_enforced(self, request):
        runtime = make_runtime(request)
        assert runtime.submit(cold("s", "select salary from salaries")).ok
        # Skipping ahead and replaying both conflict deterministically.
        skipped = runtime.submit(
            correction("s", 3, "WHERE", "where salary above 10")
        )
        assert skipped.error_kind == ERROR_TURN_CONFLICT
        replay = runtime.submit(cold("s", "select salary from salaries"))
        assert replay.ok  # turn 0 recreates the session by design
        repeated = runtime.submit(
            correction("s", 2, "WHERE", "where salary above 10")
        )
        assert repeated.error_kind == ERROR_TURN_CONFLICT  # next is turn 1

    def test_evicted_session_turns_unknown(self, request):
        runtime = make_runtime(request, session_limit=1)
        assert runtime.submit(cold("a", "select salary from salaries")).ok
        assert runtime.submit(cold("b", "select salary from salaries")).ok
        response = runtime.submit(
            correction("a", 1, "WHERE", "where salary above 10")
        )
        assert response.error_kind == ERROR_UNKNOWN_SESSION

    def test_token_patch_and_redictate_both_decode(self, request):
        runtime = make_runtime(request)
        assert runtime.submit(
            cold("s", "select first name from employees")
        ).ok
        for turn, kind in ((1, EDIT_REDICTATE), (2, EDIT_TOKEN_PATCH)):
            response = runtime.submit(correction(
                "s", turn, "WHERE", "where gender equals f", kind=kind
            ))
            assert response.ok
            assert response.reused_spans  # SELECT/FROM spliced back in

    def test_health_and_statusz_report_sessions(self, request):
        runtime = make_runtime(request, session_limit=7)
        runtime.submit(cold("s", "select salary from salaries"))
        assert runtime.health()["sessions"] == {"live": 1, "limit": 7}
        stats = runtime.statusz()["sessions"]
        assert stats["created_total"] == 1
        assert stats["turns_total"] == 1

    def test_session_metrics_recorded(self, request):
        metrics = MetricsRegistry()
        runtime = make_runtime(request, metrics=metrics)
        runtime.submit(cold("s", "select first name from employees"))
        runtime.submit(
            correction("s", 1, "WHERE", "where gender equals f")
        )
        values = {
            (name, tuple(sorted(labels.items()))): instrument.value
            for name, labels, instrument in metrics.collect()
            if hasattr(instrument, "value")
        }
        assert values[
            (obs_names.SESSION_TURNS_TOTAL, (("kind", "cold"),))
        ] == 1
        assert values[
            (obs_names.SESSION_TURNS_TOTAL, (("kind", "redictate"),))
        ] == 1
        assert values[(obs_names.SESSION_SPANS_REUSED_TOTAL, ())] == 2
        assert values[(obs_names.SESSION_LIVE, ())] == 1

    def test_forensic_records_link_session_turns(self, request):
        runtime = make_runtime(request)
        from repro.observability.forensics import Recorder

        recorder = Recorder()
        for req in (
            cold("s", "select first name from employees"),
            correction("s", 1, "WHERE", "where gender equals f"),
        ):
            runtime.submit(req, record=recorder.start_request(req))
        records = recorder.records
        assert [r.session_id for r in records] == ["s", "s"]
        assert [r.turn for r in records] == [0, 1]
        assert records[1].reused_spans == ("SELECT", "FROM")

    def test_streaming_collects_partials(self, request):
        runtime = make_runtime(request)
        response = runtime.submit(
            cold("s", "select first name from employees", stream=True)
        )
        assert response.ok
        assert [p["clause"] for p in response.partials] == ["SELECT", "FROM"]
        assert all(p["reused"] is False for p in response.partials)


def test_merged_stats_sum_near_seeds():
    from repro.serving.sessions import merge_search_stats
    from repro.structure.search import SearchStats

    merged = merge_search_stats([
        SearchStats(near_seeds=1, beam_bound_updates=0),
        None,
        SearchStats(near_seeds=0, beam_bound_updates=1),
        SearchStats(near_seeds=1),
    ])
    assert merged.near_seeds == 2
    assert merged.beam_bound_updates == 1
