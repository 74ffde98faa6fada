"""The serving daemon's stdin contract and its probe port.

Each request here travels the way ``repro serve`` reads it: a line on
stdin, served on a dispatch thread, frames back on stdout.
(``test_async_daemon.py`` covers ``handle_frames`` directly, the bounded
TCP reader, and concurrent TCP clients.)
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.api import QueryRequest
from repro.core import SpeakQLArtifacts, SpeakQLService
from repro.serving import AsyncServingDaemon, ServingRuntime, decode_request
from repro.serving.telemetry import PROMETHEUS_CONTENT_TYPE

from .daemon_harness import fetch, serve_stdin, serve_while


def make_runtime(request, **kwargs) -> ServingRuntime:
    small_catalog = request.getfixturevalue("small_catalog")
    small_index = request.getfixturevalue("small_index")
    artifacts = SpeakQLArtifacts.build(
        structure_index=small_index,
        training_sql=["SELECT FirstName FROM Employees"],
    )
    service = SpeakQLService(small_catalog, artifacts=artifacts)
    return ServingRuntime(service, **kwargs)


@pytest.fixture(scope="module")
def runtime(request):
    # daemon.run shuts the runtime down on EOF; that only flushes
    # traces, so the runtime stays usable.
    return make_runtime(request)


def serve_line(runtime, line: str, **kwargs) -> list[dict]:
    """Every frame the daemon writes for one stdin line."""
    code, frames = serve_stdin(
        AsyncServingDaemon(runtime, **kwargs), line + "\n"
    )
    assert code == 0
    return frames


class TestWireFormat:
    def test_minimal_request(self):
        request = decode_request({"text": "select salary"})
        assert request == QueryRequest(text="select salary")
        assert request.deadline is None

    def test_full_request(self):
        request = decode_request(
            {
                "id": 4,
                "text": "SELECT FirstName FROM Employees",
                "seed": 7,
                "nbest": 3,
                "deadline_ms": 250,
                "overrides": {"top_k": 1},
            }
        )
        assert request.seed == 7
        assert request.nbest == 3
        assert request.deadline == 0.25
        assert request.overrides_dict() == {"top_k": 1}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="dedline_ms"):
            decode_request({"text": "x", "dedline_ms": 1})

    def test_text_required(self):
        with pytest.raises(ValueError, match="text"):
            decode_request({"seed": 7})
        with pytest.raises(ValueError, match="text"):
            decode_request({"text": ""})


class TestHandleLine:
    def test_served_response_echoes_id(self, runtime):
        [out] = serve_line(
            runtime, json.dumps({"id": 9, "text": "select salary from salaries"})
        )
        assert out["id"] == 9
        assert out["outcome"] == "served"
        assert out["sql"] == "SELECT salary FROM Salaries"
        assert out["rung"] == 0
        assert out["error"] is None

    def test_timeout_outcome_on_zero_deadline(self, runtime):
        [out] = serve_line(
            runtime,
            json.dumps(
                {"text": "SELECT FirstName FROM Employees",
                 "seed": 7, "deadline_ms": 0}
            ),
        )
        assert out["outcome"] == "timeout"
        assert out["sql"] == ""
        assert "deadline exceeded" in out["error"]

    def test_blank_line_is_skipped(self, runtime):
        assert serve_line(runtime, "   ") == []

    def test_malformed_json_reports_error(self, runtime):
        [out] = serve_line(runtime, "{not json")
        assert "error" in out
        assert out["error_kind"] == "invalid_request"
        assert out["id"] is None

    def test_oversized_line_reports_structured_error(self, runtime):
        [out] = serve_line(
            runtime, json.dumps({"id": 1, "text": "x" * 512}),
            max_line_bytes=64,
        )
        assert out["error_kind"] == "invalid_request"
        assert "max_line_bytes=64" in out["error"]

    def test_line_at_the_bound_is_still_parsed(self, runtime):
        # The bound counts the frame, not its newline.
        line = json.dumps({"text": "select salary from salaries"})
        [out] = serve_line(
            runtime, line, max_line_bytes=len(line.encode("utf-8"))
        )
        assert out["outcome"] == "served"

    def test_max_line_bytes_validated(self, runtime):
        with pytest.raises(ValueError, match="max_line_bytes"):
            AsyncServingDaemon(runtime, max_line_bytes=0)

    def test_non_object_reports_error(self, runtime):
        [out] = serve_line(runtime, "[1, 2]")
        assert out["error_kind"] == "invalid_request"
        assert "JSON object" in out["error"]

    def test_bad_request_keeps_id(self, runtime):
        [out] = serve_line(
            runtime, json.dumps({"id": 3, "text": "x", "bogus": 1})
        )
        assert out["id"] == 3
        assert "bogus" in out["error"]


class TestRunLoop:
    def test_one_line_in_one_line_out(self, runtime, monkeypatch):
        shutdowns = []
        real_shutdown = runtime.shutdown

        def shutdown():
            shutdowns.append(True)
            real_shutdown()

        monkeypatch.setattr(runtime, "shutdown", shutdown)
        stdin = (
            json.dumps({"id": 1, "text": "select salary from salaries"})
            + "\n\n"
            + "{broken\n"
        )
        code, frames = serve_stdin(AsyncServingDaemon(runtime), stdin)
        # EOF ends the daemon cleanly and shuts the runtime down.
        assert code == 0
        assert shutdowns == [True]
        # The blank line produced no output; replies correlate by id.
        assert len(frames) == 2
        replies = {out.get("id"): out for out in frames}
        assert replies[1]["outcome"] == "served"
        assert replies[None]["error_kind"] == "invalid_request"


class TestHealthProbes:
    def test_probe_endpoints(self, request):
        runtime = make_runtime(request, queue_limit=1)
        pipeline = runtime.service.pipeline
        real = pipeline.correct_transcription
        started = threading.Event()
        release = threading.Event()

        def blocking(text, **kwargs):
            started.set()
            assert release.wait(timeout=10)
            return real(text, **kwargs)

        async def scenario(daemon):
            address = daemon.health_address
            seen = {path: await fetch(address, path)
                    for path in ("/healthz", "/readyz", "/metrics",
                                 "/statusz", "/bogus")}
            # One request in flight fills a queue of one: not ready.
            pipeline.correct_transcription = blocking
            occupant = threading.Thread(
                target=runtime.submit,
                args=(QueryRequest(text="select salary from salaries"),),
            )
            occupant.start()
            try:
                assert await asyncio.to_thread(started.wait, 10)
                seen["/readyz (full)"] = await fetch(address, "/readyz")
            finally:
                release.set()
                await asyncio.to_thread(occupant.join, 10)
                del pipeline.correct_transcription
            return seen

        daemon = AsyncServingDaemon(runtime, health_port=0)
        code, seen = serve_while(daemon, scenario)
        assert code == 0
        status, content_type, body = seen["/healthz"]
        assert status == 200 and content_type == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["ready"] is True
        assert seen["/readyz"][0] == 200
        status, content_type, _ = seen["/metrics"]
        assert status == 200 and content_type == PROMETHEUS_CONTENT_TYPE
        status, _, body = seen["/statusz"]
        assert status == 200 and "ladder" in json.loads(body)
        assert seen["/bogus"][0] == 404
        status, _, body = seen["/readyz (full)"]
        assert status == 503
        assert json.loads(body)["inflight"] == 1
        assert daemon.health_address is None  # closed at shutdown

    def test_disabled_by_default(self, runtime):
        async def scenario(daemon):
            return daemon.health_address, daemon.telemetry_address

        code, addresses = serve_while(AsyncServingDaemon(runtime), scenario)
        assert code == 0
        assert addresses == (None, None)
