"""The live telemetry plane: /metrics + /statusz on the daemon's ports,
deterministic statusz percentiles under a fake clock, trace sampling
into the rotating sink, wire trace-id generation/echo, and prompt
flush-on-signal for the CLI daemon.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import QueryRequest
from repro.core import SpeakQLArtifacts, SpeakQLService
from repro.observability import RotatingTraceSink, Tracer
from repro.observability import names as obs_names
from repro.observability.export import read_trace_jsonl
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.serving import (
    DEFAULT_LADDER,
    AsyncServingDaemon,
    ServingRuntime,
    ensure_trace_id,
)
from repro.serving.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    AsyncTelemetryServer,
    TelemetryPlane,
    telemetry_response,
)

from .daemon_harness import fetch, handle_frames, serve_while

REPO_ROOT = Path(__file__).resolve().parents[2]

TRAINING = [
    "SELECT FirstName FROM Employees",
    "SELECT salary FROM Salaries",
]


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def artifacts(request):
    small_index = request.getfixturevalue("small_index")
    return SpeakQLArtifacts.build(
        structure_index=small_index, training_sql=TRAINING
    )


def make_runtime(request, artifacts, **kwargs) -> ServingRuntime:
    small_catalog = request.getfixturevalue("small_catalog")
    service = SpeakQLService(small_catalog, artifacts=artifacts)
    kwargs.setdefault("metrics", MetricsRegistry())
    return ServingRuntime(service, **kwargs)


class TestTelemetryPlane:
    def test_metrics_text_renders_the_runtime_registry(
        self, request, artifacts
    ):
        runtime = make_runtime(request, artifacts)
        runtime.submit(QueryRequest(text="select salary from salaries"))
        page = TelemetryPlane(runtime).metrics_text()
        assert obs_names.SERVING_REQUESTS_TOTAL in page
        assert obs_names.SERVING_E2E_WINDOW_SECONDS in page
        assert 'outcome="served"' in page

    def test_router_serves_both_routes_and_declines_the_rest(
        self, request, artifacts
    ):
        runtime = make_runtime(request, artifacts)
        runtime.submit(QueryRequest(text="select salary from salaries"))
        plane = TelemetryPlane(runtime)
        status, content_type, body = telemetry_response(plane, "/metrics")
        assert status == 200 and content_type == PROMETHEUS_CONTENT_TYPE
        assert b"speakql_" in body
        status, content_type, body = telemetry_response(plane, "/statusz")
        assert status == 200 and content_type == "application/json"
        assert "ladder" in json.loads(body)
        assert telemetry_response(plane, "/healthz") is None
        assert telemetry_response(plane, "/nope") is None


class TestStatusz:
    def test_rolling_percentiles_are_deterministic_under_a_fake_clock(
        self, request, artifacts
    ):
        clock = FakeClock(100.0)
        runtime = make_runtime(
            request, artifacts, window_seconds=60.0, window_slots=6,
            clock=clock,
        )
        rolling = runtime.metrics.rolling_histogram(
            obs_names.SERVING_E2E_WINDOW_SECONDS,
            window_seconds=60.0, slots=6, clock=clock,
        )
        values = [0.010, 0.020, 0.020, 0.100, 0.500]
        for value in values:
            rolling.observe(value)
        expected = Histogram()
        for value in values:
            expected.observe(value)
        latency = runtime.statusz()["latency"]
        assert latency["window_seconds"] == 60.0
        assert latency["rolling"]["count"] == len(values)
        for q, key in ((0.5, "p50_ms"), (0.95, "p95_ms"), (0.99, "p99_ms")):
            assert latency["rolling"][key] == round(
                expected.quantile(q) * 1000.0, 3
            )
        # Advance past the window: the rolling side empties, reporting
        # None rather than stale percentiles.
        clock.now += 120.0
        latency = runtime.statusz()["latency"]
        assert latency["rolling"] == {
            "count": 0, "p50_ms": None, "p95_ms": None, "p99_ms": None,
        }

    def test_reports_ladder_queue_and_outcomes(self, request, artifacts):
        runtime = make_runtime(request, artifacts, queue_limit=7)
        runtime.submit(QueryRequest(text="select salary from salaries"))
        statusz = runtime.statusz()
        assert statusz["queue"] == {"depth": 0, "capacity": 7}
        assert statusz["outcomes"]["served"] == 1
        assert statusz["ladder"]["served_by_rung"] == {"0": 1}
        # Breaker state is tracked per rung that has seen traffic.
        breakers = statusz["ladder"]["breakers"]
        assert set(breakers) <= set(statusz["ladder"]["rungs"])
        assert breakers.get("requested") == "closed"
        assert statusz["latency"]["cumulative"]["count"] == 1
        assert statusz["ladder"]["rungs"] == [
            rung.name for rung in DEFAULT_LADDER
        ]

    def test_statusz_is_json_serializable(self, request, artifacts):
        runtime = make_runtime(request, artifacts)
        json.dumps(runtime.statusz())


class TestProbePort:
    def test_probe_port_serves_metrics_and_statusz(
        self, request, artifacts
    ):
        runtime = make_runtime(request, artifacts)

        async def scenario(daemon):
            runtime.submit(QueryRequest(text="select salary from salaries"))
            address = daemon.health_address
            return {path: await fetch(address, path)
                    for path in ("/metrics", "/statusz", "/healthz",
                                 "/readyz")}

        daemon = AsyncServingDaemon(runtime, health_port=0)
        code, seen = serve_while(daemon, scenario)
        assert code == 0
        status, content_type, body = seen["/metrics"]
        assert status == 200 and content_type == PROMETHEUS_CONTENT_TYPE
        assert obs_names.SERVING_OUTCOMES_TOTAL in body.decode("utf-8")
        status, _, body = seen["/statusz"]
        assert status == 200
        assert json.loads(body)["outcomes"]["served"] == 1
        assert seen["/healthz"][0] == 200  # probes still answer
        assert seen["/readyz"][0] == 200

    def test_dedicated_telemetry_port_binds_separately(
        self, request, artifacts
    ):
        runtime = make_runtime(request, artifacts)

        async def scenario(daemon):
            address = daemon.telemetry_address
            return address, daemon.health_address, (
                await fetch(address, "/statusz")
            )

        daemon = AsyncServingDaemon(runtime, health_port=0, telemetry_port=0)
        code, (telemetry, health, statusz) = serve_while(daemon, scenario)
        assert code == 0
        assert telemetry is not None and telemetry != health
        assert statusz[0] == 200
        assert daemon.telemetry_address is None


class TestAsyncEndpoints:
    def test_serves_metrics_statusz_and_probes_on_the_loop(
        self, request, artifacts
    ):
        runtime = make_runtime(request, artifacts)
        runtime.submit(QueryRequest(text="select salary from salaries"))
        plane = TelemetryPlane(runtime)

        async def fetch(path: str) -> tuple[int, bytes]:
            server = AsyncTelemetryServer(plane, port=0)
            await server.start()
            try:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    f"GET {path} HTTP/1.0\r\n\r\n".encode("latin-1")
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
            finally:
                await server.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            status = int(head.split()[1])
            return status, body

        status, body = asyncio.run(fetch("/metrics"))
        assert status == 200
        page = body.decode("utf-8")
        assert obs_names.SERVING_OUTCOMES_TOTAL in page

        status, body = asyncio.run(fetch("/statusz"))
        assert status == 200
        assert json.loads(body)["outcomes"]["served"] == 1

        status, _ = asyncio.run(fetch("/healthz"))
        assert status == 200
        status, _ = asyncio.run(fetch("/unknown"))
        assert status == 404


class TestTraceSampling:
    def test_sampled_request_streams_spans_to_the_sink(
        self, request, artifacts, tmp_path
    ):
        sink = RotatingTraceSink(tmp_path / "trace.jsonl")
        runtime = make_runtime(
            request, artifacts, tracer=Tracer(), trace_sink=sink,
            trace_sample_rate=1.0,
        )
        runtime.submit(
            QueryRequest(
                text="select salary from salaries", trace_id="t-42"
            )
        )
        assert runtime.flush_traces() > 0
        spans = read_trace_jsonl(tmp_path / "trace.jsonl")
        assert all(s["attributes"]["trace_id"] == "t-42" for s in spans)
        assert "serve" in {s["name"] for s in spans}

    def test_zero_rate_traces_nothing(self, request, artifacts, tmp_path):
        sink = RotatingTraceSink(tmp_path / "trace.jsonl")
        runtime = make_runtime(
            request, artifacts, tracer=Tracer(), trace_sink=sink,
            trace_sample_rate=0.0,
        )
        runtime.submit(
            QueryRequest(
                text="select salary from salaries", trace_id="t-42"
            )
        )
        assert runtime.flush_traces() == 0
        assert not (tmp_path / "trace.jsonl").exists()

    def test_fractional_rate_follows_the_injected_rng(
        self, request, artifacts, tmp_path
    ):
        class Coin:
            def __init__(self, values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        sink = RotatingTraceSink(tmp_path / "trace.jsonl")
        runtime = make_runtime(
            request, artifacts, tracer=Tracer(), trace_sink=sink,
            trace_sample_rate=0.5, sample_rng=Coin([0.9, 0.1]),
        )
        for trace_id in ("skip-me", "keep-me"):
            runtime.submit(
                QueryRequest(
                    text="select salary from salaries", trace_id=trace_id
                )
            )
        runtime.flush_traces()
        spans = read_trace_jsonl(tmp_path / "trace.jsonl")
        assert spans and all(
            s["attributes"]["trace_id"] == "keep-me" for s in spans
        )

    def test_rejects_out_of_range_rate(self, request, artifacts):
        with pytest.raises(ValueError, match="trace_sample_rate"):
            make_runtime(request, artifacts, trace_sample_rate=1.5)


class TestWireTraceIds:
    def test_ensure_trace_id_generates_and_preserves(self):
        fresh = ensure_trace_id(QueryRequest(text="x"))
        assert fresh.trace_id and len(fresh.trace_id) == 16
        supplied = ensure_trace_id(QueryRequest(text="x", trace_id="mine"))
        assert supplied.trace_id == "mine"

    def test_daemon_echoes_generated_and_client_ids(
        self, request, artifacts
    ):
        runtime = make_runtime(request, artifacts)
        [generated], [echoed] = handle_frames(
            AsyncServingDaemon(runtime),
            json.dumps({"id": 1, "text": "select salary from salaries"}),
            json.dumps({"id": 2, "text": "select salary from salaries",
                        "trace_id": "client-1"}),
        )
        assert generated["trace_id"]
        assert echoed["trace_id"] == "client-1"

    def test_wire_rejects_non_string_trace_id(self, request, artifacts):
        runtime = make_runtime(request, artifacts)
        [[out]] = handle_frames(
            AsyncServingDaemon(runtime),
            json.dumps({"id": 3, "text": "x", "trace_id": 7}),
        )
        assert out["error_kind"] == "invalid_request"


class TestSignalFlush:
    @pytest.mark.parametrize("signal_name", ["SIGTERM", "SIGINT"])
    def test_kill_flushes_metrics_and_traces(self, tmp_path, signal_name):
        """A SIGTERM/SIGINT mid-serve must still write --metrics-out and
        --trace-out, exactly like a clean EOF shutdown."""
        metrics_out = tmp_path / "metrics.prom"
        trace_out = tmp_path / "trace.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--schema", "employees",
             "--metrics-out", str(metrics_out),
             "--trace-out", str(trace_out)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            assert proc.stderr.readline().strip() == "ready"
            proc.stdin.write(
                json.dumps({"id": 1,
                            "text": "select salary from salaries",
                            "trace_id": "pre-kill"}) + "\n"
            )
            proc.stdin.flush()
            reply = json.loads(proc.stdout.readline())
            assert reply["outcome"] == "served"
            proc.send_signal(getattr(signal, signal_name))
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert code == 0
        page = metrics_out.read_text(encoding="utf-8")
        assert obs_names.SERVING_REQUESTS_TOTAL in page
        spans = read_trace_jsonl(trace_out)
        assert any(
            s["attributes"].get("trace_id") == "pre-kill" for s in spans
        )

    def test_sigterm_with_an_idle_tcp_client_exits_promptly(self):
        """An open TCP connection must not hold a stopping daemon up."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--schema", "employees", "--port", "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        client = None
        try:
            banner = proc.stderr.readline().strip()
            assert banner.startswith("tcp: ")
            host, _, port = banner.split(" ", 1)[1].rpartition(":")
            assert proc.stderr.readline().strip() == "ready"
            client = socket.create_connection((host, int(port)), timeout=10)
            client.sendall(
                b'{"id": 1, "text": "select salary from salaries"}\n'
            )
            with client.makefile("r") as replies:
                reply = json.loads(replies.readline())
            assert reply["outcome"] == "served"
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=10)
        finally:
            if client is not None:
                client.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stderr.close()
        assert code == 0
