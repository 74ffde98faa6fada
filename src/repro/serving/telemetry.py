"""The live telemetry plane behind ``GET /metrics`` and ``GET /statusz``.

PR 3's observability layer exports metrics *once, at exit* — useless for
operating a long-running daemon.  This module makes the same registry
scrapeable live:

- :class:`TelemetryPlane` — the render source: a point-in-time snapshot
  of the runtime's registry (its serving instruments, plus the
  pipeline's instruments when they share that registry) rendered as
  one Prometheus text page, and the runtime's ``statusz()`` operator
  snapshot;
- :class:`AsyncTelemetryServer` — a minimal asyncio HTTP/1.0 GET
  handler serving the plane and the ``/healthz``/``/readyz`` probes on
  the daemon's event loop, so probing costs no extra thread.  The
  daemon binds it on both its probe and telemetry ports.

Rendering is pull-based and allocation-light: a scrape snapshots the
registry (retrying if an instrument registers mid-copy) and renders;
nothing is maintained between scrapes.
"""

from __future__ import annotations

import asyncio
import json

from repro.observability.export import to_prometheus
from repro.observability.metrics import MetricsRegistry
from repro.serving.runtime import ServingRuntime

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class TelemetryPlane:
    """Render source for the live telemetry endpoints."""

    def __init__(self, runtime: ServingRuntime) -> None:
        self.runtime = runtime

    def metrics_text(self) -> str:
        """The runtime's registry as a Prometheus text page."""
        registry = self.runtime.metrics
        if registry is None:
            registry = MetricsRegistry()
        return to_prometheus(registry.snapshot())

    def statusz(self) -> dict:
        """The runtime's JSON-ready operator snapshot."""
        return self.runtime.statusz()


def telemetry_response(
    plane: TelemetryPlane, path: str
) -> tuple[int, str, bytes] | None:
    """Route one GET ``path`` against the plane.

    Returns ``(status, content_type, body)`` for the telemetry routes,
    ``None`` for paths the caller should handle (or 404) itself.
    """
    if path == "/metrics":
        return (
            200,
            PROMETHEUS_CONTENT_TYPE,
            plane.metrics_text().encode("utf-8"),
        )
    if path == "/statusz":
        body = json.dumps(plane.statusz(), sort_keys=True).encode("utf-8")
        return 200, "application/json", body
    return None


class AsyncTelemetryServer:
    """``GET /metrics`` + ``GET /statusz`` (+ the probes) on the loop.

    A deliberately minimal HTTP/1.0 server: request line, headers
    drained, one response, connection closed.  Runs entirely on the
    event loop.
    """

    def __init__(
        self,
        plane: TelemetryPlane,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.plane = plane
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int] | None:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> "AsyncTelemetryServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            while True:  # drain headers up to the blank line
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.split()
            if len(parts) < 2 or parts[0] != b"GET":
                await self._respond(
                    writer, 405, "text/plain", b"GET only\n"
                )
                return
            path = parts[1].decode("latin-1").split("?", 1)[0]
            routed = telemetry_response(self.plane, path)
            if routed is not None:
                await self._respond(writer, *routed)
                return
            if path in ("/healthz", "/readyz"):
                health = self.plane.runtime.health()
                status = 200
                if path == "/readyz":
                    ready = (
                        health["ready"]
                        and health["inflight"] < health["queue_limit"]
                    )
                    status = 200 if ready else 503
                body = json.dumps(health, sort_keys=True).encode("utf-8")
                await self._respond(writer, status, "application/json", body)
                return
            await self._respond(
                writer, 404, "text/plain",
                b"unknown path (try /healthz, /readyz, /metrics or "
                b"/statusz)\n",
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
    ) -> None:
        reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
                  503: "Service Unavailable"}.get(status, "OK")
        head = (
            f"HTTP/1.0 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "AsyncTelemetryServer",
    "TelemetryPlane",
    "telemetry_response",
]
