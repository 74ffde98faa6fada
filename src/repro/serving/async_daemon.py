"""The serving daemon: JSON lines over stdin and TCP.

``repro serve`` runs :class:`AsyncServingDaemon`: one JSON object per
line in, one JSON object per line out, on stdin/stdout and on any
number of TCP connections (``--port``).  The wire format is the
:meth:`~repro.api.QueryResponse.to_dict` summary plus the request's
``id`` echoed back (see :mod:`repro.serving.protocol`)::

    {"id": 1, "text": "SELECT Salary FROM Employees", "seed": 7}
    {"id": 2, "text": "select salary from celeries"}
    {"id": 3, "text": "...", "deadline_ms": 1}

    {"id": 1, "outcome": "served", "sql": "...", ...}
    {"id": 3, "outcome": "timeout", "error": "deadline exceeded ...", ...}
    {"id": 2, "outcome": "served", ...}

Requests are served concurrently: an event loop reads every line and
hands each decoded request straight to
:meth:`~repro.serving.runtime.ServingRuntime.submit` on one of the
daemon's :data:`DISPATCH_WORKERS` dispatch threads.  The time a request
waits for a free thread is charged against its ``deadline``.  So:

- replies on a stream come back **as they finish**, not in request
  order — correlate by ``id`` (lockstep clients still work: one
  request in, one reply out); correction-session turns stay strictly
  ordered per session (an early turn is a ``turn_conflict``);
- a malformed or oversized line (see ``max_line_bytes``) draws a
  structured ``invalid_request`` error and the stream survives it (the
  TCP reader discards an oversized frame without buffering it whole).

``health_port`` and ``telemetry_port`` both bind an
:class:`~repro.serving.telemetry.AsyncTelemetryServer` on the loop,
answering ``/healthz`` (liveness), ``/readyz`` (503 while the queue is
full), ``/metrics`` and ``/statusz``.

Every request carries a ``trace_id``: supplied by the client on the
wire, or generated at this edge.  It is echoed on the reply and stamped on
every span the request opens.

Lifecycle: the daemon serves until stdin EOF or :meth:`stop` (which
:func:`run_async_daemon` wires to SIGTERM and SIGINT), then closes TCP
connections, waits for the requests still on the dispatch threads, and
shuts the runtime down.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import IO, AsyncIterator

from repro.api import QueryRequest, QueryResponse
from repro.serving.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    decode_request,
    ensure_trace_id,
    error_kind_of,
    error_reply,
    oversized_line_reply,
    response_frames,
)
from repro.serving.runtime import ServingRuntime
from repro.serving.telemetry import AsyncTelemetryServer, TelemetryPlane

#: Threads that run requests through the runtime, off the event loop.
DISPATCH_WORKERS = 2

#: Chunk size of the bounded TCP line reader.
_READ_CHUNK = 1 << 16

#: Sentinel yielded by the bounded reader for an oversized line.
_OVERSIZED = None


async def read_bounded_lines(
    reader: asyncio.StreamReader, max_line_bytes: int
) -> AsyncIterator[bytes | None]:
    """Yield newline-delimited frames, discarding oversized ones.

    A frame longer than ``max_line_bytes`` is consumed (never buffered
    whole — the reader holds at most ``max_line_bytes + _READ_CHUNK``
    bytes) and yielded as ``None`` so the caller can answer with a
    structured error while the connection stays alive.
    """
    buffer = bytearray()
    overflow = False
    while True:
        chunk = await reader.read(_READ_CHUNK)
        if not chunk:
            if overflow:
                yield _OVERSIZED
            elif buffer:
                # Final line without a trailing newline.
                if len(buffer) > max_line_bytes:
                    yield _OVERSIZED
                else:
                    yield bytes(buffer)
            return
        buffer.extend(chunk)
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                if overflow or len(buffer) > max_line_bytes:
                    overflow = True
                    buffer.clear()
                break
            if overflow:
                del buffer[: newline + 1]
                overflow = False
                yield _OVERSIZED
                continue
            line = bytes(buffer[:newline])
            del buffer[: newline + 1]
            if len(line) > max_line_bytes:
                yield _OVERSIZED
            else:
                yield line


class AsyncServingDaemon:
    """JSON-lines daemon over stdin and/or TCP.

    ``port`` enables the TCP listener (0 = ephemeral, read the bound
    address back from :attr:`tcp_address`); stdin remains the lifetime
    control either way.  ``health_port``/``telemetry_port``: ``None``
    disables that HTTP server, ``0`` binds an ephemeral port; both serve
    :attr:`telemetry`, the runtime's registry and status.
    """

    def __init__(
        self,
        runtime: ServingRuntime,
        *,
        health_port: int | None = None,
        telemetry_port: int | None = None,
        port: int | None = None,
        host: str = "127.0.0.1",
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ) -> None:
        if max_line_bytes < 1:
            raise ValueError("max_line_bytes must be >= 1")
        self.runtime = runtime
        self.health_port = health_port
        self.telemetry_port = telemetry_port
        self.telemetry = TelemetryPlane(runtime)
        self.port = port
        self.host = host
        self.max_line_bytes = max_line_bytes
        self._executor = ThreadPoolExecutor(
            max_workers=DISPATCH_WORKERS, thread_name_prefix="serve-dispatch"
        )
        self._health_server: AsyncTelemetryServer | None = None
        self._telemetry_server: AsyncTelemetryServer | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self._connections: dict[
            asyncio.Task, tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}
        self._stdin_lines: asyncio.Queue | None = None
        self._stopping = False

    # -- addresses -----------------------------------------------------------

    @property
    def health_address(self) -> tuple[str, int] | None:
        if self._health_server is None:
            return None
        return self._health_server.address

    @property
    def telemetry_address(self) -> tuple[str, int] | None:
        if self._telemetry_server is None:
            return None
        return self._telemetry_server.address

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        if self._tcp_server is None or not self._tcp_server.sockets:
            return None
        return self._tcp_server.sockets[0].getsockname()[:2]

    # -- request handling ----------------------------------------------------

    async def handle_frames(self, line: str) -> list[dict]:
        """Parse, submit, and format one wire line as its ordered reply
        frames (partial frames, then the final reply)."""
        line = line.strip()
        if not line:
            return []
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise ValueError("request must be a JSON object")
            request = decode_request(data)
        except (ValueError, TypeError) as error:
            request_id = None
            if isinstance(data := _maybe_dict(line), dict):
                request_id = data.get("id")
            return [error_reply(error_kind_of(error), str(error), request_id)]
        request = ensure_trace_id(request)
        response = await asyncio.get_running_loop().run_in_executor(
            self._executor, self._dispatch, request, time.monotonic()
        )
        # Stream sampled spans out as requests complete (no-op without
        # a trace sink on the runtime).
        self.runtime.flush_traces()
        return response_frames(response, request_id=data.get("id"))

    async def handle_line(self, line: str) -> dict:
        """Parse, submit, and format one wire line (final reply only;
        partial frames are dropped — use :meth:`handle_frames`)."""
        frames = await self.handle_frames(line)
        return frames[-1] if frames else {}

    def _dispatch(
        self, request: QueryRequest, arrived: float
    ) -> QueryResponse:
        """Runs on a dispatch thread: serve one request.

        The time the request waited for this thread is charged against
        its ``deadline`` first, so a budget the queue consumed times out
        instead of serving stale.
        """
        if request.deadline is not None:
            waited = time.monotonic() - arrived
            request = replace(
                request, deadline=max(0.0, request.deadline - waited)
            )
        return self.runtime.submit(request)

    # -- stdin / stdout ------------------------------------------------------

    async def _stdin_loop(self, stdin: IO[str], stdout: IO[str]) -> None:
        """Read stdin lines, serve each as its own task, until EOF or
        :meth:`stop`.

        Lines are read on a daemon thread, so a blocking ``readline``
        never stalls the loop and never keeps the process alive after a
        stop; responses are written as they complete (atomic per line),
        so pipelined stdin requests are served concurrently.
        """
        loop = asyncio.get_running_loop()
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        lines: asyncio.Queue[str] = asyncio.Queue()
        self._stdin_lines = lines

        def pump() -> None:
            while True:
                try:
                    line = stdin.readline()
                except (OSError, ValueError):
                    line = ""  # a closed stdin reads as EOF
                try:
                    loop.call_soon_threadsafe(lines.put_nowait, line)
                except RuntimeError:
                    return  # the loop is gone: the daemon already stopped
                if not line:
                    return

        async def serve_one(line: str) -> None:
            # Oversized stdin frames are length-checked post-read (text
            # streams cannot be chunk-bounded the way sockets are); the
            # bound counts the frame, not its newline.
            frame = line.rstrip("\n").encode("utf-8", "surrogatepass")
            if len(frame) > self.max_line_bytes:
                frames = [oversized_line_reply(self.max_line_bytes)]
            else:
                frames = await self.handle_frames(line)
            if not frames:
                return
            # One request's frames write contiguously (partials, then
            # the final reply) so interleaved requests stay parseable.
            async with write_lock:
                for out in frames:
                    stdout.write(json.dumps(out, sort_keys=True) + "\n")
                stdout.flush()

        threading.Thread(target=pump, name="serve-stdin", daemon=True).start()
        while not self._stopping:
            line = await lines.get()
            if not line or self._stopping:
                break
            task = asyncio.create_task(serve_one(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks)

    def stop(self) -> None:
        """End the serve loop as stdin EOF would (call on the loop).

        Requests already read still get their replies; nothing new is
        read.  :func:`run_async_daemon` calls this on SIGTERM/SIGINT.
        """
        self._stopping = True
        if self._stdin_lines is not None:
            self._stdin_lines.put_nowait("")

    # -- TCP -----------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def reply(frames: list[dict]) -> None:
            if not frames:
                return
            payload = b"".join(
                (json.dumps(out, sort_keys=True) + "\n").encode("utf-8")
                for out in frames
            )
            async with write_lock:
                writer.write(payload)
                await writer.drain()

        async def serve_one(frame: bytes | None) -> None:
            try:
                if frame is _OVERSIZED:
                    await reply([oversized_line_reply(self.max_line_bytes)])
                    return
                await reply(
                    await self.handle_frames(frame.decode("utf-8", "replace"))
                )
            except ConnectionError:
                pass  # client went away mid-reply; nothing to tell it

        try:
            async for frame in read_bounded_lines(
                reader, self.max_line_bytes
            ):
                task = asyncio.create_task(serve_one(frame))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks)
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _track_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.create_task(self._handle_connection(reader, writer))
        self._connections[task] = (reader, writer)
        task.add_done_callback(self._connections.pop)

    # -- lifecycle -----------------------------------------------------------

    async def run(
        self,
        stdin: IO[str],
        stdout: IO[str],
        *,
        announce: IO[str] | None = None,
    ) -> int:
        """Serve until stdin EOF or :meth:`stop`; returns an exit code.

        ``announce`` (usually stderr) receives the startup banner: the
        health URL, the telemetry URL, the TCP address (each when
        bound), then ``ready`` — the contract smoke tests key on.
        """
        try:
            if self.health_port is not None:
                self._health_server = await self._serve_http(
                    self.health_port, "health", announce
                )
            if self.telemetry_port is not None:
                self._telemetry_server = await self._serve_http(
                    self.telemetry_port, "telemetry", announce
                )
            if self.port is not None:
                self._tcp_server = await asyncio.start_server(
                    self._track_connection, self.host, self.port
                )
                if announce is not None:
                    host, port = self.tcp_address
                    print(f"tcp: {host}:{port}", file=announce, flush=True)
            if announce is not None:
                print("ready", file=announce, flush=True)
            await self._stdin_loop(stdin, stdout)
        finally:
            await self.shutdown()
        return 0

    async def _serve_http(
        self, port: int, label: str, announce: IO[str] | None
    ) -> AsyncTelemetryServer:
        """Bind one probe/telemetry server on the event loop."""
        server = AsyncTelemetryServer(
            self.telemetry, host=self.host, port=port
        )
        await server.start()
        if announce is not None:
            host, bound = server.address
            print(f"{label}: http://{host}:{bound}", file=announce, flush=True)
        return server

    async def shutdown(self) -> None:
        """Stop listeners, wait for in-flight requests, shut the runtime
        down."""
        if self._telemetry_server is not None:
            await self._telemetry_server.close()
            self._telemetry_server = None
        if self._tcp_server is not None:
            self._tcp_server.close()  # accept no new connections
        if self._connections:
            # Read no further frames: an idle connection closes at once,
            # one with requests in flight once they are answered.  A
            # client that holds its socket open must not pin the daemon.
            for reader, writer in list(self._connections.values()):
                writer.transport.pause_reading()
                reader.feed_eof()
            _, pending = await asyncio.wait(
                list(self._connections), timeout=5.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        # Requests still on a dispatch thread finish before the runtime
        # goes away (off the loop, so the health probe keeps answering).
        await asyncio.to_thread(self._executor.shutdown, wait=True)
        if self._health_server is not None:
            await self._health_server.close()
            self._health_server = None
        self.runtime.shutdown()


def _maybe_dict(line: str):
    """Best-effort re-parse for id extraction on request errors."""
    try:
        return json.loads(line)
    except ValueError:
        return None


def run_async_daemon(daemon: AsyncServingDaemon) -> int:
    """Blocking entry point: drive ``daemon`` on a fresh event loop over
    the process's stdio until stdin EOF, SIGTERM or SIGINT."""

    async def main() -> int:
        loop = asyncio.get_running_loop()
        signals = (signal.SIGTERM, signal.SIGINT)
        for signum in signals:
            loop.add_signal_handler(signum, daemon.stop)
        try:
            return await daemon.run(
                sys.stdin, sys.stdout, announce=sys.stderr
            )
        finally:
            for signum in signals:
                loop.remove_signal_handler(signum)

    return asyncio.run(main())


__all__ = [
    "DISPATCH_WORKERS",
    "AsyncServingDaemon",
    "read_bounded_lines",
    "run_async_daemon",
]
