"""Tests for the asyncio daemon: bounded line reading, wire behaviour,
dispatch (queue wait charged against the deadline), concurrent TCP
clients, and lifecycle.

No asyncio test plugin is assumed: coroutines run via ``asyncio.run``
inside plain test functions.  Daemon lifecycle tests build their own
runtime because ``AsyncServingDaemon.run`` shuts the runtime (and its
service) down on exit — a shared fixture would be dead after one test.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import threading

import pytest

from repro.api import QueryResponse
from repro.core import SpeakQLArtifacts, SpeakQLService
from repro.serving import AsyncServingDaemon, ServingRuntime
from repro.serving.async_daemon import DISPATCH_WORKERS, read_bounded_lines

from .daemon_harness import handle_frames, serve_while


@pytest.fixture()
def fresh_runtime(request):
    """A per-test runtime (daemon.run shuts it down on stdin EOF)."""
    small_catalog = request.getfixturevalue("small_catalog")
    small_index = request.getfixturevalue("small_index")
    artifacts = SpeakQLArtifacts.build(
        structure_index=small_index,
        training_sql=["SELECT FirstName FROM Employees"],
    )
    service = SpeakQLService(small_catalog, artifacts=artifacts)
    return ServingRuntime(service)


def _feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


async def _collect(data: bytes, max_line_bytes: int) -> list:
    return [
        frame
        async for frame in read_bounded_lines(_feed(data), max_line_bytes)
    ]


class TestReadBoundedLines:
    def test_splits_newline_frames(self):
        frames = asyncio.run(_collect(b"one\ntwo\nthree\n", 64))
        assert frames == [b"one", b"two", b"three"]

    def test_final_line_without_newline_is_delivered(self):
        frames = asyncio.run(_collect(b"one\ntail", 64))
        assert frames == [b"one", b"tail"]

    def test_oversized_frame_becomes_sentinel_and_stream_survives(self):
        data = b"ok\n" + b"x" * 100 + b"\nafter\n"
        frames = asyncio.run(_collect(data, 16))
        assert frames == [b"ok", None, b"after"]

    def test_oversized_final_fragment_without_newline(self):
        frames = asyncio.run(_collect(b"x" * 100, 16))
        assert frames == [None]

    def test_oversized_frame_is_never_buffered_whole(self):
        # 1 MiB frame against a 32-byte bound: must stream through
        # without accumulating (the discard path clears the buffer).
        data = b"y" * (1 << 20) + b"\nok\n"
        frames = asyncio.run(_collect(data, 32))
        assert frames == [None, b"ok"]

    def test_boundary_length_is_not_oversized(self):
        frames = asyncio.run(_collect(b"x" * 16 + b"\n", 16))
        assert frames == [b"x" * 16]


class TestHandleLine:
    """handle_line needs a loop and the dispatch threads, not the full
    daemon."""

    @staticmethod
    def _handle_line(runtime, line: str) -> dict:
        [frames] = handle_frames(AsyncServingDaemon(runtime), line)
        return frames[-1] if frames else {}

    def test_served_response_echoes_id(self, fresh_runtime):
        out = self._handle_line(
            fresh_runtime,
            json.dumps({"id": 9, "text": "select salary from salaries"}),
        )
        assert out["id"] == 9
        assert out["outcome"] == "served"
        assert out["sql"] == "SELECT salary FROM Salaries"

    def test_malformed_json_is_invalid_request(self, fresh_runtime):
        out = self._handle_line(fresh_runtime, "{not json")
        assert out["error_kind"] == "invalid_request"
        assert out["id"] is None

    def test_bad_request_keeps_id(self, fresh_runtime):
        out = self._handle_line(
            fresh_runtime, json.dumps({"id": 3, "text": "x", "bogus": 1})
        )
        assert out["id"] == 3
        assert out["error_kind"] == "invalid_request"
        assert "bogus" in out["error"]

    def test_blank_line_is_skipped(self, fresh_runtime):
        assert self._handle_line(fresh_runtime, "   \n") == {}

    def test_max_line_bytes_validated(self, fresh_runtime):
        with pytest.raises(ValueError, match="max_line_bytes"):
            AsyncServingDaemon(fresh_runtime, max_line_bytes=0)


class TestStdinRunLoop:
    def test_pipelined_requests_correlate_by_id(self, fresh_runtime):
        lines = [
            json.dumps({"id": "a", "text": "select salary from salaries"}),
            json.dumps({"id": "b", "text": "SELECT FirstName FROM Employees",
                        "seed": 7}),
            "{broken",
        ]
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        daemon = AsyncServingDaemon(fresh_runtime)
        code = asyncio.run(daemon.run(stdin, stdout))
        assert code == 0
        replies = {}
        for line in stdout.getvalue().splitlines():
            out = json.loads(line)
            replies[out.get("id")] = out
        assert replies["a"]["outcome"] == "served"
        assert replies["a"]["sql"] == "SELECT salary FROM Salaries"
        assert replies["b"]["outcome"] == "served"
        assert replies[None]["error_kind"] == "invalid_request"

    def test_oversized_stdin_line_draws_structured_error(
        self, fresh_runtime
    ):
        oversized = json.dumps({"id": 1, "text": "x" * 4096})
        stdin = io.StringIO(oversized + "\n")
        stdout = io.StringIO()
        daemon = AsyncServingDaemon(fresh_runtime, max_line_bytes=256)
        assert asyncio.run(daemon.run(stdin, stdout)) == 0
        [out] = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert out["error_kind"] == "invalid_request"
        assert "256" in out["error"]

    def test_announce_banner_order(self, fresh_runtime):
        stdin = io.StringIO("")
        stdout = io.StringIO()
        announce = io.StringIO()
        daemon = AsyncServingDaemon(
            fresh_runtime, health_port=0, telemetry_port=0, port=0
        )
        assert asyncio.run(
            daemon.run(stdin, stdout, announce=announce)
        ) == 0
        lines = announce.getvalue().splitlines()
        assert lines[0].startswith("health: http://")
        assert lines[1].startswith("telemetry: http://")
        assert lines[2].startswith("tcp: ")
        assert lines[3] == "ready"

    def test_stop_ends_the_loop_with_stdin_open(self, fresh_runtime):
        read_fd, write_fd = os.pipe()
        stdin = os.fdopen(read_fd, "r")
        daemon = AsyncServingDaemon(fresh_runtime)

        async def drive():
            run_task = asyncio.create_task(daemon.run(stdin, io.StringIO()))
            await asyncio.sleep(0.05)  # the stdin reader is now blocked
            daemon.stop()
            return await asyncio.wait_for(run_task, 10.0)

        try:
            assert asyncio.run(drive()) == 0
        finally:
            # EOF first: closing a file another thread is blocked reading
            # would wait on that read.
            os.close(write_fd)
            stdin.close()


class TestTcpServing:
    def _run_with_tcp(self, runtime, scenario, **daemon_kwargs):
        """Run the daemon with a TCP listener and a held-open stdin,
        drive ``scenario(daemon)``, then EOF stdin for a clean exit."""
        return serve_while(
            AsyncServingDaemon(runtime, port=0, **daemon_kwargs), scenario
        )

    @staticmethod
    async def _request(reader, writer, payload: dict) -> dict:
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()
        return json.loads(await reader.readline())

    def test_concurrent_requests_are_each_served_under_their_id(
        self, fresh_runtime
    ):
        async def scenario(daemon):
            reader, writer = await asyncio.open_connection(
                *daemon.tcp_address
            )
            try:
                for index in range(4):
                    writer.write(
                        (json.dumps({
                            "id": index,
                            "text": "select salary from salaries",
                        }) + "\n").encode("utf-8")
                    )
                await writer.drain()
                replies = [
                    json.loads(await reader.readline()) for _ in range(4)
                ]
            finally:
                writer.close()
                await writer.wait_closed()
            return replies

        code, replies = self._run_with_tcp(fresh_runtime, scenario)
        assert code == 0
        assert sorted(out["id"] for out in replies) == [0, 1, 2, 3]
        assert all(out["outcome"] == "served" for out in replies)

    def test_connection_survives_protocol_errors(self, fresh_runtime):
        async def scenario(daemon):
            reader, writer = await asyncio.open_connection(
                *daemon.tcp_address
            )
            try:
                malformed = json.loads(
                    await self._request_raw(reader, writer, b"{broken\n")
                )
                writer.write(b'"' + b"x" * 600 + b'"\n')
                await writer.drain()
                oversized = json.loads(await reader.readline())
                served = await self._request(
                    reader, writer,
                    {"id": "after",
                     "text": "select salary from salaries"},
                )
            finally:
                writer.close()
                await writer.wait_closed()
            return malformed, oversized, served

        code, (malformed, oversized, served) = self._run_with_tcp(
            fresh_runtime, scenario, max_line_bytes=256
        )
        assert code == 0
        assert malformed["error_kind"] == "invalid_request"
        assert oversized["error_kind"] == "invalid_request"
        assert served["id"] == "after"
        assert served["outcome"] == "served"

    @staticmethod
    async def _request_raw(reader, writer, payload: bytes) -> bytes:
        writer.write(payload)
        await writer.drain()
        return await reader.readline()

    def test_two_clients_share_the_daemon(self, fresh_runtime):
        async def scenario(daemon):
            first = await asyncio.open_connection(*daemon.tcp_address)
            second = await asyncio.open_connection(*daemon.tcp_address)
            try:
                replies = await asyncio.gather(
                    self._request(
                        *first,
                        {"id": "c1",
                         "text": "select salary from salaries"},
                    ),
                    self._request(
                        *second,
                        {"id": "c2",
                         "text": "select salary from salaries"},
                    ),
                )
            finally:
                for _, writer in (first, second):
                    writer.close()
                    await writer.wait_closed()
            return replies

        code, replies = self._run_with_tcp(fresh_runtime, scenario)
        assert code == 0
        assert {out["id"] for out in replies} == {"c1", "c2"}
        assert all(out["outcome"] == "served" for out in replies)


class GatedRuntime:
    """A real runtime in front of which ``"hold"`` requests block until
    :attr:`release` is set; records what reaches ``submit`` and the
    order in which requests finish and the runtime shuts down."""

    def __init__(self, runtime: ServingRuntime) -> None:
        self.runtime = runtime
        self.release = threading.Event()
        self.held = threading.Semaphore(0)
        self.seen: dict[str, float | None] = {}
        self.events: list[str] = []

    def submit(self, request):
        self.seen[request.text] = request.deadline
        if request.text == "hold":
            self.held.release()
            self.release.wait(10.0)
            self.events.append("hold answered")
            return QueryResponse(request=request, outcome="served")
        return self.runtime.submit(request)

    def flush_traces(self) -> None:
        self.runtime.flush_traces()

    def shutdown(self) -> None:
        self.events.append("shutdown")
        self.runtime.shutdown()


async def _until_held(gated: GatedRuntime, count: int) -> None:
    """Wait (off the loop) until ``count`` hold requests block."""
    for _ in range(count):
        assert await asyncio.to_thread(gated.held.acquire, True, 10.0)


def _line(request_id, text: str, **fields) -> str:
    return json.dumps({"id": request_id, "text": text, **fields})


class TestDispatch:
    BLOCK_SECONDS = 0.2

    def test_queue_wait_is_charged_against_the_deadline(
        self, fresh_runtime
    ):
        gated = GatedRuntime(fresh_runtime)
        daemon = AsyncServingDaemon(gated)

        async def drive():
            holds = [
                asyncio.create_task(daemon.handle_frames(_line(i, "hold")))
                for i in range(DISPATCH_WORKERS)
            ]
            await _until_held(gated, DISPATCH_WORKERS)
            # Both dispatch threads are blocked: these two queue.
            short = asyncio.create_task(daemon.handle_frames(_line(
                "short", "select salary from salaries", deadline_ms=20
            )))
            long = asyncio.create_task(daemon.handle_frames(_line(
                "long", "SELECT FirstName FROM Employees",
                deadline_ms=60_000,
            )))
            await asyncio.sleep(self.BLOCK_SECONDS)
            gated.release.set()
            await asyncio.gather(*holds)
            return (await short)[-1], (await long)[-1]

        try:
            short, long = asyncio.run(drive())
        finally:
            daemon._executor.shutdown(wait=True)
        # The 20 ms budget was spent in the queue: no work, a timeout.
        assert short["id"] == "short"
        assert short["outcome"] == "timeout"
        # The long budget reached submit reduced by the queue wait.
        assert long["outcome"] == "served"
        budget = gated.seen["SELECT FirstName FROM Employees"]
        assert budget <= 60.0 - self.BLOCK_SECONDS * 0.9

    def test_stdin_eof_still_answers_a_blocked_request(self, fresh_runtime):
        gated = GatedRuntime(fresh_runtime)
        threading.Timer(self.BLOCK_SECONDS, gated.release.set).start()
        stdin = io.StringIO(_line("held", "hold") + "\n")  # then EOF
        stdout = io.StringIO()
        daemon = AsyncServingDaemon(gated)
        assert asyncio.run(daemon.run(stdin, stdout)) == 0
        [out] = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert out["id"] == "held"
        assert out["outcome"] == "served"
        assert gated.events == ["hold answered", "shutdown"]

    def test_shutdown_waits_for_in_flight_requests(self, fresh_runtime):
        gated = GatedRuntime(fresh_runtime)
        daemon = AsyncServingDaemon(gated)

        async def drive():
            task = asyncio.create_task(
                daemon.handle_frames(_line("held", "hold"))
            )
            await _until_held(gated, 1)
            asyncio.get_running_loop().call_later(
                self.BLOCK_SECONDS, gated.release.set
            )
            await daemon.shutdown()
            return await task

        [out] = asyncio.run(drive())
        assert out["outcome"] == "served"
        # The runtime went away only after the held request finished.
        assert gated.events == ["hold answered", "shutdown"]
