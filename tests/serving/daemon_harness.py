"""Drive an :class:`~repro.serving.AsyncServingDaemon` from plain tests.

No asyncio test plugin is assumed: every helper runs its own event loop
via ``asyncio.run``.  ``daemon.run`` shuts the runtime down on exit, so
a daemon is good for one helper call.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import urllib.error
import urllib.request


def handle_frames(daemon, *lines: str) -> list[list[dict]]:
    """``daemon.handle_frames`` for each line in turn, on a fresh loop
    (the daemon's dispatch threads closed after); returns each line's
    frames."""

    async def drive():
        return [await daemon.handle_frames(line) for line in lines]

    try:
        return asyncio.run(drive())
    finally:
        daemon._executor.shutdown(wait=True)


def serve_stdin(daemon, text: str) -> tuple[int, list[dict]]:
    """Run ``daemon`` over ``text`` as stdin until EOF; returns the exit
    code and every frame it wrote to stdout."""
    stdout = io.StringIO()
    code = asyncio.run(daemon.run(io.StringIO(text), stdout))
    return code, [json.loads(line) for line in stdout.getvalue().splitlines()]


def serve_while(daemon, scenario, timeout: float = 30.0):
    """Run ``daemon`` with a held-open stdin, await ``scenario(daemon)``
    once it announces ``ready``, then EOF stdin for a clean exit.

    Returns ``(exit code, scenario result)``.
    """
    read_fd, write_fd = os.pipe()
    stdin = os.fdopen(read_fd, "r")
    announce = io.StringIO()

    async def drive():
        run_task = asyncio.create_task(
            daemon.run(stdin, io.StringIO(), announce=announce)
        )
        try:
            while "ready" not in announce.getvalue().splitlines():
                if run_task.done():
                    run_task.result()  # surface startup errors
                await asyncio.sleep(0.01)
            result = await asyncio.wait_for(scenario(daemon), timeout)
        finally:
            os.close(write_fd)  # stdin EOF ends the daemon
        code = await asyncio.wait_for(run_task, timeout)
        return code, result

    try:
        return asyncio.run(drive())
    finally:
        stdin.close()


def http_get(address: tuple[str, int], path: str) -> tuple[int, str, bytes]:
    """Blocking GET; returns ``(status, content type, body)`` for any
    status, errors included."""
    host, port = address
    url = f"http://{host}:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return (response.status, response.headers["Content-Type"],
                    response.read())
    except urllib.error.HTTPError as error:
        return error.code, error.headers["Content-Type"], error.read()


async def fetch(address: tuple[str, int], path: str) -> tuple[int, str, bytes]:
    """:func:`http_get` off the loop, so the daemon can answer it."""
    return await asyncio.to_thread(http_get, address, path)
