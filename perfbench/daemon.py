"""The daemon under test as a subprocess, and a JSON-lines TCP client."""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench.workloads import TRAIN_QUERIES

#: Seconds to wait for the ``ready`` line of a cold start.
READY_TIMEOUT = 60.0
#: Seconds a closed-loop request may take before the run is abandoned.
REQUEST_TIMEOUT = 60.0


class DaemonError(RuntimeError):
    """The daemon failed to start, answer, or stop."""


def program_env(root: Path, hash_seed: int) -> dict:
    """Environment of every process that runs the program: ``src`` (and
    the benchmark package) importable, and ``PYTHONHASHSEED`` pinned.

    The hash seed is pinned because the program's answers depend on it
    (the ASR engine iterates a ``set`` of vocabulary words), so an
    unpinned seed makes the same request answer differently from one
    process to the next.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


class Daemon:
    """``repro serve --async --port 0 --train 750 --schema employees``
    (optionally under the traced launcher), with stdin as its lifetime
    control."""

    def __init__(self, root: Path, env: dict,
                 spans_out: Path | None = None) -> None:
        self.root = root
        self.env = env
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self._stderr_tail: list[str] = []
        self._drain: threading.Thread | None = None

    def command(self) -> list[str]:
        serve = ["serve", "--async", "--port", "0",
                 "--train", str(TRAIN_QUERIES), "--schema", "employees"]
        if self.spans_out is None:
            return [sys.executable, "-m", "repro", *serve]
        launcher = str(Path(__file__).with_name("launcher.py"))
        return [sys.executable, launcher, "--spans-out",
                str(self.spans_out), "--", *serve]

    def start(self) -> None:
        """Spawn and block until the daemon prints ``ready``."""
        self.proc = subprocess.Popen(
            self.command(), cwd=self.root, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        deadline = time.monotonic() + READY_TIMEOUT
        fd = self.proc.stderr.fileno()
        buffer = b""
        selector = selectors.DefaultSelector()
        selector.register(fd, selectors.EVENT_READ)
        try:
            while True:
                while b"\n" not in buffer:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not selector.select(remaining):
                        raise DaemonError(
                            "daemon did not become ready in time"
                        )
                    chunk = os.read(fd, 4096)
                    if not chunk:
                        raise DaemonError(
                            "daemon exited before ready:\n"
                            + self.stderr_tail()
                        )
                    buffer += chunk
                raw, buffer = buffer.split(b"\n", 1)
                line = raw.decode("utf-8", "replace")
                self._stderr_tail.append(line + "\n")
                if line.startswith("tcp: "):
                    host, _, port = line[5:].strip().rpartition(":")
                    self.address = (host, int(port))
                elif line.strip() == "ready":
                    break
        finally:
            selector.close()
        if self.address is None:
            raise DaemonError("daemon announced no TCP address")
        # Keep draining stderr so a chatty daemon never blocks on it.
        self._drain = threading.Thread(
            target=self._drain_stderr, args=(fd,), daemon=True
        )
        self._drain.start()

    def _drain_stderr(self, fd: int) -> None:
        while True:
            try:
                chunk = os.read(fd, 4096)
            except OSError:
                return
            if not chunk:
                return
            self._stderr_tail.append(chunk.decode("utf-8", "replace"))
            del self._stderr_tail[:-50]

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM in /proc status")

    def connect(self) -> "Connection":
        return Connection(self.address)

    def stop(self, timeout: float = 15.0) -> int:
        """Close stdin (the daemon's shutdown signal) and wait; kill on
        timeout.  Returns the exit code."""
        proc = self.proc
        if proc is None:
            return 0
        try:
            if proc.stdin and not proc.stdin.closed:
                proc.stdin.close()
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        finally:
            if self._drain is not None:
                self._drain.join(timeout=5.0)
            if proc.stderr:
                proc.stderr.close()
            self.proc = None
        return code

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def stderr_tail(self) -> str:
        return "".join(self._stderr_tail[-20:])


class Connection:
    """One JSON-lines TCP connection to the daemon."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")
        self._send_lock = threading.Lock()

    def send(self, frame: dict) -> None:
        data = (json.dumps(frame) + "\n").encode("utf-8")
        with self._send_lock:
            self.sock.sendall(data)

    def recv_line(self) -> bytes:
        """The next raw reply line (``b""`` once the daemon hangs up)."""
        return self._reader.readline()

    def request(self, frame: dict) -> tuple[bytes, float, float]:
        """Closed-loop exchange: ``(reply line, sent, received)`` with
        ``time.perf_counter`` stamps."""
        sent = time.perf_counter()
        self.send(frame)
        line = self.recv_line()
        received = time.perf_counter()
        if not line:
            raise DaemonError("connection closed awaiting a reply")
        return line, sent, received

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._reader.close()
        self.sock.close()
