#!/usr/bin/env python3
"""End-to-end smoke test of the ``repro serve`` daemon (CI).

Spawns the daemon as a subprocess with an ephemeral health port, drives
three requests over its JSON-lines stdin/stdout — a correction, a
dictation, and a dictation with a 1 ms deadline — and asserts:

- the first two come back ``served`` with non-empty SQL;
- the 1 ms-deadline request comes back ``timeout`` (cooperative
  deadline enforcement, no crash);
- every reply echoes a non-empty ``trace_id`` (the daemon generates one
  when the client does not supply it);
- a two-turn correction session round-trips: a cold dictation opens the
  session, a WHERE re-dictation comes back with non-empty
  ``reused_spans``, and its final SQL matches a sessionless cold
  recompute of the corrected text (on every mode);
- ``GET /healthz`` answers 200 with the matching outcome counts and
  ``GET /readyz`` reports readiness;
- ``GET /metrics`` on the same probe port serves Prometheus text naming
  the serving counters and the rolling end-to-end window, and
  ``GET /statusz`` reports the degradation ladder, breaker states,
  queue occupancy, and rolling latency percentiles;
- SIGTERM with stdin still open stops the daemon promptly: it exits 0
  and still writes ``--metrics-out``.

``--tcp`` drives the daemon over TCP instead (``repro serve --port
0``): two concurrent TCP clients fire requests simultaneously, a 1
ms-deadline request still times out, a deliberately oversized (> 1 MiB) line gets a structured
``invalid_request`` error with the connection surviving to serve
another request, the dedicated ``--telemetry-port`` answers, and stdin
EOF shuts everything down cleanly.

Run from the repository root::

    python tools/serve_smoke.py
    python tools/serve_smoke.py --tcp
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Whole-smoke watchdog; the daemon is killed when it expires.
TIMEOUT_S = 180.0

#: The 1 ms-deadline probe: a long dictation under a seed no other
#: request uses, so no cache (placeholder memo, distance rows, search
#: results) holds any of its work and it cannot finish inside the
#: budget.
TIMEOUT_PROBE = {
    "text": "SELECT LastName , FirstName , HireDate FROM Employees "
            "WHERE Gender = 'F' AND FirstName = 'Karsten' "
            "ORDER BY HireDate LIMIT 25",
    "seed": 4242,
    "deadline_ms": 1,
}

REQUESTS = [
    {"id": 1, "text": "select salary from salaries"},
    {"id": 2, "text": "SELECT FirstName FROM Employees", "seed": 7},
    {"id": 3, **TIMEOUT_PROBE},
]

#: The two-turn session exchange: cold dictation, WHERE re-dictation,
#: then a sessionless full decode of the corrected text for parity.
SESSION_BASE = "select first name from employees"
SESSION_EDIT = {"kind": "redictate", "clause": "WHERE",
                "text": "where gender equals f"}
SESSION_FULL = "select first name from employees where gender equals f"


def check_session_exchange(send, read, prefix: str) -> None:
    """Drive a correction session over the wire and assert parity.

    ``send``/``read`` are the transport (stdin/stdout lines or a TCP
    client); the final SQL of the incremental turn must match a cold
    sessionless recompute of the same corrected text, and the turn must
    report the spans it spliced from the session cache.
    """
    send({"id": f"{prefix}0", "text": SESSION_BASE,
          "session_id": f"{prefix}-smoke", "turn": 0})
    cold0 = read()
    if cold0.get("outcome") != "served" or cold0.get("turn") != 0:
        fail(f"session turn 0 not served: {cold0}")
    if cold0.get("protocol_version") != 1:
        fail(f"reply carries no protocol_version: {cold0}")
    send({"id": f"{prefix}1", "session_id": f"{prefix}-smoke", "turn": 1,
          "edit": SESSION_EDIT})
    warm = read()
    if warm.get("outcome") != "served" or warm.get("turn") != 1:
        fail(f"correction turn not served: {warm}")
    if not warm.get("reused_spans"):
        fail(f"correction turn reused no spans: {warm}")
    send({"id": f"{prefix}2", "text": SESSION_FULL})
    recompute = read()
    if recompute.get("outcome") != "served":
        fail(f"cold recompute not served: {recompute}")
    if not warm.get("sql") or warm["sql"] != recompute.get("sql"):
        fail(f"incremental SQL drifted from the cold recompute: "
             f"{warm.get('sql')!r} vs {recompute.get('sql')!r}")


def fail(message: str) -> None:
    print(f"serve smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def fetch(url: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(url, timeout=10) as r:
        return r.status, r.read()


def check_telemetry(base_url: str) -> None:
    """Assert /metrics and /statusz on ``base_url`` look operable."""
    status, body = fetch(base_url + "/metrics")
    if status != 200:
        fail(f"/metrics answered {status}")
    page = body.decode("utf-8")
    for name in ("speakql_serving_requests_total",
                 "speakql_serving_outcomes_total",
                 "speakql_serving_e2e_window_seconds"):
        if name not in page:
            fail(f"/metrics is missing {name}")

    status, body = fetch(base_url + "/statusz")
    if status != 200:
        fail(f"/statusz answered {status}")
    statusz = json.loads(body)
    for key in ("status", "uptime_seconds", "queue", "outcomes",
                "ladder", "latency"):
        if key not in statusz:
            fail(f"/statusz is missing {key!r}: {sorted(statusz)}")
    ladder = statusz["ladder"]
    if not ladder.get("rungs") or "breakers" not in ladder:
        fail(f"/statusz ladder lacks rungs/breakers: {ladder}")
    for breaker in ladder["breakers"].values():
        if breaker not in ("closed", "half-open", "open"):
            fail(f"unexpected breaker state: {ladder['breakers']}")
    latency = statusz["latency"]
    for side in ("rolling", "cumulative"):
        quantiles = latency.get(side) or {}
        if not {"count", "p50_ms", "p95_ms", "p99_ms"} <= set(quantiles):
            fail(f"/statusz latency.{side} incomplete: {latency}")


class _TcpClient:
    """One JSON-lines TCP connection to the daemon."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=60)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, request: dict) -> None:
        self.sock.sendall((json.dumps(request) + "\n").encode("utf-8"))

    def send_raw(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def read(self) -> dict:
        line = self.reader.readline()
        if not line:
            fail("daemon closed a TCP connection mid-conversation")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def run_tcp_smoke(env: dict) -> int:
    command = [sys.executable, "-m", "repro", "serve",
               "--schema", "employees", "--health-port", "0",
               "--port", "0", "--telemetry-port", "0"]
    proc = subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    clients: list[_TcpClient] = []
    try:
        # Banner: health address, telemetry address, TCP address, then
        # "ready".
        health_line = proc.stderr.readline().strip()
        if not health_line.startswith("health: http://"):
            fail(f"expected the health address first, got {health_line!r}")
        health_url = health_line.split(" ", 1)[1]
        telemetry_line = proc.stderr.readline().strip()
        if not telemetry_line.startswith("telemetry: http://"):
            fail(f"expected the telemetry address next, got "
                 f"{telemetry_line!r}")
        telemetry_url = telemetry_line.split(" ", 1)[1]
        tcp_line = proc.stderr.readline().strip()
        if not tcp_line.startswith("tcp: "):
            fail(f"expected the tcp address next, got {tcp_line!r}")
        host, _, port = tcp_line.split(" ", 1)[1].rpartition(":")
        if proc.stderr.readline().strip() != "ready":
            fail("daemon never reported ready")
        address = (host, int(port))

        # Two clients fire concurrently, so requests are in flight
        # together; responses correlate by id.
        clients = [_TcpClient(address), _TcpClient(address)]
        per_client = (
            [{"id": "a1", "text": "select salary from salaries"},
             {"id": "a2", "text": "SELECT FirstName FROM Employees",
              "seed": 7}],
            [{"id": "b1", "text": "select last name from employees"},
             {"id": "b2", "text": "SELECT Salary FROM Employees",
              "seed": 11}],
        )

        def drive(client: _TcpClient, requests: list[dict], out: dict):
            for request in requests:
                client.send(request)
            for _ in requests:
                response = client.read()
                out[response.get("id")] = response

        replies: dict = {}
        threads = [
            threading.Thread(target=drive, args=(c, b, replies))
            for c, b in zip(clients, per_client)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        for requests in per_client:
            for request in requests:
                response = replies.get(request["id"])
                if response is None:
                    fail(f"no reply for {request['id']}: {replies}")
                if (response.get("outcome") != "served"
                        or not response.get("sql")):
                    fail(f"request {request['id']} not served: {response}")

        # A 1 ms budget is consumed before the pipeline can finish: the
        # runtime must time out.
        clients[0].send({"id": "t1", **TIMEOUT_PROBE})
        timed_out = clients[0].read()
        if timed_out.get("outcome") != "timeout":
            fail(f"1 ms deadline did not time out: {timed_out}")
        if "deadline exceeded" not in (timed_out.get("error") or ""):
            fail(f"timeout carries no deadline error: {timed_out}")

        # An oversized frame (beyond the 1 MiB default) draws a
        # structured error and the connection keeps serving.
        clients[1].send_raw(b"\"" + b"x" * (1 << 20) + b"\"\n")
        oversized = clients[1].read()
        if oversized.get("error_kind") != "invalid_request":
            fail(f"oversized line not rejected structurally: {oversized}")
        clients[1].send({"id": "b3", "text": "select salary from salaries"})
        after = clients[1].read()
        if after.get("outcome") != "served":
            fail(f"connection did not survive the oversized line: {after}")

        # Every concurrent reply must still echo a wire trace id.
        for key, response in replies.items():
            if not response.get("trace_id"):
                fail(f"reply {key} carries no trace_id: {response}")

        # A two-turn correction session over one connection: the
        # incremental turn must reuse spans and match a cold recompute.
        check_session_exchange(
            clients[0].send, clients[0].read, prefix="as"
        )

        with urllib.request.urlopen(health_url + "/healthz", timeout=10) as r:
            if r.status != 200:
                fail(f"/healthz answered {r.status}")
            health = json.loads(r.read())
        if health["outcomes"].get("served") != 8:
            fail(f"healthz served count != 8: {health['outcomes']}")
        if health["outcomes"].get("timeout") != 1:
            fail(f"healthz timeout count != 1: {health['outcomes']}")

        # The dedicated telemetry port answers the same plane.
        check_telemetry(telemetry_url)

        for client in clients:
            client.close()
        proc.stdin.close()
        code = proc.wait(timeout=30)
        if code != 0:
            fail(f"daemon exited {code} on stdin EOF")
    finally:
        watchdog.cancel()
        for client in clients:
            try:
                client.close()
            except OSError:
                pass
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print(
        "serve smoke OK (tcp): 8 served over 2 concurrent TCP clients "
        "(incl. a two-turn correction session), 1 timeout, oversized line "
        "rejected without dropping the connection"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tcp", action="store_true",
                        help="drive the daemon over concurrent TCP "
                             "clients instead of stdin")
    args = parser.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    if args.tcp:
        return run_tcp_smoke(env)
    metrics_out = Path(tempfile.mkdtemp(prefix="serve-smoke-")) / "m.prom"
    command = [sys.executable, "-m", "repro", "serve",
               "--schema", "employees", "--health-port", "0",
               "--metrics-out", str(metrics_out)]
    proc = subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        # Startup banner on stderr: the health address, then "ready".
        health_line = proc.stderr.readline().strip()
        if not health_line.startswith("health: http://"):
            fail(f"expected the health address first, got {health_line!r}")
        health_url = health_line.split(" ", 1)[1]
        if proc.stderr.readline().strip() != "ready":
            fail("daemon never reported ready")

        responses = []
        for request in REQUESTS:
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                fail(f"daemon died on request {request['id']}")
            responses.append(json.loads(line))

        for request, response in zip(REQUESTS[:2], responses[:2]):
            if response.get("id") != request["id"]:
                fail(f"id mismatch: sent {request['id']}, got {response}")
            if response.get("outcome") != "served" or not response.get("sql"):
                fail(f"request {request['id']} not served: {response}")
        timed_out = responses[2]
        if timed_out.get("outcome") != "timeout":
            fail(f"1 ms deadline did not time out: {timed_out}")
        if "deadline exceeded" not in (timed_out.get("error") or ""):
            fail(f"timeout carries no deadline error: {timed_out}")
        for response in responses:
            if not response.get("trace_id"):
                fail(f"reply carries no trace_id: {response}")

        # The same two-turn session exchange the TCP smoke drives.
        def send(request: dict) -> None:
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()

        def read() -> dict:
            line = proc.stdout.readline()
            if not line:
                fail("daemon died during the session exchange")
            return json.loads(line)

        check_session_exchange(send, read, prefix="s")

        for probe in ("/healthz", "/readyz"):
            with urllib.request.urlopen(health_url + probe, timeout=10) as r:
                if r.status != 200:
                    fail(f"{probe} answered {r.status}")
                if probe == "/healthz":
                    health = json.loads(r.read())
        if health["outcomes"]["served"] != 5:
            fail(f"healthz served count != 5: {health['outcomes']}")
        if health["outcomes"]["timeout"] != 1:
            fail(f"healthz timeout count != 1: {health['outcomes']}")

        # The probe port doubles as the telemetry plane.
        check_telemetry(health_url)

        # An orchestrator stop: SIGTERM while stdin is still open.
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=10)
        if code != 0:
            fail(f"daemon exited {code} on SIGTERM")
        if not metrics_out.is_file():
            fail("SIGTERM stop did not write --metrics-out")
        if "speakql_serving_requests_total" not in metrics_out.read_text():
            fail("--metrics-out written on SIGTERM lacks the serving counters")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(metrics_out.parent, ignore_errors=True)
    print(
        "serve smoke OK: 5 served (incl. a two-turn correction session), "
        "1 timeout, health and readiness probes answered, SIGTERM stop "
        "wrote metrics"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
