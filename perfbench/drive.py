"""Closed-loop load generators on one connection, and the reply checks
every frame goes through."""

from __future__ import annotations

import itertools
import json
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from perfbench.daemon import Connection
from perfbench.stats import OutcomeLedger

#: The one wire protocol version the daemon speaks.
PROTOCOL_VERSION = 1
#: n-best list size of every dictation.
NBEST = 5


@dataclass
class Reply:
    """One request's fate as the client saw it."""

    request_id: int
    outcome: str
    latency_s: float
    frame: dict
    turn: int = 0
    query: object = None


@dataclass
class Phase:
    """Every request of one measured phase."""

    replies: list[Reply] = field(default_factory=list)
    ledger: OutcomeLedger = field(default_factory=OutcomeLedger)
    #: Client time of the phase, less the time spent making inputs.
    seconds: float = 0.0
    start: float = 0.0
    end: float = 0.0


class Client:
    """Frames requests and checks replies; collects protocol problems."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self.problems: list[str] = []

    def next_id(self) -> int:
        return next(self._ids)

    def dictation(self, request_id: int, query) -> dict:
        """A speech-mode request (``text`` + ``seed``), n-best 5."""
        return {"id": request_id, "text": query.sql, "seed": query.seed,
                "nbest": NBEST, "trace_id": f"r{request_id}",
                "protocol_version": PROTOCOL_VERSION}

    def turn(self, request_id: int, session_id: str, turn: int,
             text: str | None = None, edit: dict | None = None) -> dict:
        frame = {"id": request_id, "session_id": session_id, "turn": turn,
                 "trace_id": f"r{request_id}",
                 "protocol_version": PROTOCOL_VERSION}
        if edit is None:
            frame["text"] = text
        else:
            frame["edit"] = edit
        return frame

    def exchange(self, conn: Connection, frame: dict) -> tuple[str, dict, float]:
        """One closed-loop request: ``(outcome, reply, latency_s)``.

        A reply that does not parse, lacks ``protocol_version`` 1, does
        not echo the request's ``id``, or is a protocol error frame is
        recorded as a problem; its outcome is ``error``.
        """
        line, sent, received = conn.request(frame)
        request_id = frame["id"]
        try:
            reply = json.loads(line)
        except ValueError:
            reply = None
        if not isinstance(reply, dict):
            self.problem(f"unparseable reply to {request_id}: {line[:120]!r}")
            return "error", {}, received - sent
        if reply.get("protocol_version") != PROTOCOL_VERSION:
            self.problem(f"reply to {request_id} lacks protocol_version 1")
        if reply.get("id") != request_id:
            self.problem(f"reply id {reply.get('id')!r} answers {request_id}")
        outcome = reply.get("outcome")
        if outcome is None:
            self.problem(f"error reply to {request_id}: "
                         f"{reply.get('error_kind')}: {reply.get('error')}")
            outcome = "error"
        return outcome, reply, received - sent

    def problem(self, message: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(message)


class Paused:
    """Wraps an input iterator, timing how long producing inputs took
    so closed-loop throughput can exclude it."""

    def __init__(self, source: Iterator) -> None:
        self.source = source
        self.seconds = 0.0

    def __next__(self):
        start = time.perf_counter()
        try:
            return next(self.source)
        finally:
            self.seconds += time.perf_counter() - start


def closed_dictation(client: Client, conn: Connection, queries: Iterator,
                     seconds: float, min_replies: int) -> Phase:
    """Dictate back to back: the next query goes out when the previous
    reply is in.  Runs ``seconds`` of client time and at least
    ``min_replies`` requests."""
    source = Paused(queries)
    phase = Phase(start=time.perf_counter())
    while True:
        busy = time.perf_counter() - phase.start - source.seconds
        if busy >= seconds and len(phase.replies) >= min_replies:
            break
        query = next(source)
        request_id = client.next_id()
        phase.ledger.send(request_id)
        outcome, reply, latency = client.exchange(
            conn, client.dictation(request_id, query)
        )
        phase.ledger.settle(request_id, outcome)
        phase.replies.append(Reply(request_id, outcome, latency, reply,
                                   query=query))
    phase.end = time.perf_counter()
    phase.seconds = phase.end - phase.start - source.seconds
    return phase


def closed_sessions(client: Client, conn: Connection, sessions: Iterator,
                    seconds: float, min_sessions: int,
                    session_prefix: str) -> Phase:
    """Run correction sessions back to back (turn 0, then each edit),
    until ``seconds`` of client time have passed and at least
    ``min_sessions`` sessions finished.  A new session starts only
    between sessions."""
    source = Paused(sessions)
    phase = Phase(start=time.perf_counter())
    finished = 0
    while True:
        busy = time.perf_counter() - phase.start - source.seconds
        if busy >= seconds and finished >= min_sessions:
            break
        session = next(source)
        session_id = f"{session_prefix}-{finished}"
        for turn in range(len(session.edits) + 1):
            request_id = client.next_id()
            if turn == 0:
                frame = client.turn(request_id, session_id, 0,
                                    text=session.turn0)
            else:
                frame = client.turn(request_id, session_id, turn,
                                    edit=session.edits[turn - 1].to_wire())
            phase.ledger.send(request_id)
            outcome, reply, latency = client.exchange(conn, frame)
            phase.ledger.settle(request_id, outcome)
            phase.replies.append(Reply(request_id, outcome, latency, reply,
                                       turn=turn, query=session))
        finished += 1
    phase.end = time.perf_counter()
    phase.seconds = phase.end - phase.start - source.seconds
    return phase
