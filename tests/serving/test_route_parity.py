"""Every route to an answer returns the same answer.

Seeded Employees dictations and raw transcriptions go through the
library (:class:`~repro.core.pipeline.SpeakQL`), the serving runtime
at rung 0, and the asyncio daemon over TCP; each route must return the
same SQL and the same top-5.  A correction session's cold turn decodes
clause by clause over the clause grammars, so it is its own route
family: over the runtime, over TCP, and as a library
:class:`~repro.serving.sessions.SessionDecoder` it must return the same
SQL and query list.

Every route runs on its own pipeline over one shared artifact bundle,
so a per-pipeline cache that changed an answer would show here.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import QueryRequest
from repro.core import SpeakQL, SpeakQLArtifacts, SpeakQLService
from repro.core.clauses import ClauseSpeakQL
from repro.dataset.spoken import make_spoken_dataset
from repro.serving import AsyncServingDaemon, ServingRuntime
from repro.serving.sessions import SessionDecoder, SessionStore

from .daemon_harness import serve_while

#: The repository benchmark's dictation split: Employees test, seed 8.
SPLIT_SEED = 8
DICTATIONS = 8
TOP = 5

TRANSCRIPTIONS = [
    "select salary from salaries where salary greater than 70000",
    "select first name last name from employees where gender equals m",
    "select count star from employees",
    "select last name from employers wear first name equals karsten",
]


@pytest.fixture(scope="module")
def artifacts(request):
    catalog = request.getfixturevalue("employees_catalog")
    small_index = request.getfixturevalue("small_index")
    training = make_spoken_dataset("train", catalog, 30, seed=7)
    return SpeakQLArtifacts.build(
        structure_index=small_index,
        training_sql=[q.sql for q in training.queries],
    )


@pytest.fixture(scope="module")
def requests(employees_catalog) -> list[QueryRequest]:
    dictations = make_spoken_dataset(
        "test", employees_catalog, DICTATIONS, seed=SPLIT_SEED
    ).queries
    return [QueryRequest(text=q.sql, seed=q.seed) for q in dictations] + [
        QueryRequest(text=text) for text in TRANSCRIPTIONS
    ]


def make_runtime(catalog, artifacts) -> ServingRuntime:
    """A runtime over a pipeline of its own (fresh caches)."""
    return ServingRuntime(SpeakQLService(catalog, artifacts=artifacts))


def library_answer(pipeline: SpeakQL, request: QueryRequest) -> tuple:
    if request.seed is None:
        output = pipeline.correct_transcription(request.text)
    else:
        output = pipeline.query_from_speech(request.text, seed=request.seed)
    return output.sql, tuple(output.queries[:TOP])


def over_tcp(runtime: ServingRuntime, frames: list[dict]) -> list[dict]:
    """Send ``frames`` down one TCP connection; replies in frame order."""

    async def scenario(daemon):
        reader, writer = await asyncio.open_connection(*daemon.tcp_address)
        try:
            for index, frame in enumerate(frames):
                line = json.dumps({"id": index, **frame}) + "\n"
                writer.write(line.encode("utf-8"))
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in frames]
        finally:
            writer.close()
            await writer.wait_closed()
        return sorted(replies, key=lambda reply: reply["id"])

    code, replies = serve_while(AsyncServingDaemon(runtime, port=0), scenario)
    assert code == 0
    return replies


def wire_frame(request: QueryRequest) -> dict:
    frame = {"text": request.text}
    if request.seed is not None:
        frame["seed"] = request.seed
    return frame


@pytest.fixture(scope="module")
def library(employees_catalog, artifacts, requests) -> list[tuple]:
    pipeline = SpeakQL(employees_catalog, artifacts=artifacts)
    return [library_answer(pipeline, request) for request in requests]


class TestWholeQueryRoutes:
    def test_library_answers_are_real(self, library):
        assert all(sql for sql, _ in library)
        assert all(len(top) == TOP for _, top in library[:DICTATIONS])

    def test_runtime_rung_zero_matches_the_library(
        self, employees_catalog, artifacts, requests, library
    ):
        runtime = make_runtime(employees_catalog, artifacts)
        for request, want in zip(requests, library):
            response = runtime.submit(request)
            assert (response.outcome, response.rung) == ("served", 0)
            assert (response.sql, tuple(response.output.queries[:TOP])) == want

    def test_daemon_over_tcp_matches_the_library(
        self, employees_catalog, artifacts, requests, library
    ):
        replies = over_tcp(
            make_runtime(employees_catalog, artifacts),
            [wire_frame(request) for request in requests],
        )
        for reply, want in zip(replies, library):
            assert (reply["outcome"], reply["rung"]) == ("served", 0)
            assert (reply["sql"], tuple(reply["queries"][:TOP])) == want


class TestColdSessionTurn:
    @pytest.fixture(scope="class")
    def texts(self, employees_catalog, artifacts, requests) -> list[str]:
        """Sessions take transcriptions only: a dictation enters one as
        the text the library heard for it."""
        pipeline = SpeakQL(employees_catalog, artifacts=artifacts)
        return [
            pipeline.query_from_speech(r.text, seed=r.seed).asr_text
            if r.seed is not None else r.text
            for r in requests
        ]

    @pytest.fixture(scope="class")
    def decoded(self, employees_catalog, artifacts, texts) -> list[tuple]:
        decoder = SessionDecoder(
            ClauseSpeakQL(employees_catalog, artifacts=artifacts),
            SessionStore(limit=len(texts)),
        )
        answers = []
        for index, text in enumerate(texts):
            output = decoder.decode(
                QueryRequest(text=text, session_id=f"lib-{index}")
            ).output
            answers.append((output.sql, tuple(output.queries)))
        return answers

    def test_runtime_matches_the_session_decoder(
        self, employees_catalog, artifacts, texts, decoded
    ):
        runtime = make_runtime(employees_catalog, artifacts)
        for index, (text, want) in enumerate(zip(texts, decoded)):
            response = runtime.submit(
                QueryRequest(text=text, session_id=f"rt-{index}")
            )
            assert response.outcome == "served"
            assert response.reused_spans == ()
            assert (response.sql, tuple(response.output.queries)) == want

    def test_daemon_over_tcp_matches_the_session_decoder(
        self, employees_catalog, artifacts, texts, decoded
    ):
        replies = over_tcp(
            make_runtime(employees_catalog, artifacts),
            [
                {"text": text, "session_id": f"tcp-{index}", "turn": 0}
                for index, text in enumerate(texts)
            ],
        )
        for reply, want in zip(replies, decoded):
            assert reply["outcome"] == "served"
            assert reply["reused_spans"] == []
            assert (reply["sql"], tuple(reply["queries"])) == want
