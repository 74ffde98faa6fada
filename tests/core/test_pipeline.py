"""End-to-end pipeline tests."""

import pytest

from repro.asr.channel import NOISELESS, AcousticChannel
from repro.asr.engine import SimulatedAsrEngine, make_custom_engine
from repro.asr.language_model import LanguageModel
from repro.core import SpeakQL, SpeakQLConfig
from repro.grammar.generator import StructureGenerator
from repro.metrics import score_query
from repro.observability.trace import Tracer
from repro.structure.indexer import StructureIndex


@pytest.fixture(scope="module")
def pipeline(request):
    small_catalog = request.getfixturevalue("small_catalog")
    medium_index = request.getfixturevalue("medium_index")
    engine = make_custom_engine(
        [
            "SELECT AVG ( salary ) FROM Salaries",
            "SELECT FirstName FROM Employees WHERE Gender = 'M'",
            "SELECT LastName FROM Employees natural join Salaries",
        ]
    )
    return SpeakQL(small_catalog, engine=engine, structure_index=medium_index)


class TestQueryFromSpeech:
    def test_clean_simple_query(self, pipeline):
        out = pipeline.query_from_speech(
            "SELECT AVG ( salary ) FROM Salaries", seed=3
        )
        assert out.sql == "SELECT AVG ( salary ) FROM Salaries"

    def test_output_carries_structure_and_literals(self, pipeline):
        out = pipeline.query_from_speech(
            "SELECT FirstName FROM Employees", seed=1
        )
        assert out.structure is not None
        assert out.literal_result is not None
        assert out.timings.total_seconds >= 0

    def test_alternatives_deduplicated(self, pipeline):
        out = pipeline.query_from_speech(
            "SELECT salary FROM Salaries WHERE salary > 70000", seed=5
        )
        assert len(set(out.queries)) == len(out.queries)
        assert out.sql == out.queries[0]

    def test_top_k(self, pipeline):
        out = pipeline.query_from_speech("SELECT * FROM Employees", seed=2)
        assert out.top(3) == out.queries[:3]

    def test_deterministic(self, pipeline):
        a = pipeline.query_from_speech("SELECT * FROM Salaries", seed=9)
        b = pipeline.query_from_speech("SELECT * FROM Salaries", seed=9)
        assert a.sql == b.sql
        assert a.queries == b.queries


class TestRunnerUpTracing:
    def test_runner_up_decodes_land_in_the_query_trace(self, pipeline, monkeypatch):
        sql = "SELECT salary FROM Salaries WHERE salary > 70000"
        plain = pipeline.query_from_speech(sql, seed=5)
        tracer = Tracer()
        runner_up_spans: list[str] = []
        original = SpeakQL._structure_alternatives

        def spy(self, *args, **kwargs):
            before = len(tracer.spans)
            out = original(self, *args, **kwargs)
            runner_up_spans.extend(s.name for s in tracer.spans[before:])
            return out

        monkeypatch.setattr(SpeakQL, "_structure_alternatives", spy)
        traced = pipeline.query_from_speech(sql, seed=5, tracer=tracer)
        assert "literal.determine" in runner_up_spans
        assert "stage.structure_search" in runner_up_spans
        assert traced.queries == plain.queries
        assert traced.literal_result == plain.literal_result


class TestCorrectTranscription:
    def test_paper_running_example(self, pipeline):
        # Figure 2's flow: homophones ("employers", "wear"), split literal
        # ("first name"), near-homophone value.
        out = pipeline.correct_transcription(
            "select last name from employers wear first name equals Karsten"
        )
        assert out.sql == (
            "SELECT LastName FROM Employees WHERE FirstName = 'Karsten'"
        )

    def test_splchar_words_handled(self, pipeline):
        out = pipeline.correct_transcription(
            "select star from employees where salary greater than 70000"
        )
        assert out.sql.startswith("SELECT * FROM Employees")
        assert "> 70000" in out.sql

    def test_correction_improves_over_asr(self, pipeline, small_catalog):
        reference = "SELECT LastName FROM Employees WHERE FirstName = 'Goh'"
        out = pipeline.query_from_speech(reference, seed=17)
        asr_wrr = score_query(reference, out.asr_text).wrr
        speakql_wrr = score_query(reference, out.sql).wrr
        assert speakql_wrr >= asr_wrr


class TestConfiguration:
    def test_custom_config(self, small_catalog):
        config = SpeakQLConfig(max_structure_tokens=10, top_k=2)
        pipeline = SpeakQL(small_catalog, config=config)
        assert pipeline.structure_index is not None
        assert pipeline.structure_index.max_length <= 10

    def test_prebuilt_index_reused(self, small_catalog, small_index):
        pipeline = SpeakQL(small_catalog, structure_index=small_index)
        assert pipeline.structure_index is small_index

    def test_noiseless_end_to_end_perfect(self, small_catalog, small_index):
        engine = SimulatedAsrEngine(
            lm=LanguageModel(), channel=AcousticChannel(NOISELESS)
        )
        engine.train_on_sql(["SELECT FirstName FROM Employees"])
        pipeline = SpeakQL(
            small_catalog, engine=engine, structure_index=small_index
        )
        out = pipeline.query_from_speech("SELECT FirstName FROM Employees", seed=0)
        assert out.sql == "SELECT FirstName FROM Employees"
