"""End-to-end pipeline tests."""

import time
from dataclasses import replace

import pytest

from repro.asr.channel import NOISELESS, AcousticChannel
from repro.asr.engine import AsrResult, SimulatedAsrEngine, make_custom_engine
from repro.asr.language_model import LanguageModel
from repro.core import SpeakQL, SpeakQLConfig
from repro.core.result import LITERAL_STAGE, RUNNER_UP_STAGE
from repro.core.stages import QueryContext, StructureSearchStage, run_stages
from repro.errors import DeadlineExceededError
from repro.grammar.generator import StructureGenerator
from repro.metrics import score_query
from repro.observability import names as obs_names
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Tracer
from repro.structure.indexer import StructureIndex
from repro.structure.search import StructureSearchEngine


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
        # Runner-ups reuse the rank-0 search: no re-mask, no re-search.
        assert "stage.mask" not in runner_up_spans
        assert "stage.structure_search" not in runner_up_spans
        assert traced.queries == plain.queries
        assert traced.literal_result == plain.literal_result


def two_search_oracle(speakql: SpeakQL, asr: AsrResult):
    """``(queries, top)`` the way the pipeline computed them before the
    rank-0 search was shared: every alternative searched at k=1, then
    the top text masked and searched again at ``top_k`` for the
    runner-up structures — on an uncached engine, so no cache entry
    can stand in for a search."""
    cold = StructureSearchEngine(
        speakql.structure_index, weights=speakql.config.weights,
        cache_results=False,
    )
    top_k = speakql.config.top_k
    correct = [
        speakql._mask_stage,
        StructureSearchStage(searcher=cold, k=1),
        speakql._literal_stage,
    ]
    queries: list[str] = []
    top = None
    for rank, text in enumerate(asr.alternatives):
        corrected = run_stages(correct, text, QueryContext())
        if rank == 0:
            top = corrected
        if corrected.sql and corrected.sql not in queries:
            queries.append(corrected.sql)
    if len(queries) < top_k:
        masked = speakql._mask_stage.run(asr.text, QueryContext())
        results, _ = cold.search(masked.search_tokens, k=top_k)
        for result in results:
            if top is not None and result.structure == top.structure.structure:
                continue
            sql = speakql._determiner.determine(
                list(masked.source), result.structure
            ).sql()
            if sql and sql not in queries:
                queries.append(sql)
            if len(queries) >= top_k:
                break
    return queries, top


def assert_matches_oracle(speakql: SpeakQL, asr: AsrResult, out) -> None:
    queries, top = two_search_oracle(speakql, asr)
    assert out.queries == queries
    assert out.asr_text == asr.text
    assert tuple(out.asr_alternatives) == tuple(asr.alternatives)
    assert out.structure == (top.structure if top else None)
    assert out.literal_result == (top.literals if top else None)


class TestSharedRankZeroSearch:
    """Speech mode searches each distinct masked alternative once; the
    runner-up structures reuse the rank-0 top-k."""

    @pytest.fixture
    def fresh(self, pipeline):
        # A new facade owns a new engine, so its result cache starts empty.
        return SpeakQL(
            pipeline.catalog, engine=pipeline.engine,
            structure_index=pipeline.structure_index,
        )

    @pytest.mark.parametrize("sql,seed", [
        ("SELECT salary FROM Salaries WHERE salary > 70000", 5),
        ("SELECT FirstName FROM Employees WHERE Gender = 'M'", 11),
        ("SELECT AVG ( salary ) FROM Salaries", 3),
    ])
    def test_one_uncached_search_per_distinct_masked_alternative(
        self, fresh, monkeypatch, sql, seed
    ):
        searched: list[tuple[tuple[str, ...], int]] = []
        original = fresh._searcher._search_uncached

        def spy(masked, k, near=()):
            searched.append((masked, k))
            return original(masked, k, near)

        monkeypatch.setattr(fresh._searcher, "_search_uncached", spy)
        runner_ups = []
        original_alts = SpeakQL._structure_alternatives

        def alts_spy(self, *args, **kwargs):
            runner_ups.append(args)
            return original_alts(self, *args, **kwargs)

        monkeypatch.setattr(SpeakQL, "_structure_alternatives", alts_spy)
        out = fresh.query_from_speech(sql, seed=seed, nbest=5)
        masked = [
            fresh._mask_stage.run(text, QueryContext()).search_tokens
            for text in out.asr_alternatives
        ]
        assert len(out.asr_alternatives) > 1
        assert runner_ups, "the runner-up path must run for this dictation"
        assert [m for m, _ in searched] == list(dict.fromkeys(masked))
        # The rank-0 text is searched once, at the runner-ups' width.
        assert searched[0] == (masked[0], fresh.config.top_k)
        asr = AsrResult(text=out.asr_text, alternatives=out.asr_alternatives)
        assert_matches_oracle(fresh, asr, out)

    @pytest.mark.parametrize("sql,seed", [
        ("SELECT salary FROM Salaries WHERE salary > 70000", 5),
        ("SELECT FirstName FROM Employees WHERE Gender = 'M'", 11),
    ])
    def test_alternatives_search_from_the_rank_zero_top_k(
        self, fresh, monkeypatch, sql, seed
    ):
        searched = []
        original = fresh._searcher._search_uncached

        def spy(masked, k, near=()):
            results, stats = original(masked, k, near)
            searched.append((masked, k, tuple(near), stats))
            return results, stats

        monkeypatch.setattr(fresh._searcher, "_search_uncached", spy)
        metrics = MetricsRegistry()
        out = fresh.query_from_speech(sql, seed=seed, nbest=5,
                                      metrics=metrics)
        assert len(searched) > 1, "needs a distinct masked alternative"
        rank0, k0, near0, _ = searched[0]
        assert near0 == ()
        ranked, _ = fresh._searcher.search(rank0, k=k0)
        for masked, k, near, stats in searched[1:]:
            assert k == 1
            assert near == tuple(r.structure for r in ranked)
            # The seed changes where the pass starts, never the answer.
            plain, plain_stats = original(masked, k)
            assert stats.near_seeds == 1
            assert plain_stats.near_seeds == 0
            assert (stats.tries_searched, stats.tries_skipped) == (
                plain_stats.tries_searched, plain_stats.tries_skipped
            )
        assert metrics.counter(obs_names.SEARCH_NEAR_SEEDS).value == (
            len(searched) - 1
        )
        asr = AsrResult(text=out.asr_text, alternatives=out.asr_alternatives)
        assert_matches_oracle(fresh, asr, out)

    def test_empty_alternatives(self, pipeline):
        asr = AsrResult(text="select last name from employers", alternatives=())
        out = pipeline.process_asr_result(asr)
        assert out.structure is None
        assert out.queries  # runner-up structures of the top text
        assert_matches_oracle(pipeline, asr, out)

    def test_top_text_differs_from_rank_zero(self, pipeline):
        asr = AsrResult(
            text="select salary from salaries where salary greater than 70000",
            alternatives=(
                "select first name from employees",
                "select salary from salaries",
            ),
        )
        out = pipeline.process_asr_result(asr)
        assert_matches_oracle(pipeline, asr, out)
        # The runner-ups come from the top text, not from rank 0.
        assert any("70000" in q for q in out.queries)


class TestRunnerUpDeadline:
    def test_runner_up_walk_stops_at_the_next_placeholder(self, pipeline):
        fresh = SpeakQL(
            pipeline.catalog, engine=pipeline.engine,
            structure_index=pipeline.structure_index,
        )
        # Real time for three placeholder checks, then far past the
        # deadline: the first runner-up decode stops mid-walk.
        reads = []

        def clock():
            reads.append(None)
            now = time.perf_counter()
            return now if len(reads) <= 3 else now + 7200.0

        fresh._determiner = replace(fresh._determiner, clock=clock)
        ranked = run_stages(
            [fresh._mask_stage, fresh._ranked_search_stage],
            "select last name from employers wear first name equals Karsten",
            QueryContext(),
        )
        ctx = QueryContext(deadline=time.perf_counter() + 3600.0)
        with pytest.raises(DeadlineExceededError) as info:
            fresh._structure_alternatives(ranked, None, ctx)
        assert info.value.stage == LITERAL_STAGE
        assert len(reads) == 4


class TestStageBreakdown:
    """``SpeakQLOutput.timings`` accounts for the whole dictation: every
    n-best alternative's stages plus the runner-up decodes."""

    SQLS = (
        "SELECT AVG ( salary ) FROM Salaries",
        "SELECT FirstName FROM Employees WHERE Gender = 'M'",
        "SELECT LastName FROM Employees natural join Salaries",
        "SELECT salary FROM Salaries WHERE salary > 70000",
    )

    def test_stages_cover_the_query_wall_time(self, pipeline):
        covered = wall = 0.0
        for seed in range(8):
            for sql in self.SQLS:
                start = time.perf_counter()
                out = pipeline.query_from_speech(sql, seed=seed, nbest=5)
                wall += time.perf_counter() - start
                covered += out.timings.total_seconds
        assert covered >= 0.95 * wall, (covered, wall)

    def test_runner_ups_have_their_own_stage(self, pipeline, monkeypatch):
        calls = []
        original = SpeakQL._structure_alternatives

        def spy(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpeakQL, "_structure_alternatives", spy)
        out = pipeline.query_from_speech(self.SQLS[3], seed=5, nbest=5)
        assert calls, "the runner-up path must run for this dictation"
        assert out.timings.stage_seconds(RUNNER_UP_STAGE) > 0

    def test_search_stats_stay_rank_zeros(self, pipeline):
        fresh = SpeakQL(
            pipeline.catalog, engine=pipeline.engine,
            structure_index=pipeline.structure_index,
        )
        sql, seed = self.SQLS[1], 11
        one = fresh.query_from_speech(sql, seed=seed, nbest=1)
        five = fresh.query_from_speech(sql, seed=seed, nbest=5)
        assert len(five.asr_alternatives) > 1
        assert five.asr_alternatives[0] == one.asr_alternatives[0]
        assert five.search_stats == one.search_stats


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
