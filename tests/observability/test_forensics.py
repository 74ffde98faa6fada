"""Forensics: recording neutrality, record/replay bundles, attribution."""

from __future__ import annotations

import json

import pytest

from repro.api import QueryRequest
from repro.core import SpeakQLService
from repro.observability.forensics import (
    ATTRIBUTION_CAUSES,
    FingerprintMismatchError,
    PlaceholderTrace,
    QueryRecord,
    Recorder,
    ReplayBundle,
    ReplayError,
    StructureCandidate,
    attribute,
    attribute_records,
    render_record,
    replay_bundle,
    replay_record,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability import names as obs_names


@pytest.fixture(scope="module")
def service(request) -> SpeakQLService:
    small_catalog = request.getfixturevalue("small_catalog")
    medium_index = request.getfixturevalue("medium_index")
    from repro.core import SpeakQL

    return SpeakQLService.from_pipeline(
        SpeakQL(small_catalog, structure_index=medium_index)
    )


#: A 10-query batch mixing dictation (seeded) and raw correction.
BATCH = [
    QueryRequest(text="SELECT salary FROM Salaries", seed=3),
    QueryRequest(text="SELECT FirstName FROM Employees", seed=5),
    "select last name from employees",
    QueryRequest(text="SELECT Gender FROM Employees", seed=8),
    "select salary from celeries",
    QueryRequest(text="SELECT FromDate FROM Salaries", seed=13),
    QueryRequest(text="SELECT LastName FROM Employees", seed=21),
    "select first name from employees",
    QueryRequest(text="SELECT ToDate FROM Salaries", seed=34),
    QueryRequest(text="SELECT EmployeeNumber FROM Employees", seed=55),
]


class TestRecording:
    def test_recording_is_output_neutral(self, service):
        plain = service.run_batch(BATCH, workers=2)
        recorder = Recorder()
        recorded = service.run_batch(BATCH, workers=2, recorder=recorder)
        assert [o.sql for o in recorded] == [o.sql for o in plain]
        assert [o.queries for o in recorded] == [o.queries for o in plain]
        assert len(recorder) == len(BATCH)

    def test_records_align_with_inputs_in_order(self, service):
        recorder = Recorder()
        outputs = service.run_batch(BATCH, workers=3, recorder=recorder)
        for request, record, output in zip(BATCH, recorder.records, outputs):
            if isinstance(request, QueryRequest):
                assert record.mode == "speech"
                assert record.input_text == request.text
                assert record.seed == request.seed
                assert record.spoken  # channel provenance captured
                assert record.heard
            else:
                assert record.mode == "transcription"
                assert record.input_text == request
            assert record.sql == output.sql
            assert tuple(record.queries) == tuple(output.queries)

    def test_record_captures_provenance(self, service):
        recorder = Recorder(top_k=5)
        service.run_batch(
            [QueryRequest(text="SELECT salary FROM Salaries", seed=3)],
            recorder=recorder,
        )
        record = recorder.records[0]
        assert record.masked  # masking captured
        assert record.candidates  # ranked structure candidates
        assert record.candidates[0].distance <= record.candidates[-1].distance
        assert record.search_stats.get("nodes_visited")
        assert record.placeholders  # voting tallies
        assert all(
            isinstance(trace, PlaceholderTrace)
            for trace in record.placeholders
        )

    def test_record_json_round_trip(self, service):
        recorder = Recorder()
        service.run_batch(BATCH[:3], recorder=recorder)
        for record in recorder.records:
            clone = QueryRecord.from_dict(
                json.loads(json.dumps(record.to_dict()))
            )
            assert clone.to_dict() == record.to_dict()

    def test_record_version_gate(self):
        record = QueryRecord(mode="transcription", input_text="x")
        data = record.to_dict()
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            QueryRecord.from_dict(data)


class TestReplayBundle:
    def test_bundle_round_trip_replays_bit_identically(self, service,
                                                       tmp_path):
        recorder = Recorder()
        outputs = service.run_batch(BATCH, workers=2, recorder=recorder)
        path = tmp_path / "bundle.json"
        service.write_replay_bundle(path, recorder,
                                    environment={"schema": "small"})
        bundle = ReplayBundle.load(path)
        assert bundle.environment["schema"] == "small"
        assert len(bundle.records) == len(BATCH)
        results = replay_bundle(service.pipeline, bundle)
        for (record, output, mismatches), original in zip(results, outputs):
            assert mismatches == []
            assert output.sql == original.sql
            assert tuple(output.queries) == tuple(original.queries)

    def test_fingerprint_tamper_fails_loudly(self, service, tmp_path):
        recorder = Recorder()
        service.run_batch(BATCH[:2], recorder=recorder)
        path = tmp_path / "bundle.json"
        service.write_replay_bundle(path, recorder)
        data = json.loads(path.read_text())
        data["fingerprint"]["speakql_index_structures"] = 1
        bundle = ReplayBundle.from_dict(data)
        with pytest.raises(FingerprintMismatchError,
                           match="speakql_index_structures"):
            replay_bundle(service.pipeline, bundle)

    def test_bundle_version_gate(self, service, tmp_path):
        recorder = Recorder()
        service.run_batch(BATCH[:1], recorder=recorder)
        path = tmp_path / "bundle.json"
        service.write_replay_bundle(path, recorder)
        data = json.loads(path.read_text())
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            ReplayBundle.from_dict(data)

    def test_replay_index_bounds(self, service):
        bundle = ReplayBundle(
            fingerprint=service.artifacts.fingerprint(), records=[]
        )
        with pytest.raises(ReplayError, match="out of range"):
            replay_bundle(service.pipeline, bundle, index=0)

    def test_speech_record_without_seed_is_rejected(self, service):
        record = QueryRecord(mode="speech", input_text="SELECT 1", seed=None)
        with pytest.raises(ReplayError, match="seed"):
            replay_record(service.pipeline, record)

    def test_unknown_voice_is_rejected(self, service):
        record = QueryRecord(
            mode="speech", input_text="SELECT 1", seed=1, voice="Nobody"
        )
        with pytest.raises(ReplayError, match="Nobody"):
            replay_record(service.pipeline, record)


GOLD = "SELECT Salary FROM Salaries"
GOLD_STRUCTURE = ("SELECT", "x", "FROM", "x")


def _record(sql, candidates=(), placeholders=(), masked=GOLD_STRUCTURE):
    return QueryRecord(
        mode="transcription",
        input_text="irrelevant",
        masked=tuple(masked),
        candidates=tuple(candidates),
        placeholders=list(placeholders),
        sql=sql,
    )


class TestAttribution:
    def test_correct(self):
        record = _record(GOLD)
        verdict = attribute(record, GOLD)
        assert verdict.correct and verdict.cause is None

    def test_correct_ignores_case_and_spacing(self):
        record = _record("select   SALARY from Salaries")
        assert attribute(record, GOLD).correct

    def test_no_candidates_is_structure_not_in_topk(self):
        record = _record("SELECT * FROM Titles", candidates=())
        verdict = attribute(record, GOLD)
        assert verdict.cause == "structure_not_in_topk"

    def test_structure_ranked_low(self):
        record = _record(
            "SELECT * FROM Salaries",
            candidates=[
                StructureCandidate(("SELECT", "*", "FROM", "x"), 1.0),
                StructureCandidate(GOLD_STRUCTURE, 2.0),
            ],
        )
        verdict = attribute(record, GOLD)
        assert verdict.cause == "structure_ranked_low"
        assert "#2" in verdict.detail

    def test_structure_not_in_topk(self):
        # Masked text IS the gold structure (distance 0) but the search
        # only recorded a far-away candidate: a bigger k could recover.
        record = _record(
            "SELECT * FROM Salaries",
            candidates=[StructureCandidate(("SELECT", "*", "FROM", "x"), 5.0)],
            masked=GOLD_STRUCTURE,
        )
        assert attribute(record, GOLD).cause == "structure_not_in_topk"

    def test_asr_unrecoverable(self):
        # Masked text exactly matches the wrong structure: gold is
        # strictly farther, so no exact search could rank it first.
        wrong = ("SELECT", "*", "FROM", "x")
        record = _record(
            "SELECT * FROM Salaries",
            candidates=[StructureCandidate(wrong, 0.0)],
            masked=wrong,
        )
        assert attribute(record, GOLD).cause == "asr_unrecoverable"

    def test_literal_voting(self):
        record = _record(
            "SELECT salary FROM Titles",
            candidates=[StructureCandidate(GOLD_STRUCTURE, 0.0)],
            placeholders=[
                PlaceholderTrace(0, "ATTRIBUTE", (1, 2), ("salary",),
                                 "salary", ranking=("salary",),
                                 votes={"salary": 2}, pool_size=3),
                PlaceholderTrace(1, "TABLE", (3, 4), ("celeries",),
                                 "Titles", ranking=("Titles", "Salaries"),
                                 votes={"Titles": 2, "Salaries": 1},
                                 pool_size=3),
            ],
        )
        verdict = attribute(record, GOLD)
        assert verdict.cause == "literal_voting"
        assert "Salaries" in verdict.detail

    def test_literal_category(self):
        record = _record(
            "SELECT salary FROM Titles",
            candidates=[StructureCandidate(GOLD_STRUCTURE, 0.0)],
            placeholders=[
                PlaceholderTrace(0, "ATTRIBUTE", (1, 2), ("salary",),
                                 "salary", ranking=("salary",)),
                PlaceholderTrace(1, "TABLE", (3, 4), ("celeries",),
                                 "Titles", ranking=("Titles", "Employees")),
            ],
        )
        assert attribute(record, GOLD).cause == "literal_category"

    def test_typed_recovery_miss_is_literal_category(self):
        record = _record(
            "SELECT salary FROM 1992",
            candidates=[StructureCandidate(GOLD_STRUCTURE, 0.0)],
            placeholders=[
                PlaceholderTrace(0, "ATTRIBUTE", (1, 2), ("salary",),
                                 "salary", ranking=("salary",)),
                PlaceholderTrace(1, "VALUE", (3, 4), ("1992",), "1992",
                                 typed=True),
            ],
        )
        assert attribute(record, GOLD).cause == "literal_category"

    def test_rendering_difference_falls_back_to_literal_voting(self):
        # Structure matches, every placeholder matches gold, yet the SQL
        # differs (e.g. quoting): classification must stay total.
        record = _record(
            "SELECT salary , salary FROM Salaries",
            candidates=[StructureCandidate(GOLD_STRUCTURE, 0.0)],
            placeholders=[
                PlaceholderTrace(0, "ATTRIBUTE", (1, 2), (), "salary"),
                PlaceholderTrace(1, "TABLE", (3, 4), (), "Salaries"),
            ],
        )
        assert attribute(record, GOLD).cause == "literal_voting"

    def test_batch_attribution_counts_sum_to_misses(self):
        records = [
            _record(GOLD),
            _record("SELECT * FROM Salaries",
                    candidates=[
                        StructureCandidate(("SELECT", "*", "FROM", "x"), 1.0),
                        StructureCandidate(GOLD_STRUCTURE, 2.0),
                    ]),
            _record("SELECT * FROM Titles", candidates=()),
        ]
        registry = MetricsRegistry()
        summary = attribute_records(records, [GOLD] * 3, metrics=registry)
        assert summary.total == 3
        assert summary.misses == 2
        assert sum(summary.counts.values()) == summary.misses
        assert set(summary.counts) == set(ATTRIBUTION_CAUSES)
        assert registry.counter(
            obs_names.ATTRIBUTION_QUERIES_TOTAL
        ).value == 3
        assert registry.counter(
            obs_names.ATTRIBUTION_MISSES_TOTAL, cause="structure_ranked_low"
        ).value == 1

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="record"):
            attribute_records([_record(GOLD)], [GOLD, GOLD])


class TestRenderRecord:
    def test_narrative_sections(self, service):
        recorder = Recorder()
        service.run_batch(
            [QueryRequest(text="SELECT salary FROM Salaries", seed=3)],
            recorder=recorder,
        )
        text = render_record(recorder.records[0], gold_sql=GOLD)
        assert "-- acoustic channel --" in text
        assert "-- structure search --" in text
        assert "-- literal determination --" in text
        assert "-- output --" in text
        assert "-- attribution --" in text
        assert "spoken :" in text and "heard  :" in text

    def test_transcription_record_skips_asr_sections(self):
        record = _record("SELECT salary FROM Salaries")
        text = render_record(record)
        assert "-- acoustic channel --" not in text
        assert "-- structure search --" in text
