"""Tests for the shared immutable artifact bundle."""

import pytest

from repro.asr.engine import make_custom_engine
from repro.core import SpeakQL, SpeakQLArtifacts
from repro.core.artifacts import structure_cache_path
from repro.core.clauses import ClauseKind, ClauseSpeakQL
from repro.structure.search import StructureSearchEngine
from repro.structure.trie import TrieNode


@pytest.fixture(scope="module")
def artifacts(request):
    medium_index = request.getfixturevalue("medium_index")
    return SpeakQLArtifacts.build(
        engine=make_custom_engine(), structure_index=medium_index
    )


class TestSharing:
    def test_pipelines_share_structure_index(
        self, artifacts, small_catalog, employees_catalog
    ):
        a = SpeakQL(small_catalog, artifacts=artifacts)
        b = SpeakQL(employees_catalog, artifacts=artifacts)
        assert a.structure_index is b.structure_index
        assert a.structure_index is artifacts.structure_index

    def test_engine_inherited_from_artifacts(self, artifacts, small_catalog):
        pipeline = SpeakQL(small_catalog, artifacts=artifacts)
        assert pipeline.engine is artifacts.engine

    def test_phonetic_index_cached_per_catalog(
        self, artifacts, small_catalog, employees_catalog
    ):
        first = artifacts.phonetic_index(small_catalog)
        assert artifacts.phonetic_index(small_catalog) is first
        assert artifacts.phonetic_index(employees_catalog) is not first

    def test_pipelines_share_phonetic_index(self, artifacts, small_catalog):
        a = SpeakQL(small_catalog, artifacts=artifacts)
        b = SpeakQL(small_catalog, artifacts=artifacts)
        assert a.phonetic_index is b.phonetic_index

    def test_prebuilt_phonetic_index_wins(self, artifacts, small_catalog):
        prebuilt = artifacts.phonetic_index(small_catalog)
        pipeline = SpeakQL(
            small_catalog, artifacts=artifacts, phonetic_index=prebuilt
        )
        assert pipeline.phonetic_index is prebuilt

    def test_clause_index_cached(self, artifacts):
        first = artifacts.clause_index(ClauseKind.SELECT)
        assert artifacts.clause_index(ClauseKind.SELECT) is first
        assert artifacts.clause_index(ClauseKind.FROM) is not first

    def test_clause_pipelines_share_indexes(self, artifacts, small_catalog):
        a = ClauseSpeakQL(small_catalog, artifacts=artifacts)
        b = ClauseSpeakQL(small_catalog, artifacts=artifacts)
        a_searcher = a._searcher(ClauseKind.SELECT)
        b_searcher = b._searcher(ClauseKind.SELECT)
        assert a_searcher.index is b_searcher.index
        assert a.phonetic_index is b.phonetic_index


class TestCacheRoundTrip:
    def test_load_or_build_writes_then_reads(self, tmp_path):
        first = SpeakQLArtifacts.load_or_build(tmp_path, max_structure_tokens=8)
        assert structure_cache_path(tmp_path, 8).exists()
        second = SpeakQLArtifacts.load_or_build(tmp_path, max_structure_tokens=8)
        assert len(second.structure_index) == len(first.structure_index)

    def test_roundtrip_preserves_search_results(self, tmp_path):
        built = SpeakQLArtifacts.load_or_build(tmp_path, max_structure_tokens=10)
        loaded = SpeakQLArtifacts.load_or_build(tmp_path, max_structure_tokens=10)
        masked = ("SELECT", "x", "FROM", "x", "WHERE", "x", "=", "x")
        built_results, _ = StructureSearchEngine(
            index=built.structure_index
        ).search(masked, k=5)
        loaded_results, _ = StructureSearchEngine(
            index=loaded.structure_index
        ).search(masked, k=5)
        # The exact match is unique; deeper ranks may reorder among
        # equal-distance ties, so compare the distance profile there.
        assert built_results[0] == loaded_results[0]
        assert built_results[0].structure == masked
        assert built_results[0].distance == 0.0
        assert [r.distance for r in built_results] == [
            r.distance for r in loaded_results
        ]

    def test_caps_coexist_in_one_cache_dir(self, tmp_path):
        small = SpeakQLArtifacts.load_or_build(tmp_path, max_structure_tokens=8)
        bigger = SpeakQLArtifacts.load_or_build(tmp_path, max_structure_tokens=10)
        assert structure_cache_path(tmp_path, 8).exists()
        assert structure_cache_path(tmp_path, 10).exists()
        assert len(bigger.structure_index) > len(small.structure_index)


class TestNoNodeTries:
    def test_build_dictate_and_clause_index_make_no_trie_node(
        self, monkeypatch, small_catalog
    ):
        # The production path lowers structures straight into the level
        # plan; node tries exist for the test oracle alone.
        made = []
        init = TrieNode.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TrieNode, "__init__", counting_init)
        artifacts = SpeakQLArtifacts.build(
            max_structure_tokens=10, engine=make_custom_engine()
        )
        out = SpeakQL(small_catalog, artifacts=artifacts).query_from_speech(
            "SELECT AVG ( salary ) FROM Salaries", seed=3
        )
        assert out.sql
        clause_index = artifacts.clause_index(ClauseKind.WHERE)
        results, _ = StructureSearchEngine(clause_index).search(
            ("WHERE", "x", "=", "x"), k=3
        )
        assert results
        assert made == []
        # The counter sees node tries when something does build them.
        assert clause_index.tries
        assert made
