"""Tests for structure-index persistence."""

import pytest

from repro.grammar.generator import StructureGenerator
from repro.structure.indexer import StructureIndex
from repro.structure.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    load_or_build,
    load_structures,
    save_structures,
)


class TestRoundTrip:
    def test_save_load(self, small_index, tmp_path):
        path = tmp_path / "structures.txt"
        save_structures(small_index, path, max_tokens=12)
        loaded, max_tokens = load_structures(path)
        assert max_tokens == 12
        assert len(loaded) == len(small_index)
        assert set(loaded.lengths) == set(small_index.lengths)
        for length in small_index.lengths:
            assert set(loaded.tries[length].sentences()) == set(
                small_index.tries[length].sentences()
            )

    def test_load_or_build_caches(self, tmp_path):
        path = tmp_path / "cache.txt"
        first = load_or_build(path, max_tokens=8)
        assert path.exists()
        second = load_or_build(path, max_tokens=8)
        assert len(second) == len(first)

    def test_load_or_build_rebuilds_on_mismatch(self, tmp_path):
        path = tmp_path / "cache.txt"
        load_or_build(path, max_tokens=8)
        bigger = load_or_build(path, max_tokens=10)
        expected = StructureIndex.build(StructureGenerator(max_tokens=10))
        assert len(bigger) == len(expected)

    def test_matches_fresh_build(self, tmp_path):
        path = tmp_path / "cache.txt"
        cached = load_or_build(path, max_tokens=8)
        fresh = StructureIndex.build(StructureGenerator(max_tokens=8))
        assert len(cached) == len(fresh)


class TestValidation:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("")
        with pytest.raises(PersistenceError):
            load_structures(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else v1 max_tokens=5\n")
        with pytest.raises(PersistenceError):
            load_structures(path)

    def test_corrupt_cache_rebuilt(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("garbage\n")
        index = load_or_build(path, max_tokens=8)
        assert len(index) > 0


def _tiny_lines(tmp_path):
    """A saved two-trie index, as lines."""
    index = StructureIndex.from_structures(
        [("SELECT", "x"), ("SELECT", "x", "FROM", "x")]
    )
    path = tmp_path / "tiny.txt"
    save_structures(index, path, max_tokens=4)
    return path, path.read_text().splitlines()


class TestPlanChecks:
    """A v3 file holds the level plan; a load refuses a plan the search
    kernel could not run on."""

    def test_tiny_file_loads(self, tmp_path):
        path, lines = _tiny_lines(tmp_path)
        assert lines[0] == f"speakql-structures v{FORMAT_VERSION} max_tokens=4"
        loaded, _ = load_structures(path)
        assert loaded.structures == (
            ("SELECT", "x"), ("SELECT", "x", "FROM", "x")
        )

    def test_child_counts_must_sum_to_the_next_width(self, tmp_path):
        path, lines = _tiny_lines(tmp_path)
        counts = lines.index("level 1 2") + 3
        assert lines[counts] == "1 1"
        lines[counts] = "2 1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError, match="child counts"):
            load_structures(path)

    def test_token_ids_must_index_the_intern_table(self, tmp_path):
        path, lines = _tiny_lines(tmp_path)
        tokens = lines.index("level 3 1") + 1
        assert lines[tokens] == "2"
        lines[tokens] = "3"  # the table holds ids 0-2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError, match="token id out of range"):
            load_structures(path)

    def test_sentence_ids_only_on_depth_l_of_a_length_l_trie(self, tmp_path):
        path, lines = _tiny_lines(tmp_path)
        sids = lines.index("level 3 1") + 2
        assert lines[sids] == "-1"
        lines[sids] = "1"  # a second terminal for structure 1, at depth 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError, match="sentence ids must sit"):
            load_structures(path)

    def test_siblings_must_hold_distinct_tokens(self, tmp_path):
        index = StructureIndex.from_structures(
            [("SELECT", "x"), ("SELECT", "FROM")]
        )
        path = tmp_path / "siblings.txt"
        save_structures(index, path, max_tokens=2)
        lines = path.read_text().splitlines()
        tokens = lines.index("level 2 2") + 1
        assert lines[tokens] == "1 2"
        lines[tokens] = "1 1"  # two ``x`` children under one ``SELECT``
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError, match="repeated sibling"):
            load_structures(path)

    def test_out_of_int64_entry_is_corrupt(self, tmp_path):
        path, lines = _tiny_lines(tmp_path)
        lines[-1] = str(2**64)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError):
            load_structures(path)

    def test_v2_file_is_rebuilt(self, tmp_path):
        # The previous format: first-child/next-sibling arrays per trie.
        path = tmp_path / "cache.txt"
        path.write_text(
            "speakql-structures v2 max_tokens=8\n"
            "tokens 2\nSELECT x\nstructures 1\n"
            "trie 2 3\n1 2 -1\n-1 -1 -1\n-1 0 1\n-1 -1 0\n"
        )
        with pytest.raises(PersistenceError, match="unsupported version"):
            load_structures(path)
        index = load_or_build(path, max_tokens=8)
        fresh = StructureIndex.build(StructureGenerator(max_tokens=8))
        assert index.structures == fresh.structures
        assert path.read_text().startswith(
            f"speakql-structures v{FORMAT_VERSION} "
        )
