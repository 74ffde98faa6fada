"""Tests for the length-partitioned structure index."""

from repro.grammar.generator import StructureGenerator
from repro.structure.indexer import StructureIndex


class TestBuild:
    def test_partitioned_by_length(self, small_index):
        for length, trie in small_index.tries.items():
            for sentence in trie.sentences():
                assert len(sentence) == length

    def test_size_matches_generator(self, small_index):
        expected = StructureGenerator(max_tokens=12).count()
        assert len(small_index) == expected

    def test_duplicates_ignored(self):
        index = StructureIndex.from_structures(
            [("SELECT", "x", "FROM", "x"), ("SELECT", "x", "FROM", "x")]
        )
        assert len(index) == 1
        assert index.structures == (("SELECT", "x", "FROM", "x"),)

    def test_lengths_sorted(self, small_index):
        assert small_index.lengths == sorted(small_index.lengths)

    def test_node_counts(self, small_index):
        assert small_index.largest_trie_nodes() <= small_index.node_count()


class TestInvertedIndex:
    def test_keyword_postings(self):
        with_avg = ("SELECT", "AVG", "(", "x", ")", "FROM", "x")
        without = ("SELECT", "x", "FROM", "x")
        index = StructureIndex.from_structures([with_avg, without])
        assert index.inverted["AVG"] == [with_avg]

    def test_common_keywords_excluded(self, small_index):
        for keyword in ("SELECT", "FROM", "WHERE"):
            assert keyword not in small_index.inverted

    def test_rarest_posting_chosen(self):
        structures = [
            ("SELECT", "x", "FROM", "x", "LIMIT", "x"),
            ("SELECT", "x", "FROM", "x", "ORDER", "BY", "x"),
            ("SELECT", "x", "FROM", "x", "ORDER", "BY", "x", "LIMIT", "x"),
        ]
        index = StructureIndex.from_structures(structures)
        # LIMIT and ORDER hold two postings each: the first one wins ties.
        assert index.rarest_keyword(["LIMIT", "ORDER"]) == "LIMIT"
        assert index.rarest_keyword(["ORDER", "LIMIT"]) == "ORDER"
        structures.append(("SELECT", "x", "FROM", "x", "ORDER", "BY", "x", ",", "x"))
        index = StructureIndex.from_structures(structures)
        # A strictly smaller postings list wins; tokens are upper-cased.
        assert index.rarest_keyword(["order", "x", "limit"]) == "LIMIT"

    def test_no_indexed_keyword_returns_none(self, small_index):
        assert small_index.rarest_keyword(["x"]) is None
        assert small_index.rarest_keyword(["SELECT", "FROM", "WHERE"]) is None
