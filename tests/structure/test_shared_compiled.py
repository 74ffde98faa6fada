"""Buffer sharing between compiled-index weight variants.

``CompiledStructureIndex.reweighted`` derives a variant for different
token weights; these tests pin down that the variants share (never
copy) the level plan and the keyword masks: only the per-id weight
vector differs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.structure.compiled import CompiledStructureIndex
from repro.structure.edit_distance import DEFAULT_WEIGHTS, TokenWeights, UNIT_WEIGHTS
from repro.structure.indexer import StructureIndex
from repro.structure.search import StructureSearchEngine


@pytest.fixture(scope="module")
def compiled(request) -> CompiledStructureIndex:
    small_index = request.getfixturevalue("small_index")
    return small_index.compiled()


class TestReweightedBufferReuse:
    def test_same_weights_returns_self(self, compiled):
        assert compiled.reweighted(compiled.weights) is compiled

    def test_equal_valued_weights_reuse_every_trie(self, compiled):
        clone = TokenWeights(
            keyword=compiled.weights.keyword,
            splchar=compiled.weights.splchar,
            literal=compiled.weights.literal,
        )
        assert clone is not compiled.weights
        assert compiled.reweighted(clone) is compiled

    def test_changed_weights_share_structural_buffers(self, compiled):
        other = compiled.reweighted(UNIT_WEIGHTS)
        assert other is not compiled
        assert other.tokens is compiled.tokens
        assert other.sentences is compiled.sentences
        for level, new in zip(compiled.plan.levels, other.plan.levels):
            assert new.token_id is level.token_id
            assert new.sentence_id is level.sentence_id
            assert new.child_start is level.child_start
            assert new.child_count is level.child_count

    def test_weight_variants_share_one_level_plan(self, compiled):
        # The plan is purely structural, built once by the compile.
        other = compiled.reweighted(UNIT_WEIGHTS)
        assert other.plan is compiled.plan

    def test_level_plan_lays_every_trie_out_by_depth(self, compiled):
        plan = compiled.plan
        assert list(plan.levels[0].length) == compiled.lengths
        for depth, level in enumerate(plan.levels):
            assert list(level.length) == sorted(level.length)
            if depth + 1 < len(plan.levels):
                assert level.child_count.sum() == len(
                    plan.levels[depth + 1].token_id
                )
            terminal = level.sentence_id >= 0
            # A length-L trie's terminals are exactly its depth-L nodes.
            assert list(terminal) == list(level.length == depth)
        lengths = [len(s) for s in compiled.sentences]
        assert plan.structures == {
            length: lengths.count(length) for length in sorted(set(lengths))
        }
        assert sum(plan.structures.values()) == len(compiled)

    def test_level_plan_rejects_a_terminal_off_the_trie_length(self):
        lines = StructureIndex.from_structures(
            [("SELECT", "x"), ("SELECT", "x", "FROM", "x")]
        ).compiled().to_lines()
        # Move the length-4 trie's sentence id from its depth-4 leaf to
        # its depth-2 node: the load refuses the plan.
        level2 = lines.index("level 2 2")
        assert lines[level2 + 2] == "0 -1"
        assert lines[-2] == "1"
        lines[level2 + 2] = "0 1"
        lines[-2] = "-1"
        with pytest.raises(ValueError, match="sentence ids must sit exactly"):
            CompiledStructureIndex.from_lines(lines)

    def test_unaffected_tries_keep_their_weight_buffers(self, compiled):
        # The plan holds no weights, so every variant reuses it outright.
        base = compiled.reweighted(UNIT_WEIGHTS)
        again = base.reweighted(DEFAULT_WEIGHTS)
        back = again.reweighted(UNIT_WEIGHTS)
        assert back.plan is compiled.plan
        assert list(back.token_weight) == list(base.token_weight)

    def test_weight_variants_share_one_keyword_mask(self, compiled):
        other = compiled.reweighted(UNIT_WEIGHTS)
        assert other.keyword_masks() is compiled.keyword_masks()

    def test_keyword_masks_count_each_keywords_postings(self, small_index):
        masks = small_index.compiled().keyword_masks()
        assert set(masks.bits) == set(masks.structures)
        for keyword, postings in small_index.inverted.items():
            lengths = {}
            for posting in postings:
                lengths[len(posting)] = lengths.get(len(posting), 0) + 1
            assert masks.structures[keyword] == lengths, keyword
        compiled = small_index.compiled()
        plan = compiled.plan
        for depth, level in enumerate(plan.levels[1:], start=1):
            rows = masks.levels[depth]
            assert rows.shape == level.token_id.shape
            # A terminal's mask is its structure's keyword set.
            for row in (level.length == depth).nonzero()[0]:
                sentence = compiled.sentences[level.sentence_id[row]]
                assert rows[row] == sum(
                    bit for kw, bit in masks.bits.items() if kw in sentence
                )
            # A parent's mask is the OR of its children's.
            parents = masks.levels[depth - 1]
            starts = plan.levels[depth - 1].child_start
            counts = plan.levels[depth - 1].child_count
            for j in range(len(parents)):
                if counts[j]:
                    ors = np.bitwise_or.reduce(
                        rows[starts[j] : starts[j] + counts[j]]
                    )
                    assert parents[j] == ors

    def test_reweighted_view_searches_identically(self, compiled):
        engine = StructureSearchEngine(
            StructureIndex.from_compiled(compiled),
            weights=UNIT_WEIGHTS,
        )
        masked = tuple("SELECT x FROM x".split())
        results, _ = engine.search(masked, k=3)
        assert results and results[0].distance >= 0
