"""Buffer sharing between compiled-index weight variants.

``CompiledStructureIndex.reweighted`` derives a variant for different
token weights; these tests pin down that the variants share (never
copy) the structural trie arrays and the level plan, and reuse whole
tries whose weights did not change.
"""

from __future__ import annotations

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
        for length, trie in compiled.tries.items():
            new = other.tries[length]
            assert new.first_child is trie.first_child
            assert new.next_sibling is trie.next_sibling
            assert new.token_id is trie.token_id
            assert new.sentence_id is trie.sentence_id

    def test_weight_variants_share_one_level_plan(self, compiled):
        # The plan is purely structural, built once whichever variant
        # asks first.
        other = compiled.reweighted(UNIT_WEIGHTS)
        assert other.level_plan() is compiled.level_plan()

    def test_level_plan_lays_every_trie_out_by_depth(self, compiled):
        plan = compiled.level_plan()
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
        assert plan.structures == {
            length: sum(1 for s in trie.sentence_id if s >= 0)
            for length, trie in compiled.tries.items()
        }
        assert sum(plan.structures.values()) == len(compiled)

    def test_level_plan_rejects_a_terminal_off_the_trie_length(self):
        lines = StructureIndex.from_structures(
            [("SELECT", "x"), ("SELECT", "x", "FROM", "x")]
        ).compiled().to_lines()
        # Mark the length-4 trie's depth-2 node terminal instead of its
        # depth-4 leaf: the file still loads, the plan refuses it.
        assert lines[-1] == "-1 -1 -1 -1 1"
        lines[-1] = "-1 -1 1 -1 -1"
        loaded = CompiledStructureIndex.from_lines(lines)
        with pytest.raises(ValueError, match="trie 4"):
            loaded.level_plan()

    def test_unaffected_tries_keep_their_weight_buffers(self, compiled):
        # A weight change that leaves the effective per-token vector
        # untouched for some tries must reuse those tries outright.
        base = compiled.reweighted(UNIT_WEIGHTS)
        again = base.reweighted(DEFAULT_WEIGHTS)
        back = again.reweighted(UNIT_WEIGHTS)
        for length, trie in base.tries.items():
            assert list(back.tries[length].node_weight) == list(
                trie.node_weight
            )

    def test_reweighted_view_searches_identically(self, compiled):
        engine = StructureSearchEngine(
            StructureIndex.from_compiled(compiled),
            weights=UNIT_WEIGHTS,
            kernel="compiled",
        )
        masked = tuple("SELECT x FROM x".split())
        results, _ = engine.search(masked, k=3)
        assert results and results[0].distance >= 0
