"""Weight-sensitivity tests for the structure search.

The paper argues the exact WK/WS/WL values matter less than their
ordering; these tests pin that claim down on controlled cases.
"""

import pytest

from repro.structure.edit_distance import TokenWeights, weighted_edit_distance
from repro.structure.indexer import StructureIndex
from repro.structure.search import StructureSearchEngine


@pytest.fixture()
def two_candidate_index():
    return StructureIndex.from_structures([
        tuple("SELECT x FROM x WHERE x = x".split()),
        tuple("SELECT x , x FROM x".split()),
    ])


class TestWeightOrdering:
    def test_keyword_mismatch_outweighs_literal(self, two_candidate_index):
        # Masked input missing WHERE but with the right literal count:
        # the weighted metric prefers deleting literals (cheap) over
        # keywords (expensive).
        engine = StructureSearchEngine(two_candidate_index)
        masked = tuple("SELECT x FROM x x = x".split())
        results, _ = engine.search(masked)
        assert results[0].structure == tuple(
            "SELECT x FROM x WHERE x = x".split()
        )

    def test_scaled_weights_same_ordering_same_result(self, two_candidate_index):
        masked = tuple("SELECT x FROM x x = x".split())
        default = StructureSearchEngine(two_candidate_index)
        scaled = StructureSearchEngine(
            two_candidate_index,
            weights=TokenWeights(keyword=2.4, splchar=2.2, literal=2.0),
        )
        a, _ = default.search(masked)
        b, _ = scaled.search(masked)
        assert a[0].structure == b[0].structure

    def test_inverted_ordering_can_flip_result(self):
        # With literals weighted ABOVE keywords, deleting a keyword
        # becomes the cheap move — the paper's ordering claim, inverted.
        keyword_heavy = tuple("SELECT x FROM x WHERE x = x".split())
        literal_heavy = tuple("SELECT x , x , x FROM x".split())
        index = StructureIndex.from_structures([keyword_heavy, literal_heavy])
        masked = tuple("SELECT x x x FROM x".split())
        normal = StructureSearchEngine(index)
        inverted = StructureSearchEngine(
            index, weights=TokenWeights(keyword=1.0, splchar=1.1, literal=1.5)
        )
        a, _ = normal.search(masked)
        b, _ = inverted.search(masked)
        da = weighted_edit_distance(masked, a[0].structure)
        db = weighted_edit_distance(masked, b[0].structure)
        assert da <= db or a[0].structure != b[0].structure
