"""The compile lowers structures straight into the level plan.

The oracle is the plan read off the dict-of-dicts node tries
(``StructureIndex.tries``) breadth-first: per length ascending, per
depth, each node's children in insertion order.  The lowering never
builds those tries, so any difference in row order, tokens, child
counts or sentence order shows here.
"""

from __future__ import annotations

import pytest

from repro.structure.indexer import StructureIndex

#: Insertion order interleaves prefixes: ``A`` gains children after
#: ``B`` appeared, and a length-3 trie repeats the pattern one deeper.
INTERLEAVED = [
    ("A", "X"),
    ("B", "Y"),
    ("A", "Z"),
    ("B", "Y", "C"),
    ("A", "X", "D"),
    ("B", "X", "C"),
    ("A", "X", "C"),
    ("B", "Y", "A"),
    ("A", "Z", "D"),
]


def _trie_rows(index: StructureIndex) -> list[list[tuple]]:
    """Per depth, (token, structure, trie length, child count) per node,
    by a breadth-first walk of the node tries."""
    rows: dict[int, list] = {}
    for length in sorted(index.tries):
        frontier = [index.tries[length].root]
        for depth in range(length + 1):
            rows.setdefault(depth, []).extend(
                (node.token or None, node.sentence, length, len(node.children))
                for node in frontier
            )
            frontier = [c for n in frontier for c in n.children.values()]
    return [rows[d] for d in sorted(rows)]


def _plan_rows(index: StructureIndex) -> list[list[tuple]]:
    compiled = index.compiled()
    tokens, sentences = compiled.tokens, compiled.sentences
    return [
        [
            (tokens[t] if t >= 0 else None, sentences[s] if s >= 0 else None,
             length, count)
            for t, s, length, count in zip(
                level.token_id.tolist(), level.sentence_id.tolist(),
                level.length.tolist(), level.child_count.tolist(),
            )
        ]
        for level in compiled.plan.levels
    ]


@pytest.fixture(params=["small", "interleaved"])
def index(request) -> StructureIndex:
    if request.param == "small":
        return request.getfixturevalue("small_index")
    return StructureIndex.from_structures(INTERLEAVED)


def test_plan_matches_a_breadth_first_walk_of_the_tries(index):
    assert _plan_rows(index) == _trie_rows(index)


def test_sentence_ids_are_structure_positions(index):
    compiled = index.compiled()
    assert compiled.sentences is index.structures
    sids = [level.sentence_id[level.sentence_id >= 0] for level in
            compiled.plan.levels]
    assert sorted(int(s) for part in sids for s in part) == list(
        range(len(index))
    )


def test_child_runs_are_contiguous(index):
    plan = index.compiled().plan
    for parent, level in zip(plan.levels, plan.levels[1:]):
        ends = parent.child_start + parent.child_count
        assert parent.child_start[0] == 0
        assert (parent.child_start[1:] == ends[:-1]).all()
        assert ends[-1] == level.token_id.size


def test_interleaved_siblings_keep_first_appearance_order():
    compiled = StructureIndex.from_structures(INTERLEAVED).compiled()
    depth2 = compiled.plan.levels[2]
    words = [compiled.tokens[t] for t in depth2.token_id.tolist()]
    # Length 2 (X, Z under A; Y under B), then length 3 (Y, X under B;
    # X, Z under A), parent-major.
    assert words == ["X", "Z", "Y", "Y", "X", "X", "Z"]
    leaves = depth2.sentence_id[depth2.length == 2].tolist()
    assert [INTERLEAVED[s] for s in leaves] == [
        ("A", "X"), ("A", "Z"), ("B", "Y")
    ]
