"""Tie and edge-case parity of the one-pass search kernel.

The kernel walks every length trie in one pass over depth, keeps only
terminals at or under a running cutoff, then replays Box 2 (closest
length first, BDB skips, reversed level order) over what it kept.
These cases stress exactly that: unit weights, where many lengths and
structures tie; every ``k`` from 1 to 8; queries whose closest trie
holds fewer than ``k`` structures, so the beam bound comes from a
farther length or is infinite; BDB off; DAP, whose per-parent choice
and reorder must reproduce the depth-first walk's; and INV, alone and
with DAP.  Results must equal the oracle's — structures, float
distances and order — and so must ``tries_searched`` /
``tries_skipped``.  INV is also checked against its literal form: a
trie subindex built over the rarest keyword's postings.  Searches
seeded with ``near`` structures must equal the unseeded search and the
oracle whatever the list holds.
"""

from __future__ import annotations

import random

import pytest

from repro.structure.edit_distance import DEFAULT_WEIGHTS, UNIT_WEIGHTS
from repro.structure.indexer import StructureIndex
from repro.structure.reference import reference_search
from repro.structure.search import StructureSearchEngine

KS = tuple(range(1, 9))

VOCAB = ["SELECT", "FROM", "WHERE", "x", "*", "=", "<", ",", "(", ")",
         "AVG", "COUNT", "AND", "OR", "LIMIT", "ORDER", "BY", "NATURAL"]


def _queries(index, seed, count):
    """Index structures with 0-3 random edits, plus short token soup."""
    sentences = [s for t in index.tries.values() for s in t.sentences()]
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        if rng.random() < 0.75:
            tokens = list(rng.choice(sentences))
            for _ in range(rng.randint(0, 3)):
                op = rng.random()
                if op < 0.4 and len(tokens) > 1:
                    tokens.pop(rng.randrange(len(tokens)))
                elif op < 0.7:
                    tokens.insert(rng.randrange(len(tokens) + 1),
                                  rng.choice(VOCAB))
                else:
                    tokens[rng.randrange(len(tokens))] = rng.choice(VOCAB)
        else:
            tokens = [rng.choice(VOCAB) for _ in range(rng.randint(0, 6))]
        queries.append(tuple(tokens))
    return queries


def _assert_parity(index, queries, weights, **flags):
    comp = StructureSearchEngine(index, weights=weights, cache_results=False,
                                 **flags)
    for masked in queries:
        for k in KS:
            r_ref, s_ref = reference_search(index, masked, k, weights=weights,
                                            **flags)
            r_comp, s_comp = comp.search(masked, k=k)
            assert r_comp == r_ref, (masked, k)
            assert (s_comp.tries_searched, s_comp.tries_skipped) == (
                s_ref.tries_searched, s_ref.tries_skipped
            ), (masked, k)


FLAGS = [
    {"use_bdb": True},
    {"use_bdb": False},
    {"use_bdb": True, "use_inv": True},
    {"use_bdb": True, "use_dap": True},
    {"use_bdb": False, "use_dap": True},
    {"use_bdb": True, "use_dap": True, "use_inv": True},
]


def _flag_id(flags):
    return "-".join(name for name, on in flags.items() if on) or "none"


class TestTiesAndEdges:
    @pytest.mark.parametrize("flags", FLAGS, ids=_flag_id)
    @pytest.mark.parametrize(
        "weights", [UNIT_WEIGHTS, DEFAULT_WEIGHTS], ids=["unit", "default"]
    )
    def test_random_queries(self, small_index, weights, flags):
        _assert_parity(small_index, _queries(small_index, 3, 14), weights,
                       **flags)

    @pytest.mark.parametrize("flags", FLAGS, ids=_flag_id)
    @pytest.mark.parametrize(
        "weights", [UNIT_WEIGHTS, DEFAULT_WEIGHTS], ids=["unit", "default"]
    )
    def test_closest_trie_below_k(self, small_index, weights, flags):
        # The shortest tries of the small index hold 2 and 5 structures,
        # so queries of 3-6 tokens start from a trie with fewer than k.
        counts = small_index.compiled(weights).plan.structures
        shortest = min(counts)
        assert counts[shortest] < max(KS)
        queries = [q for q in _queries(small_index, 5, 60) if len(q) <= 6]
        queries += [(), ("SELECT",), ("SELECT", "x", "FROM"),
                    ("SELECT", "*", "FROM", "x", "x")]
        _assert_parity(small_index, queries, weights, **flags)

    @pytest.mark.parametrize("flags", FLAGS, ids=_flag_id)
    def test_no_trie_reaches_k(self, flags):
        # Seven structures over four lengths: the beam bound is infinite
        # for k = 8, so the pass runs every row unbanded.
        index = StructureIndex.from_structures([
            ("SELECT", "x", "FROM", "x"),
            ("SELECT", "*", "FROM", "x"),
            ("SELECT", "x", ",", "x", "FROM", "x"),
            ("SELECT", "x", "FROM", "x", "LIMIT", "x"),
            ("SELECT", "x", "FROM", "x", "WHERE", "x", "=", "x"),
            ("SELECT", "x", "FROM", "x", "WHERE", "x", "<", "x"),
            ("SELECT", "COUNT", "(", "*", ")", "FROM", "x", "WHERE", "x",
             "=", "x"),
        ])
        queries = _queries(index, 9, 20) + [("SELECT", "x", "FROM", "x", "=")]
        for weights in (UNIT_WEIGHTS, DEFAULT_WEIGHTS):
            _assert_parity(index, queries, weights, **flags)


class TestInvAgainstSubindex:
    """INV's literal form searches a trie subindex built over the rarest
    keyword's postings.  The keyword mask keeps exactly those
    structures, so every top-k distance list (and ``tries_*``) matches
    it.  Only the order within exact ties may differ: the subindex
    orders siblings by first insertion among the postings alone."""

    @pytest.mark.parametrize("use_bdb", [True, False], ids=["bdb", "no_bdb"])
    @pytest.mark.parametrize(
        "weights", [UNIT_WEIGHTS, DEFAULT_WEIGHTS], ids=["unit", "default"]
    )
    def test_distances_match_the_subindex_route(
        self, small_index, weights, use_bdb
    ):
        engine = StructureSearchEngine(small_index, weights=weights,
                                       use_bdb=use_bdb, use_inv=True,
                                       cache_results=False)
        subindexes = {}
        checked = 0
        for masked in _queries(small_index, 13, 60):
            keyword = small_index.rarest_keyword(masked)
            if keyword is None:
                continue
            if keyword not in subindexes:
                subindexes[keyword] = StructureIndex.from_structures(
                    small_index.inverted[keyword]
                )
            for k in KS:
                old, s_old = reference_search(subindexes[keyword], masked, k,
                                              weights=weights, use_bdb=use_bdb)
                new, s_new = engine.search(masked, k=k)
                assert [r.distance for r in new] == [
                    r.distance for r in old
                ], (masked, k)
                assert (s_new.tries_searched, s_new.tries_skipped) == (
                    s_old.tries_searched, s_old.tries_skipped
                ), (masked, k)
            checked += 1
        assert checked >= 10


def _one_token_edit(tokens, rng):
    """``tokens`` with one token deleted, inserted or replaced."""
    tokens = list(tokens)
    op = rng.random()
    if op < 0.33 and len(tokens) > 1:
        tokens.pop(rng.randrange(len(tokens)))
    elif op < 0.66:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(VOCAB))
    elif tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(VOCAB)
    return tuple(tokens)


def _near_lists(index, engine, masked, k, reference, rng):
    """Named ``near`` lists for one query: rank-0 top-k of a one-token
    edit, the query's own exact top-k (the seed then sits exactly on
    the k-th best), random index structures, fewer than ``k``,
    duplicates, and token soup that no trie holds."""
    sentences = [s for t in index.tries.values() for s in t.sentences()]
    edited, _ = engine.search(_one_token_edit(masked, rng), k=max(k, 5))
    exact = [r.structure for r in reference]
    return {
        "edit_top_k": [r.structure for r in edited],
        "exact_top_k": exact,
        "random": rng.sample(sentences, min(len(sentences), k + 3)),
        "fewer_than_k": exact[: k - 1],
        "duplicates": exact[:1] * (k + 1) + exact[1 : k - 1],
        "not_indexed": [tuple(rng.choice(VOCAB) for _ in range(4))
                        for _ in range(k)] + exact[: k - 1],
    }


NEAR_FLAGS = [
    {"use_bdb": True},
    {"use_bdb": False},
    {"use_bdb": True, "use_inv": True},
    {"use_bdb": False, "use_inv": True},
]


class TestNearSeeds:
    """``search(masked, k, near=...)`` starts the pass from the k-th
    smallest exact distance of the usable ``near`` structures instead of
    a beam probe.  Whatever ``near`` holds, results, float distances,
    order and ``tries_*`` must equal the unseeded search's and the
    oracle's."""

    @pytest.mark.parametrize("flags", NEAR_FLAGS, ids=_flag_id)
    @pytest.mark.parametrize(
        "weights", [UNIT_WEIGHTS, DEFAULT_WEIGHTS], ids=["unit", "default"]
    )
    def test_seeded_equals_unseeded_and_oracle(
        self, small_index, weights, flags
    ):
        engine = StructureSearchEngine(small_index, weights=weights,
                                       cache_results=False, **flags)
        rng = random.Random(17)
        seeded = 0
        for masked in _queries(small_index, 21, 12):
            keyword = (small_index.rarest_keyword(masked)
                       if flags.get("use_inv") else None)
            for k in KS:
                r_ref, s_ref = reference_search(small_index, masked, k,
                                                weights=weights, **flags)
                r_plain, s_plain = engine.search(masked, k=k)
                assert r_plain == r_ref, (masked, k)
                for name, near in _near_lists(
                    small_index, engine, masked, k, r_ref, rng
                ).items():
                    r_near, s_near = engine.search(masked, k=k, near=near)
                    assert r_near == r_ref, (masked, k, name)
                    assert (s_near.tries_searched, s_near.tries_skipped) == (
                        s_ref.tries_searched, s_ref.tries_skipped
                    ), (masked, k, name)
                    assert s_near.near_seeds in (0, 1)
                    assert s_near.near_seeds + s_near.beam_bound_updates <= 1
                    seeded += s_near.near_seeds
                    usable = {
                        s for s in near
                        if s in small_index.tries.get(len(s), {})
                        and (keyword is None or keyword in s)
                    }
                    assert s_near.near_seeds == (len(usable) >= k), (
                        masked, k, name
                    )
        assert seeded > 100

    @pytest.mark.parametrize("use_bdb", [True, False], ids=["bdb", "no_bdb"])
    def test_inv_drops_structures_without_the_keyword(
        self, small_index, use_bdb
    ):
        # The full search's top-k lies mostly outside INV's subtrie; as
        # seeds they would set a cutoff below the subtrie's k-th best.
        full = StructureSearchEngine(small_index, use_bdb=use_bdb,
                                     cache_results=False)
        inv = StructureSearchEngine(small_index, use_bdb=use_bdb,
                                    use_inv=True, cache_results=False)
        checked = 0
        for masked in _queries(small_index, 29, 40):
            keyword = small_index.rarest_keyword(masked)
            if keyword is None:
                continue
            for k in (1, 3, 5):
                outside, _ = full.search(masked, k=k + 4)
                near = [r.structure for r in outside]
                r_ref, s_ref = reference_search(small_index, masked, k,
                                                use_bdb=use_bdb, use_inv=True)
                r_near, s_near = inv.search(masked, k=k, near=near)
                assert r_near == r_ref, (masked, k)
                assert (s_near.tries_searched, s_near.tries_skipped) == (
                    s_ref.tries_searched, s_ref.tries_skipped
                ), (masked, k)
                if any(keyword not in s for s in near):
                    checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("use_inv", [False, True], ids=["dap", "dap-inv"])
    def test_dap_ignores_near(self, small_index, use_inv):
        # A near structure may lie outside the DAP subtrie, so DAP never
        # seeds: the search is the unseeded one, work counters included.
        engine = StructureSearchEngine(small_index, use_dap=True,
                                       use_inv=use_inv, cache_results=False)
        rng = random.Random(31)
        for masked in _queries(small_index, 37, 10):
            for k in KS:
                r_plain, s_plain = engine.search(masked, k=k)
                for near in _near_lists(
                    small_index, engine, masked, k, r_plain, rng
                ).values():
                    r_near, s_near = engine.search(masked, k=k, near=near)
                    assert r_near == r_plain, (masked, k)
                    assert s_near == s_plain, (masked, k)
                    assert s_near.near_seeds == 0

    def test_cache_hit_ignores_near(self, small_index):
        engine = StructureSearchEngine(small_index)
        masked = ("SELECT", "x", "FROM", "x", "WHERE", "x", "=", "x")
        first, s_first = engine.search(masked, k=3)
        near = [r.structure for r in first]
        again, s_again = engine.search(masked, k=1, near=near)
        assert s_again.result_cache_hit
        assert s_again.near_seeds == 0
        assert again == first[:1]
