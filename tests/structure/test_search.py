"""Tests for the structure search engine (Box 2, BDB, DAP, INV)."""

import random
import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structure.edit_distance import UNIT_WEIGHTS, weighted_edit_distance
from repro.structure.indexer import StructureIndex
from repro.structure.search import StructureSearchEngine


def brute_force(index, masked, k=1):
    scored = []
    for trie in index.tries.values():
        for sentence in trie.sentences():
            scored.append((weighted_edit_distance(masked, sentence), sentence))
    scored.sort(key=lambda pair: pair[0])
    return scored[:k]


class TestExactness:
    def test_paper_running_example(self, small_index):
        engine = StructureSearchEngine(small_index)
        masked = tuple("SELECT x FROM x x x = x".split())
        results, _ = engine.search(masked)
        assert results[0].structure == tuple("SELECT x FROM x WHERE x = x".split())
        assert results[0].distance == pytest.approx(2.2)

    def test_exact_match_distance_zero(self, small_index):
        engine = StructureSearchEngine(small_index)
        masked = tuple("SELECT x FROM x WHERE x = x".split())
        results, _ = engine.search(masked)
        assert results[0].structure == masked
        assert results[0].distance == 0.0

    def test_matches_brute_force_distance(self, small_index):
        engine = StructureSearchEngine(small_index)
        rng = random.Random(0)
        vocab = ["SELECT", "FROM", "WHERE", "x", "=", ",", "(", ")", "AVG", "<"]
        for _ in range(25):
            masked = tuple(
                rng.choice(vocab) for _ in range(rng.randint(1, 10))
            )
            results, _ = engine.search(masked)
            expected = brute_force(small_index, masked)
            assert results[0].distance == pytest.approx(expected[0][0])

    def test_topk_distances_match_brute_force(self, small_index):
        engine = StructureSearchEngine(small_index)
        masked = tuple("SELECT x FROM x x = x".split())
        results, _ = engine.search(masked, k=5)
        expected = brute_force(small_index, masked, k=5)
        assert [r.distance for r in results] == pytest.approx(
            [d for d, _ in expected]
        )

    def test_topk_sorted_and_distinct(self, small_index):
        engine = StructureSearchEngine(small_index)
        results, _ = engine.search(tuple("SELECT x FROM x".split()), k=10)
        distances = [r.distance for r in results]
        assert distances == sorted(distances)
        assert len({r.structure for r in results}) == len(results)


class TestBdb:
    def test_bdb_preserves_result(self, small_index):
        with_bdb = StructureSearchEngine(small_index, use_bdb=True)
        without = StructureSearchEngine(small_index, use_bdb=False)
        masked = tuple("SELECT x FROM x WHERE x < x".split())
        r1, s1 = with_bdb.search(masked)
        r2, s2 = without.search(masked)
        assert r1[0] == r2[0]

    def test_bdb_skips_tries(self, small_index):
        engine = StructureSearchEngine(small_index, use_bdb=True)
        _, stats = engine.search(tuple("SELECT x FROM x".split()))
        assert stats.tries_skipped > 0

    def test_bdb_reduces_work(self, small_index):
        with_bdb = StructureSearchEngine(small_index, use_bdb=True, cache_results=False)
        without = StructureSearchEngine(small_index, use_bdb=False, cache_results=False)
        masked = tuple("SELECT x FROM x".split())
        _, s1 = with_bdb.search(masked)
        _, s2 = without.search(masked)
        assert s1.nodes_visited < s2.nodes_visited


class TestApproximations:
    def test_dap_returns_valid_structure(self, small_index):
        engine = StructureSearchEngine(small_index, use_dap=True)
        masked = tuple("SELECT AVG ( x ) FROM x".split())
        results, _ = engine.search(masked)
        assert results
        assert results[0].distance >= 0

    def test_dap_prunes_prime_superset_siblings(self):
        # Structures differing only in the aggregate keyword: asked for
        # all five, the default explores every branch; DAP explores one
        # and returns one structure.
        index = StructureIndex.from_structures(
            ("SELECT", func, "(", "x", ")", "FROM", "x")
            for func in ("AVG", "SUM", "MAX", "MIN", "COUNT")
        )
        masked = tuple("SELECT AVG ( x ) FROM x".split())
        default = StructureSearchEngine(index, cache_results=False)
        dap = StructureSearchEngine(index, use_dap=True, cache_results=False)
        r1, s1 = default.search(masked, k=5)
        r2, s2 = dap.search(masked, k=5)
        assert s2.nodes_visited < s1.nodes_visited
        assert len(r1) == 5
        assert [r.structure for r in r2] == [masked]

    def test_dap_can_lose_accuracy(self):
        # The pruned branch may hold the true best: DAP trades accuracy.
        index = StructureIndex.from_structures([
            ("SELECT", "AVG", "(", "x", ")", "FROM", "x"),
            ("SELECT", "SUM", "(", "x", ")", "FROM", "x"),
        ])
        dap = StructureSearchEngine(index, use_dap=True, cache_results=False)
        results, _ = dap.search(tuple("SELECT SUM ( x ) FROM x".split()))
        # Whatever branch survives, a result is always returned.
        assert len(results) == 1

    def test_inv_uses_postings(self, small_index):
        engine = StructureSearchEngine(small_index, use_inv=True)
        masked = tuple("SELECT x FROM x LIMIT x".split())
        results, stats = engine.search(masked)
        assert stats.candidates_scored > 0  # searched the LIMIT postings
        assert stats.candidates_scored < len(small_index)
        assert results[0].structure == masked

    def test_inv_mask_built_once(self, small_index):
        # The keyword masks are built on the first INV search and shared
        # by every later search and every weight variant.
        compiled = StructureIndex.from_structures(
            s for t in small_index.tries.values() for s in t.sentences()
        ).compiled()
        index = StructureIndex.from_compiled(compiled)
        engine = StructureSearchEngine(index, use_inv=True, cache_results=False)
        assert compiled._masks == []
        engine.search(tuple("SELECT x FROM x LIMIT x".split()))
        masks = compiled.keyword_masks()
        engine.search(tuple("SELECT x FROM x GROUP BY x".split()))
        assert compiled._masks == [masks]
        assert compiled.reweighted(UNIT_WEIGHTS).keyword_masks() is masks

    def test_inv_falls_back_without_keywords(self, small_index):
        engine = StructureSearchEngine(small_index, use_inv=True)
        masked = tuple("SELECT x FROM x".split())
        _, stats = engine.search(masked)
        # No indexed keyword present: the full index is searched (every
        # length either visited or BDB-skipped), and scored candidates
        # are still counted.
        assert stats.tries_searched + stats.tries_skipped == len(
            small_index.lengths
        )
        assert stats.candidates_scored > 0
        assert stats.nodes_visited > 0


class TestCache:
    def test_cache_hit_returns_same(self, small_index):
        engine = StructureSearchEngine(small_index)
        masked = tuple("SELECT x FROM x WHERE x = x".split())
        first_results, first_stats = engine.search(masked)
        second_results, second_stats = engine.search(masked)
        assert first_results is second_results  # served from cache
        assert first_stats == second_stats

    def test_result_cache_evicts_least_recent(self, small_index):
        engine = StructureSearchEngine(small_index, max_cached_results=2)
        a = tuple("SELECT x FROM x".split())
        b = tuple("SELECT x FROM x WHERE x = x".split())
        c = tuple("SELECT x FROM x LIMIT x".split())
        engine.search(a)
        engine.search(b)
        engine.search(a)  # refresh a: b is now least recent
        engine.search(c)  # evicts b
        assert len(engine._cache) == 2
        assert a in engine._cache
        assert c in engine._cache
        assert b not in engine._cache


class _EvictOnHit(OrderedDict):
    """An LRU map whose next hit lets another thread run ``work`` before
    ``get`` returns — the interleaving in which a thread sharing the
    engine evicts the key between a lookup and its recency update.  The
    helper thread gets half a second: an engine that guards the LRU
    keeps it blocked until the hit is done, an unguarded one lets it
    finish."""

    def __init__(self, work):
        super().__init__()
        self.work = work
        self.armed = False
        self.helper = None

    def get(self, key, default=None):
        value = super().get(key, default)
        if self.armed and value is not None:
            self.armed = False
            self.helper = threading.Thread(target=self.work)
            self.helper.start()
            self.helper.join(timeout=0.5)
        return value


class TestCacheThreadSafety:
    def test_result_hit_survives_concurrent_eviction(self, small_index):
        engine = StructureSearchEngine(small_index, max_cached_results=2)
        a = tuple("SELECT x FROM x".split())
        others = [tuple("SELECT x FROM x WHERE x = x".split()),
                  tuple("SELECT x FROM x LIMIT x".split())]
        expected, _ = engine.search(a)
        lru = _EvictOnHit(lambda: [engine.search(o) for o in others])
        lru.update(engine._cache)
        engine._cache = lru
        lru.armed = True
        results, stats = engine.search(a)
        lru.helper.join()
        assert results == expected
        assert stats.result_cache_hit
        assert len(engine._cache) == 2


class TestCacheStress:
    def test_threads_sharing_a_tiny_lru(self, small_index):
        # More threads than cores, a short switch interval and two cache
        # slots for three keys: lookups race evictions constantly.
        keys = [tuple(text.split()) for text in (
            "SELECT x FROM x", "SELECT x FROM x LIMIT x",
            "SELECT x FROM x WHERE x = x",
        )]
        expected = {
            key: StructureSearchEngine(small_index).search(key, k=2)[0]
            for key in keys
        }
        engine = StructureSearchEngine(small_index, max_cached_results=2)
        errors: list[BaseException] = []

        def work(worker: int) -> None:
            try:
                for step in range(150):
                    key = keys[(worker + step) % len(keys)]
                    k = 1 + (step % 2)
                    results, _ = engine.search(key, k=k)
                    assert results == expected[key][:k]
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(engine._cache) <= 2


class TestRandomizedAgainstBruteForce:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                ["SELECT", "FROM", "WHERE", "x", "=", "<", ",", "(", ")", "SUM"]
            ),
            min_size=1,
            max_size=9,
        )
    )
    def test_search_equals_brute_force(self, small_index, masked):
        engine = StructureSearchEngine(small_index, cache_results=False)
        results, _ = engine.search(tuple(masked))
        expected = brute_force(small_index, tuple(masked))
        assert results[0].distance == pytest.approx(expected[0][0])
