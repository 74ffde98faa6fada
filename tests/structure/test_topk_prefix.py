"""Prefix exactness: the top-j of a top-k search *is* the top-j search.

The result cache keeps one entry per masked string, at the widest ``k``
searched for it, and answers narrower requests by slicing it; the
pipeline searches the rank-0 transcription once at ``top_k`` and takes
its best match from the same list.  Both rest on this property, which
holds because offers are stable (ties keep the first offer) and every
prune — BDB's trie skips, the column-minimum prune, the kernel's band
and beam bound — only drops work strictly worse than the k-th best.  It
is checked here for every flag combination, with ``k`` from 1 to 8,
with the cold side run by the engine (``compiled``) and by the
depth-first oracle (``reference``).
"""

from functools import partial

import pytest

from repro.structure.reference import reference_search
from repro.structure.search import StructureSearchEngine
from tests.structure.test_compiled_parity import FLAG_COMBOS, _queries

KERNELS = ("compiled", "reference")
MAX_K = 8


def _flag_id(flags):
    return "-".join(name for name, on in flags.items() if on) or "none"


def _cold(index, kernel, flags):
    """A cold ``(masked, k) -> results`` search by ``kernel``."""
    if kernel == "reference":
        search = partial(reference_search, index, **flags)
    else:
        search = StructureSearchEngine(index, cache_results=False, **flags).search
    return lambda masked, k: search(masked, k)[0]


@pytest.mark.parametrize("flags", FLAG_COMBOS, ids=_flag_id)
@pytest.mark.parametrize("kernel", KERNELS)
class TestTopKPrefix:
    def test_cold_top_j_is_prefix_of_cold_top_k(self, small_index, kernel, flags):
        cold = _cold(small_index, kernel, flags)
        for masked in _queries(small_index, seed=41, count=10):
            tops = {k: cold(masked, k) for k in range(1, MAX_K + 1)}
            for k, results in tops.items():
                for j in range(1, k + 1):
                    assert tops[j] == results[:j], (masked, j, k)

    def test_cache_served_slice_equals_cold_search(self, small_index, kernel, flags):
        cold = _cold(small_index, kernel, flags)
        for masked in _queries(small_index, seed=43, count=6):
            cached = StructureSearchEngine(small_index, **flags)
            wide, wide_stats = cached.search(masked, k=MAX_K)
            assert not wide_stats.result_cache_hit
            for j in range(1, MAX_K + 1):
                results, stats = cached.search(masked, k=j)
                assert stats.result_cache_hit, (masked, j)
                assert results == cold(masked, j), (masked, j)
                # A hit replays the counters of the search that filled it.
                assert stats == wide_stats

    def test_wider_request_replaces_the_entry(self, small_index, kernel, flags):
        engine = StructureSearchEngine(small_index, **flags)
        masked = _queries(small_index, seed=47, count=1)[0]
        engine.search(masked, k=1)
        wide, stats = engine.search(masked, k=4)
        assert not stats.result_cache_hit  # k=1 cannot serve k=4
        assert engine._cache[masked][0] == 4
        assert wide == _cold(small_index, kernel, flags)(masked, 4)
        narrow, stats = engine.search(masked, k=2)
        assert stats.result_cache_hit
        assert narrow == wide[:2]
        assert len(engine._cache) == 1

    def test_span_search_replays_at_fixed_k(self, small_index, kernel, flags):
        # The session contract: at one k, a span search replays the same
        # results and the same stats, cached or not.
        cold = _cold(small_index, kernel, flags)

        def engine(**kwargs):
            return StructureSearchEngine(small_index, **flags, **kwargs)

        for masked in _queries(small_index, seed=53, count=4):
            for k in (1, 3, 5):
                cached = engine()
                first = cached.search_span(masked, k=k)
                again = cached.search_span(masked, k=k)
                assert again[1].result_cache_hit
                assert again == first
                assert engine(cache_results=False).search_span(masked, k=k) == first
                assert first[0] == cold(masked, k)
