"""Randomized parity: the search kernel vs the oracle vs brute force.

The level-synchronous kernel promises results *bit-identical* to the
depth-first oracle, :func:`repro.structure.reference.reference_search`
— equal distances (as floats, not approximately), equal structures,
equal top-k order — under every flag combination and weight setting,
plus identical ``tries_searched`` / ``tries_skipped`` (its
nodes/cells/candidates counters measure its own work, see
:class:`repro.structure.search.SearchStats`).
"""

import random

import pytest

from functools import partial

from repro.structure.edit_distance import TokenWeights, weighted_edit_distance
from repro.structure.reference import reference_search
from repro.structure.search import StructureSearchEngine

#: Every optimization-flag combination exercised by the parity sweep.
FLAG_COMBOS = [
    {"use_bdb": True, "use_dap": False, "use_inv": False},
    {"use_bdb": False, "use_dap": False, "use_inv": False},
    {"use_bdb": True, "use_dap": True, "use_inv": False},
    {"use_bdb": True, "use_dap": False, "use_inv": True},
    {"use_bdb": True, "use_dap": True, "use_inv": True},
]

KS = (1, 3, 5)


def _queries(index, seed, count):
    """Perturbed index sentences plus token soup — canonical tokens only."""
    sentences = [s for t in index.tries.values() for s in t.sentences()]
    vocab = ["SELECT", "FROM", "WHERE", "x", "=", "<", ",", "(", ")", "SUM",
             "AVG", "AND", "LIMIT", "GROUP", "BY"]
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        if rng.random() < 0.7:
            s = list(rng.choice(sentences))
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.5 and len(s) > 1:
                    s.pop(rng.randrange(len(s)))
                else:
                    s.insert(rng.randrange(len(s) + 1), rng.choice(vocab))
        else:
            s = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
        queries.append(tuple(s))
    return queries


def _engines(index, weights=None, **flags):
    """The oracle (``(masked, k) -> (results, stats)``) and the engine."""
    if weights is not None:
        flags["weights"] = weights
    return (
        partial(reference_search, index, **flags),
        StructureSearchEngine(index, cache_results=False, **flags),
    )


def _assert_parity(ref, comp, masked, k):
    r_ref, s_ref = ref(masked, k)
    r_comp, s_comp = comp.search(masked, k=k)
    # Bit-identical results: same structures, same float distances,
    # same order.  No pytest.approx on purpose.
    assert r_comp == r_ref, (masked, k)
    # The kernel agrees on trie-level decisions.
    assert s_comp.tries_searched == s_ref.tries_searched, (masked, k)
    assert s_comp.tries_skipped == s_ref.tries_skipped, (masked, k)
    return r_ref


def _brute_force(index, masked, k, weights):
    scored = []
    for trie in index.tries.values():
        for sentence in trie.sentences():
            scored.append(
                (weighted_edit_distance(masked, sentence, weights), sentence)
            )
    scored.sort(key=lambda pair: pair[0])
    return scored[:k]


class TestKernelParity:
    @pytest.mark.parametrize(
        "flags", FLAG_COMBOS, ids=lambda f: "-".join(
            name for name, on in f.items() if on
        ) or "none",
    )
    def test_all_kernels_agree(self, small_index, flags):
        ref, comp = _engines(small_index, **flags)
        for masked in _queries(small_index, seed=7, count=12):
            for k in KS:
                _assert_parity(ref, comp, masked, k)

    def test_exact_configs_match_brute_force(self, small_index):
        # DAP and INV are approximate by design; every other combination
        # must return exactly the brute-force top-k distances.
        weights = TokenWeights()
        for use_bdb in (True, False):
            ref, comp = _engines(small_index, use_bdb=use_bdb)
            for masked in _queries(small_index, seed=11, count=8):
                for k in KS:
                    results = _assert_parity(ref, comp, masked, k)
                    expected = _brute_force(small_index, masked, k, weights)
                    assert [r.distance for r in results] == [
                        d for d, _ in expected
                    ], (masked, k)

    def test_parity_under_random_weights(self, small_index):
        rng = random.Random(23)
        for _ in range(4):
            weights = TokenWeights(
                keyword=round(rng.uniform(0.5, 3.0), 2),
                splchar=round(rng.uniform(0.5, 3.0), 2),
                literal=round(rng.uniform(0.5, 3.0), 2),
            )
            ref, comp = _engines(small_index, weights=weights)
            for masked in _queries(small_index, seed=29, count=6):
                for k in KS:
                    results = _assert_parity(ref, comp, masked, k)
                    expected = _brute_force(small_index, masked, k, weights)
                    assert [r.distance for r in results] == [
                        d for d, _ in expected
                    ], (masked, k, weights)

    def test_compiled_counts_its_own_work(self, small_index):
        # The kernel's work counters are its own (documented)
        # semantics, but they must still be populated on every search.
        _, comp = _engines(small_index)
        for masked in _queries(small_index, seed=37, count=5):
            _, stats = comp.search(masked, k=3)
            assert stats.nodes_visited > 0
            assert stats.dp_cells > 0
            assert stats.candidates_scored > 0


def _length_offset_queries(index, rng, count):
    """Index sentences edited to lie 0-4 tokens away from a trie length.

    The per-cell length bound of the kernel depends on how far
    the query length is from each trie's length, so the sweep walks that
    gap explicitly: each query starts from a structure of length ``L``
    and is grown or shrunk to ``L + offset`` with ``|offset| <= 4``,
    with a few same-length substitutions mixed in.
    """
    sentences = [s for t in index.tries.values() for s in t.sentences()]
    vocab = ["SELECT", "FROM", "WHERE", "x", "=", "<", ">", ",", "(", ")",
             "AVG", "COUNT", "AND", "OR", "LIMIT", "ORDER", "BY", "NATURAL"]
    queries = []
    for _ in range(count):
        tokens = list(rng.choice(sentences))
        offset = rng.randint(-4, 4)
        for _ in range(rng.randint(0, 2)):
            tokens[rng.randrange(len(tokens))] = rng.choice(vocab)
        for _ in range(abs(offset)):
            if offset > 0:
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(vocab))
            elif tokens:
                tokens.pop(rng.randrange(len(tokens)))
        queries.append(tuple(tokens))
    return queries


class TestPerCellLengthBound:
    """The kernel's per-cell bound ``D[i] + |(m-i)-(L-d)|*w_min``
    narrows its band and prunes rows; it must never change a result."""

    @pytest.mark.parametrize("decimals", [1, 2])
    @pytest.mark.parametrize(
        "flags", FLAG_COMBOS, ids=lambda f: "-".join(
            name for name, on in f.items() if on
        ) or "none",
    )
    def test_random_weights_and_length_gaps(self, small_index, flags, decimals):
        rng = random.Random(1000 * decimals + len(str(flags)))
        for _ in range(3):
            weights = TokenWeights(
                keyword=round(rng.uniform(0.3, 3.0), decimals),
                splchar=round(rng.uniform(0.3, 3.0), decimals),
                literal=round(rng.uniform(0.3, 3.0), decimals),
            )
            ref, comp = _engines(small_index, weights=weights, **flags)
            for masked in _length_offset_queries(small_index, rng, 6):
                for k in KS:
                    _assert_parity(ref, comp, masked, k)
