"""The test oracle of the structure search: Box 2 as a depth-first walk.

:func:`reference_search` is the readable specification the production
kernel (:class:`~repro.structure.search.StructureSearchEngine`) is
property-tested against: lengths closest to ``m`` first, Proposition
1's skip per length (BDB), and per length a stack walk over the
dict-of-dicts :class:`~repro.structure.trie.TrieNode` tries computing one
DP column per node, with the column-minimum prune against the top-k
threshold.  Results, float distances, tie order and ``tries_*`` must
match the kernel's exactly; the other counters describe this walk's own
work.  Nothing in the engine, the pipeline or the CLI can reach it.
"""

from __future__ import annotations

from repro.grammar.vocabulary import PRIME_SUPERSET
from repro.structure.edit_distance import DEFAULT_WEIGHTS, TokenWeights
from repro.structure.indexer import StructureIndex
from repro.structure.search import SearchResult, SearchStats, _TopK, search_order
from repro.structure.trie import TrieNode


def reference_search(
    index: StructureIndex,
    masked: tuple[str, ...] | list[str],
    k: int = 1,
    *,
    weights: TokenWeights = DEFAULT_WEIGHTS,
    use_bdb: bool = True,
    use_dap: bool = False,
    use_inv: bool = False,
) -> tuple[list[SearchResult], SearchStats]:
    """The ``k`` structures closest to ``masked``, by the depth-first walk.

    INV walks the full tries but skips every subtree holding no posting
    of the rarest present keyword, and visits only the lengths holding
    one.  DAP keeps, among a node's prime-superset children (after
    INV's skip), only the one with the smallest last DP cell, explored
    first.
    """
    masked = tuple(masked)
    top = _TopK(k=max(k, 1))
    stats = SearchStats()
    lengths = index.lengths
    keep = None
    keyword = index.rarest_keyword(masked) if use_inv else None
    if keyword is not None:
        # Every node on a posting's root path, by identity.
        keep = set()
        for posting in index.inverted[keyword]:
            node = index.tries[len(posting)].root
            for token in posting:
                node = node.children[token]
                keep.add(id(node))
        lengths = sorted({len(posting) for posting in index.inverted[keyword]})
    for length in search_order(len(masked), lengths):
        lower = abs(len(masked) - length) * weights.min_weight
        if use_bdb and lower >= top.threshold():
            stats.tries_skipped += 1
            continue
        stats.tries_searched += 1
        _search_trie(
            index.tries[length].root, masked, weights, use_dap, keep, top, stats
        )
    return top.results(), stats


def _search_trie(
    root: TrieNode,
    masked: tuple[str, ...],
    weights: TokenWeights,
    use_dap: bool,
    keep: set[int] | None,
    top: _TopK,
    stats: SearchStats,
) -> None:
    n = len(masked)
    weights_of = weights.of
    mask_weights = [weights_of(t) for t in masked]
    first_col = [0.0] * (n + 1)
    for i in range(1, n + 1):
        first_col[i] = first_col[i - 1] + mask_weights[i - 1]

    token_weight_cache: dict[str, float] = {}

    def next_column(prev_col: list[float], token: str) -> list[float]:
        tw = token_weight_cache.get(token)
        if tw is None:
            tw = weights_of(token)
            token_weight_cache[token] = tw
        col = [prev_col[0] + tw]
        append = col.append
        for i in range(1, n + 1):
            if masked[i - 1] == token:
                append(prev_col[i - 1])
            else:
                insert_cost = prev_col[i] + tw
                delete_cost = col[i - 1] + mask_weights[i - 1]
                append(insert_cost if insert_cost < delete_cost else delete_cost)
        return col

    def expand(node: TrieNode, col: list[float]):
        out = [
            (child, next_column(col, token))
            for token, child in node.children.items()
            if keep is None or id(child) in keep
        ]
        stats.nodes_visited += len(out)
        stats.dp_cells += len(out) * (n + 1)
        return _dap_filter(out) if use_dap else out

    stack = expand(root, first_col)
    while stack:
        node, col = stack.pop()
        if node.terminal and node.sentence is not None:
            stats.candidates_scored += 1
            top.offer(col[n], node.sentence)
        if min(col) > top.threshold():
            continue
        stack.extend(expand(node, col))


def _dap_filter(
    expanded: list[tuple[TrieNode, list[float]]]
) -> list[tuple[TrieNode, list[float]]]:
    """Keep only the best branch among prime-superset siblings."""
    prime = [pair for pair in expanded if pair[0].token in PRIME_SUPERSET]
    if len(prime) <= 1:
        return expanded
    best = min(prime, key=lambda pair: pair[1][-1])
    others = [pair for pair in expanded if pair[0].token not in PRIME_SUPERSET]
    return others + [best]
