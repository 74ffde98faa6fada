"""Trie similarity search with bidirectional bounds (paper Section 3.4).

Implements the search procedure of Box 2: for each candidate trie (one
per structure length), a depth-first traversal computes one dynamic-
programming column per node, pruning subtrees whose column minimum
already exceeds the best distance found; whole tries are skipped when
Proposition 1's lower bound beats the current best (BDB).  Candidate
lengths are visited closest-to-``m`` first, so the best-so-far tightens
quickly and BDB skips fire as early as possible.

Three search kernels produce bit-identical results:

- ``kernel="compiled"`` (default) is the fast path: one level-synchronous
  pass over depth, shared by every length trie, on the
  :class:`~repro.structure.compiled.LevelPlan` of the compiled index
  (each depth's nodes of all tries side by side), followed by a replay
  of Box 2 over the terminals the pass collected.  It vectorizes the DP
  across every node of a depth with numpy while keeping the sequential
  per-position recurrence, so each cell sees exactly the arithmetic
  (same operations, same order) the reference performs — distances are
  bit-identical, not just close.  It trades the node-level
  branch-and-bound prune for a per-depth one plus C-speed columns, and
  pays the numpy setup of a depth once for all tries rather than once
  per trie, which is a large net win (see
  ``benchmarks/bench_search_perf.py``).  The pass prunes against a
  running cutoff that only ever bounds the final k-th best distance
  from above, so it drops only strictly worse work; the replay makes
  the skip decisions and offers in the reference's order, so results,
  tie order and ``tries_*`` match it (the argument is spelled out on
  :meth:`StructureSearchEngine._search_vector`).  With BDB on it also
  applies Proposition 1 per length and *per cell*: a trie holds
  structures of one length ``L``, so every completion through DP cell
  ``(i, d)`` costs at least ``D[i] + |(m - i) - (L - d)| * w_min``; that
  bound narrows the DP band and drives the column-minimum prune.
  Because it forgoes the depth-first walk it cannot reproduce DAP's
  traversal-dependent tie order, so engines with ``use_dap`` drop to the
  flat kernel.
- ``kernel="flat"`` is the scalar lowering: a depth-first walk over the
  compiled first-child/next-sibling arrays — interned token ids,
  array-indexed weights, and a running column minimum so the
  ``min(col)`` prune needs no second pass.  Traversal, pruning, and all
  statistics match the reference exactly.
- ``kernel="reference"`` walks the original dict-of-dicts
  :class:`~repro.structure.trie.TrieNode` objects — the readable
  specification the compiled kernels are property-tested against.

Two approximate accuracy-latency trade-offs from Appendix D.3 are
available as flags:

- **DAP** (Diversity-Aware Pruning): among sibling branches that differ
  only in a token from the *prime superset* ({AVG,COUNT,SUM,MAX,MIN},
  {AND,OR}, {=,<,>}), only the locally best branch is explored.
- **INV** (Inverted Indexes): when the masked transcription contains an
  indexed keyword, the search runs over a (lazily built) trie subindex
  holding only the structures containing the rarest present keyword.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.grammar.vocabulary import PRIME_SUPERSET
from repro.structure.compiled import CompiledStructureIndex, CompiledTrie
from repro.structure.edit_distance import DEFAULT_WEIGHTS, TokenWeights
from repro.structure.indexer import StructureIndex
from repro.structure.trie import TrieNode

_INF = float("inf")


def _slack(cut: float) -> float:
    """Relative tolerance on comparisons against a prune cutoff: float
    rounding in the bound arithmetic may then only keep work, never
    drop a cell or row whose exact value ties the cutoff."""
    return 1e-9 * (1.0 + cut)


#: Search-kernel names (see module docstring).
KERNEL_COMPILED = "compiled"
KERNEL_FLAT = "flat"
KERNEL_REFERENCE = "reference"


@dataclass(frozen=True)
class SearchResult:
    """One matched structure with its weighted edit distance."""

    structure: tuple[str, ...]
    distance: float


@dataclass
class SearchStats:
    """Instrumentation for the ablation study (Figure 15).

    ``candidates_scored`` counts the terminal structures whose full
    distance was computed and offered to the top-k — on every path,
    with or without the INV subindex.

    All counters measure *work actually done*, so their values are
    kernel-specific: ``flat`` and ``reference`` agree exactly (same
    depth-first walk, same prunes), while the level-synchronous
    ``compiled`` kernel prunes per depth instead of per node and, with
    ``use_bdb``, with the per-cell length bound, so its
    ``nodes_visited`` / ``dp_cells`` / ``candidates_scored`` differ
    from theirs (higher or lower, by query and ``k``) for the same
    bit-identical results.  ``tries_searched`` / ``tries_skipped``
    agree across all three kernels: the compiled kernel replays Box 2's
    skip decisions after its pass.

    ``levels_visited`` / ``rows_pruned`` / ``beam_bound_updates`` are
    phases of the compiled kernel only (zero elsewhere).
    ``levels_visited`` counts the depths of its one pass over all
    tries, not levels per trie.  That pass prunes against a running
    cutoff instead of the top-k threshold trie by trie, so it can visit
    more nodes and cells, and score more candidates, than a per-trie
    walk, while running far fewer numpy steps.  ``kernel`` is
    the kernel that actually ran, and ``dap_fallback`` marks a search
    where a ``compiled`` engine with ``use_dap`` dropped to the flat
    kernel (DAP's tie order is traversal-dependent) — both excluded
    from equality so the flat/reference parity assertions stay exact.
    ``result_cache_hit`` marks stats returned from the LRU result cache
    (the counters then describe the original, cached search, which may
    have been a wider top-k than the request).
    """

    nodes_visited: int = 0
    dp_cells: int = 0
    tries_searched: int = 0
    tries_skipped: int = 0
    candidates_scored: int = 0
    levels_visited: int = 0
    rows_pruned: int = 0
    beam_bound_updates: int = 0
    inv_cache_hits: int = 0
    inv_cache_builds: int = 0
    kernel: str = field(default="", compare=False)
    dap_fallback: bool = field(default=False, compare=False)
    result_cache_hit: bool = field(default=False, compare=False)


@dataclass
class _TopK:
    """Bounded best-k list of (distance, structure)."""

    k: int
    entries: list[tuple[float, tuple[str, ...]]] = field(default_factory=list)

    def threshold(self) -> float:
        if len(self.entries) < self.k:
            return _INF
        return self.entries[-1][0]

    def offer(self, distance: float, structure: tuple[str, ...]) -> None:
        if distance >= self.threshold():
            return
        if any(s == structure for _, s in self.entries):
            return
        self.entries.append((distance, structure))
        self.entries.sort(key=lambda e: e[0])
        del self.entries[self.k :]

    def results(self) -> list[SearchResult]:
        return [SearchResult(structure=s, distance=d) for d, s in self.entries]


@dataclass
class StructureSearchEngine:
    """Similarity search over a :class:`StructureIndex`.

    Parameters
    ----------
    index:
        The length-partitioned structure index.
    weights:
        Edit-distance weights (WK/WS/WL).
    use_bdb:
        Apply Proposition 1's bidirectional bounds to skip tries
        (accuracy-preserving; on by default).
    use_dap / use_inv:
        The approximate optimizations (off by default, as in the paper).
    kernel:
        ``"compiled"`` (level-synchronous fast path, default),
        ``"flat"`` (scalar walk over the same compiled arrays), or
        ``"reference"`` (node-object specification); results are
        bit-identical across all three.
    max_cached_results / max_inv_subindexes:
        LRU bounds on the per-engine result cache and the per-keyword
        INV subindex cache, so long-running service batches cannot grow
        memory without limit.  Both LRUs sit behind one lock, so threads
        sharing an engine (the daemon's dispatch threads) never see an
        entry evicted between a lookup and its recency update; searches
        themselves run outside the lock.
    """

    index: StructureIndex
    weights: TokenWeights = DEFAULT_WEIGHTS
    use_bdb: bool = True
    use_dap: bool = False
    use_inv: bool = False
    cache_results: bool = True
    kernel: str = KERNEL_COMPILED
    max_cached_results: int = 4096
    max_inv_subindexes: int = 64
    _cache: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _inv_subindexes: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kernel not in (KERNEL_COMPILED, KERNEL_FLAT, KERNEL_REFERENCE):
            raise ValueError(f"unknown search kernel: {self.kernel!r}")

    def search(
        self, masked: tuple[str, ...] | list[str], k: int = 1
    ) -> tuple[list[SearchResult], SearchStats]:
        """Find the ``k`` structures closest to ``masked``.

        Returns the results (ascending distance) and search statistics.
        With ``use_dap``/``use_inv`` off, results are exact: identical to
        scoring every indexed structure.

        Repeated searches for the same masked string are served from a
        bounded LRU cache (masked transcriptions repeat heavily across a
        workload's n-best alternatives).  The cache holds one entry per
        masked string, with the widest ``k`` searched for it: a request
        for ``j <= k`` is answered by slicing that entry
        (``results[:j]``, stats flagged ``result_cache_hit``), and a
        wider request searches again and replaces it.  The slice is
        exact for every kernel and flag set: offers are stable and ties
        keep the first offer, and BDB and the column-minimum prunes only
        drop work strictly worse than the k-th best, so the top-``j`` of
        an exact top-``k`` search *is* the top-``j`` search
        (``tests/structure/test_topk_prefix.py``).  A sliced hit's stats
        describe the wider search that filled the entry.
        """
        masked = tuple(masked)
        k = max(k, 1)
        if self.cache_results:
            with self._lock:
                cached = self._cache.get(masked)
                if cached is not None and cached[0] >= k:
                    self._cache.move_to_end(masked)
                else:
                    cached = None
            if cached is not None:
                width, results, stats = cached
                hit_stats = copy.copy(stats)
                hit_stats.result_cache_hit = True
                return (results if width == k else results[:k]), hit_stats
        results, stats = self._search_uncached(masked, k)
        if self.cache_results:
            with self._lock:
                current = self._cache.get(masked)
                # Another thread may have cached a wider search meanwhile;
                # the entry keeps the widest k.
                if current is None or current[0] <= k:
                    self._cache[masked] = (k, results, stats)
                self._cache.move_to_end(masked)
                while len(self._cache) > self.max_cached_results:
                    self._cache.popitem(last=False)
        return results, stats

    def search_span(
        self, span_tokens: tuple[str, ...] | list[str], k: int = 1
    ) -> tuple[list[SearchResult], SearchStats]:
        """Span-scoped search: decode one clause span in isolation.

        The serving layer's incremental session decoder calls this once
        per clause span; the contract it adds over :meth:`search` is
        **replayability** — for a fixed engine, index and ``k``, the same
        span tokens always yield the same results *and the same stats
        counters* (an LRU result-cache hit replays the original
        counters, flagging only the ``compare=False``
        ``result_cache_hit`` bit; sessions search every span at one
        ``k``, so no wider entry ever serves them).  A cached span
        decode spliced into a later turn is therefore bit-identical to
        re-searching it, and a correction turn only pays for the clause
        it changed.  The compiled index's level plan and the engine's
        inverted subindexes are reused across spans automatically.
        """
        return self.search(span_tokens, k=k)

    def _search_uncached(
        self, masked: tuple[str, ...], k: int
    ) -> tuple[list[SearchResult], SearchStats]:
        stats = SearchStats()
        top = _TopK(k=k)

        if self.use_inv:
            subindex = self._rarest_keyword_subindex(masked, stats)
            if subindex is not None:
                self._search_index(subindex, masked, top, stats)
                return top.results(), stats

        self._search_index(self.index, masked, top, stats)
        return top.results(), stats

    def _rarest_keyword_subindex(
        self, masked: tuple[str, ...], stats: SearchStats
    ) -> StructureIndex | None:
        """INV: lazy per-keyword trie subindex over the rarest present
        keyword's postings (Appendix D.3), kept in a bounded LRU."""
        best_keyword = None
        best_size = None
        for token in masked:
            postings = self.index.inverted.get(token.upper())
            if postings is None:
                continue
            if best_size is None or len(postings) < best_size:
                best_keyword, best_size = token.upper(), len(postings)
        if best_keyword is None:
            return None
        with self._lock:
            subindex = self._inv_subindexes.get(best_keyword)
            if subindex is not None:
                self._inv_subindexes.move_to_end(best_keyword)
        if subindex is not None:
            stats.inv_cache_hits += 1
            return subindex
        stats.inv_cache_builds += 1
        subindex = StructureIndex.from_structures(
            self.index.inverted[best_keyword]
        )
        with self._lock:
            self._inv_subindexes[best_keyword] = subindex
            self._inv_subindexes.move_to_end(best_keyword)
            while len(self._inv_subindexes) > self.max_inv_subindexes:
                self._inv_subindexes.popitem(last=False)
        return subindex

    def _search_index(
        self,
        index: StructureIndex,
        masked: tuple[str, ...],
        top: _TopK,
        stats: SearchStats,
    ) -> None:
        """Box 2's closest-length-first ordering with BDB pruning over
        any length-partitioned index, dispatched to the active kernel."""
        if self.kernel != KERNEL_REFERENCE:
            compiled = index.compiled(self.weights)
            # DAP's result depends on depth-first traversal order (the
            # surviving prime branch is explored first), which the
            # level-synchronous kernel cannot reproduce; keep results
            # bit-identical by using the scalar flat walk for DAP.
            if self.kernel == KERNEL_FLAT or self.use_dap:
                stats.kernel = KERNEL_FLAT
                stats.dap_fallback = self.kernel == KERNEL_COMPILED
                self._search_flat(compiled, masked, top, stats)
            else:
                stats.kernel = KERNEL_COMPILED
                self._search_vector(compiled, masked, top, stats)
            return
        stats.kernel = KERNEL_REFERENCE
        lengths = self._search_order(len(masked), index.lengths)
        min_literal_weight = self.weights.min_weight
        for length in lengths:
            lower = abs(len(masked) - length) * min_literal_weight
            if self.use_bdb and lower >= top.threshold():
                stats.tries_skipped += 1
                continue
            stats.tries_searched += 1
            self._search_trie(index.tries[length].root, masked, top, stats)

    def _search_order(self, m: int, lengths: list[int]) -> list[int]:
        """Lengths interleaved by true distance from ``m``, closest first
        (ties prefer the shorter length), so the Proposition 1 lower
        bound — monotone in ``|j - m|`` — starts skipping as soon as the
        best-so-far allows."""
        return sorted(lengths, key=lambda j: (abs(j - m), j))

    # -- level-synchronous kernel (kernel="compiled") -----------------------

    def _search_vector(
        self,
        compiled: CompiledStructureIndex,
        masked: tuple[str, ...],
        top: _TopK,
        stats: SearchStats,
    ) -> None:
        """One breadth-first DP pass over every trie at once, then Box 2.

        **Pass.**  Depth by depth, the DP runs across every live node of
        every searched trie with numpy (the index's
        :class:`~repro.structure.compiled.LevelPlan` lays each depth's
        nodes side by side).  The recurrence stays sequential along the
        masked positions; every cell performs the reference's exact
        operations in the reference's exact order (a masked copy for
        matches, one add + one min otherwise), so distances are
        bit-identical.  A running cutoff ``c`` bounds the final k-th
        best distance ``T`` from above: it starts at a width-``k`` beam
        probe of the closest length holding ``k`` structures, and after
        each depth drops to the k-th best distance collected so far (any
        ``k`` genuine distances bound ``T``).  Work is dropped only when
        it is strictly worse than ``c``, hence than ``T``: with ``use_bdb``
        whole lengths whose Proposition 1 bound ``|m - L| * w_min``
        exceeds ``c``, and per cell the bound ``D[i] + |(m - i) - (L -
        d)| * w_min`` narrows the DP band and drives the column-minimum
        prune (each column shifts into ``ramp`` by its own ``L - d``);
        without BDB the plain ``|i - d| * w_min`` band and ``min_i D[i]``
        (comparisons carry a tiny relative slack, so float rounding can
        only keep work).  Cells outside the band keep their insert-only
        initialization, an upper bound; a cell on a path of true value
        ``<= c`` never leaves the band, so it is exact.  Each trie's
        terminals (its deepest level) are collected when their distance
        is ``<= c`` — exact values, and a superset of every terminal at
        distance ``<= T``.

        **Replay.**  Box 2 then runs over the collected terminals: for
        each length in :meth:`_search_order`, the BDB skip decision
        against the top-k threshold, then that length's terminals
        offered in reversed level order — the reference's stack-walk
        order.  The top-k depends only on the offers at distance ``<=
        T`` and their order (a worse offer is evicted before it can
        change which better one is accepted), and those are exactly the
        reference's.  The skip decisions agree too.  The replay's
        threshold before length ``j`` can differ from the reference's
        threshold ``t`` only if some terminal at distance ``<= t`` went
        uncollected, so ``c`` fell below ``t``.  The ``k`` distances
        that set ``c`` (beam or collected terminals) are then all below
        ``t``.  Had they all come from tries the reference searched
        before ``j``, ``t`` would be ``<= c``; a trie it skipped holds
        none below ``t``; so one comes from ``j`` or a later length,
        where every distance is at least ``j``'s Proposition 1 bound.
        That bound is below ``t``, and neither side skips ``j``.
        """
        m = len(masked)
        m1 = m + 1
        min_literal_weight = self.weights.min_weight
        # Proposition 1 per cell and per length: every trie holds
        # structures of exactly one length.  Gated on ``use_bdb`` (it
        # *is* BDB), so the ablation without BDB keeps the plain band
        # and column-minimum prune.
        cell_bound = self.use_bdb and min_literal_weight > 0
        token_ids = compiled.token_ids
        mw = np.array([self.weights.of(t) for t in masked], dtype=np.float64)
        # match_tab[i, tid]: does masked position i hold interned token tid?
        match_tab = np.zeros((m, max(len(compiled.tokens), 1)), dtype=bool)
        for i, token in enumerate(masked):
            tid = token_ids.get(token, -1)
            if tid >= 0:
                match_tab[i, tid] = True
        node_weight = np.array(compiled.token_weight, dtype=np.float64)
        first_col = np.empty(m1, dtype=np.float64)
        first_col[0] = 0.0
        np.add.accumulate(mw, out=first_col[1:])
        order_lengths = self._search_order(m, compiled.lengths)
        plan = compiled.level_plan()
        levels = plan.levels
        # ramp[j] = |j - m| * w_min: at depth d, a column of a length-L
        # trie has suffix bound ramp[i + L - d] at row i.
        max_length = len(levels) - 1
        ramp = np.abs(np.arange(m + max_length + 1, dtype=np.float64) - m)
        ramp *= min_literal_weight
        row_ids = np.arange(m1).reshape(m1, 1)
        mask_weights = mw.tolist()
        masked_ids = [token_ids.get(t, -1) for t in masked]
        buf = np.empty(0, dtype=np.float64)

        cut = _INF
        for length in order_lengths:
            if plan.structures[length] >= top.k:
                cut = self._beam_bound(
                    compiled.tries[length],
                    masked_ids, mask_weights, first_col.tolist(), top.k,
                )
                stats.beam_bound_updates += 1
                break
        roots = levels[0].length
        if cell_bound and cut != _INF:
            lower = np.abs(roots - m) * min_literal_weight
            alive = (lower <= cut + _slack(cut)).nonzero()[0]
        else:
            alive = np.arange(roots.size)
        prev = np.repeat(first_col.reshape(m1, 1), alive.size, axis=1)
        # Per length: collected terminal distances and sentence ids, in
        # level order; ``best`` holds the k smallest distances so far.
        collected: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        best = np.empty(0, dtype=np.float64)
        for depth in range(1, len(levels)):
            plevel = levels[depth - 1]
            counts = plevel.child_count[alive]
            width = int(counts.sum())
            if width == 0:
                break
            # Parent-major layout: the live nodes' children are
            # contiguous runs of this level, gathered by span arithmetic.
            ends = np.cumsum(counts)
            idx = np.repeat(plevel.child_start[alive] - ends + counts, counts)
            idx += np.arange(width)
            parent_cols = np.repeat(np.arange(alive.size), counts)
            level = levels[depth]
            token_id = level.token_id[idx]
            lens = level.length[idx]
            stats.levels_visited += 1
            if cut != _INF and min_literal_weight > 0:
                # Integer band half-width; the slack lets float rounding
                # only widen the band, never drop a cell at the cutoff.
                delta = int((cut + _slack(cut)) / min_literal_weight)
                if cell_bound:
                    # A length-L column's band is the rows i with
                    # |i - d| + |i - c| <= delta, c = d + (m - L): rows
                    # between d and c cost |m - L| and each row beyond
                    # them 2 more.  Both band edges are nonincreasing in
                    # L, and ``lens`` is sorted, so the union band runs
                    # from the longest live length's low edge to the
                    # shortest one's high edge.
                    gap = int(lens[-1]) - m
                    lo_off = min(0, -gap) - (delta - abs(gap)) // 2
                    gap = int(lens[0]) - m
                    hi_off = max(0, -gap) + (delta - abs(gap)) // 2
                else:
                    lo_off = -delta
                    hi_off = delta
                blo = max(depth + lo_off, 0)
                hi = min(depth + hi_off, m)
                if blo > hi:
                    # Every live column (and everything below it) lies
                    # outside the band: all exceed the cutoff.
                    break
            else:
                blo = 0
                hi = m
            parent = prev[:, parent_cols]
            col = parent + node_weight[token_id]  # rows start as inserts
            match = match_tab[:, token_id]
            if len(buf) < width:
                buf = np.empty(width, dtype=np.float64)
            dele = buf[:width]
            rows = list(col)
            parent_rows = list(parent)
            match_rows = list(match)
            for i in range(blo if blo > 0 else 1, hi + 1):
                row = rows[i]
                np.add(rows[i - 1], mask_weights[i - 1], out=dele)
                np.minimum(row, dele, out=row)
                np.copyto(row, parent_rows[i - 1], where=match_rows[i - 1])
            stats.nodes_visited += width
            stats.dp_cells += width * m1
            # The length-``depth`` trie's nodes lead the level (lengths
            # ascend) and are its terminals: collect, then tighten.
            leaves = 0
            if lens[0] == depth:
                leaves = int(np.searchsorted(lens, depth, side="right"))
                sids = level.sentence_id[idx[:leaves]]
                dists = col[m, :leaves]
                stats.candidates_scored += leaves
                sel = dists <= cut
                if not sel.all():
                    dists = dists[sel]
                    sids = sids[sel]
                if dists.size:
                    collected[depth] = (dists, sids)
                    best = np.sort(np.concatenate((best, dists)))[: top.k]
                    if best.size == top.k and best[-1] < cut:
                        cut = float(best[-1])
            if leaves == width:
                break
            # Column-minimum prune (Box 2) for the next level.  The
            # minimum is taken over band rows only: a completion with
            # true distance <= the cutoff runs through a cell whose true
            # value (plus, with the per-cell bound, its suffix bound) is
            # <= the cutoff, and such a cell is in-band and exact.
            if cut != _INF:
                band_rows = col[blo : hi + 1, leaves:]
                if cell_bound:
                    shift = lens[leaves:] - depth
                    band_rows = band_rows + ramp[row_ids[blo : hi + 1] + shift]
                keep = band_rows.min(axis=0) <= cut + _slack(cut)
                kidx = keep.nonzero()[0]
                stats.rows_pruned += width - leaves - int(kidx.size)
                if kidx.size == 0:
                    break
                kidx += leaves
                alive = idx[kidx]
                prev = col[:, kidx]
            else:
                alive = idx[leaves:]
                prev = col[:, leaves:]

        # Replay Box 2 over the collected terminals.
        sentences = compiled.sentences
        threshold = top.threshold
        offer = top.offer
        for length in order_lengths:
            lower = abs(m - length) * min_literal_weight
            if self.use_bdb and lower >= threshold():
                stats.tries_skipped += 1
                continue
            stats.tries_searched += 1
            terminals = collected.get(length)
            if terminals is None:
                continue
            dists, sids = terminals
            # Offers below the current threshold are the only ones that
            # can mutate the top-k (offer() rejects the rest and the
            # threshold only tightens), so the prefilter is exact;
            # refreshing it every chunk keeps the Python offer loop
            # short once the top-k fills.
            pos = int(dists.size)
            while pos > 0:
                at = pos - 256 if pos > 256 else 0
                chunk = dists[at:pos]
                for j in (chunk < threshold()).nonzero()[0][::-1]:
                    offer(float(chunk[j]), sentences[sids[at + j]])
                pos = at

    @staticmethod
    def _beam_bound(
        trie: CompiledTrie,
        masked_ids: list[int],
        mask_weights: list[float],
        first_col: list[float],
        k: int,
    ) -> float:
        """Upper bound on the k-th best distance via a width-``k`` beam.

        Walks one trie level by level keeping the ``k`` most promising
        partial columns (scalar DP, a few thousand cells at most).  Any
        ``k`` genuine terminal distances bound the k-th best overall
        from above, so the result is a valid prune cutoff no matter how
        the beam chose — accuracy is never at stake, only prune power.
        Returns ``inf`` when fewer than ``k`` terminals are reached.
        """
        fc = trie.first_child
        ns = trie.next_sibling
        tids = trie.token_id
        node_w = trie.node_weight
        sids = trie.sentence_id
        n = len(masked_ids)
        found: list[float] = []
        beam: list[tuple[float, int, list[float]]] = [(0.0, 0, first_col)]
        while beam:
            expanded: list[tuple[float, int, list[float]]] = []
            for _, node, col in beam:
                child = fc[node]
                while child >= 0:
                    w = node_w[child]
                    t = tids[child]
                    prev_im1 = col[0]
                    v = prev_im1 + w
                    ncol = [v]
                    append = ncol.append
                    for i in range(1, n + 1):
                        prev_i = col[i]
                        if masked_ids[i - 1] == t:
                            v = prev_im1
                        else:
                            a = prev_i + w
                            b = v + mask_weights[i - 1]
                            v = a if a < b else b
                        append(v)
                        prev_im1 = prev_i
                    if sids[child] >= 0:
                        found.append(v)
                    expanded.append((v, child, ncol))
                    child = ns[child]
            expanded.sort(key=lambda e: e[0])
            beam = expanded[:k]
        if len(found) < k:
            return _INF
        found.sort()
        return found[k - 1]

    # -- flat scalar kernel (kernel="flat", and DAP) ------------------------

    def _search_flat(
        self,
        compiled: CompiledStructureIndex,
        masked: tuple[str, ...],
        top: _TopK,
        stats: SearchStats,
    ) -> None:
        m = len(masked)
        lengths = self._search_order(m, compiled.lengths)
        min_literal_weight = self.weights.min_weight
        token_ids = compiled.token_ids
        weights_of = self.weights.of
        masked_ids = [token_ids.get(t, -1) for t in masked]
        mask_weights = [weights_of(t) for t in masked]
        # Per-id flag: does the id occur in the masked input?  Nodes whose
        # token cannot match anywhere take a comparison-free DP loop.
        matchable = bytearray(len(compiled.tokens))
        for tid in masked_ids:
            if tid >= 0:
                matchable[tid] = 1
        for length in lengths:
            lower = abs(m - length) * min_literal_weight
            if self.use_bdb and lower >= top.threshold():
                stats.tries_skipped += 1
                continue
            stats.tries_searched += 1
            self._search_flat_trie(
                compiled, compiled.tries[length],
                masked_ids, mask_weights, matchable, top, stats,
            )

    def _search_flat_trie(
        self,
        compiled: CompiledStructureIndex,
        trie: CompiledTrie,
        masked_ids: list[int],
        mask_weights: list[float],
        matchable: bytearray,
        top: _TopK,
        stats: SearchStats,
    ) -> None:
        """The flat-array DP kernel.

        Traversal order, pruning decisions, and all statistics are
        bit-identical to :meth:`_search_trie`; the loop body differs only
        in representation: interned integer ids instead of strings,
        array-indexed weights instead of dict lookups, and a running
        column minimum instead of a second ``min(col)`` pass.
        """
        n = len(masked_ids)
        n1 = n + 1
        fc = trie.first_child
        ns = trie.next_sibling
        tids = trie.token_id
        node_w = trie.node_weight
        sids = trie.sentence_id
        sentences = compiled.sentences
        prime = compiled.prime
        use_dap = self.use_dap
        offer = top.offer
        threshold = top.threshold
        pairs = list(zip(masked_ids, mask_weights))
        nodes = 0
        cells = 0

        first_col = [0.0] * n1
        acc = 0.0
        for i in range(n):
            acc += mask_weights[i]
            first_col[i + 1] = acc

        def descend(node: int, col: list[float]) -> None:
            nonlocal nodes, cells
            out = []
            child = fc[node]
            while child >= 0:
                w = node_w[child]
                t = tids[child]
                col_iter = iter(col)
                prev_im1 = next(col_iter)
                v = prev_im1 + w
                ncol = [v]
                append = ncol.append
                cmin = v
                if matchable[t]:
                    for (mi, mw), prev_i in zip(pairs, col_iter):
                        if mi == t:
                            v = prev_im1
                        else:
                            a = prev_i + w
                            b = v + mw
                            v = a if a < b else b
                        append(v)
                        if v < cmin:
                            cmin = v
                        prev_im1 = prev_i
                else:
                    for mw, prev_i in zip(mask_weights, col_iter):
                        a = prev_i + w
                        b = v + mw
                        v = a if a < b else b
                        append(v)
                        if v < cmin:
                            cmin = v
                out.append((child, ncol, cmin))
                child = ns[child]
            nodes += len(out)
            cells += len(out) * n1
            if use_dap:
                out = self._dap_filter_flat(out, tids, prime)
            for entry in reversed(out):
                c, ncol, cmin = entry
                sid = sids[c]
                if sid >= 0:
                    stats.candidates_scored += 1
                    offer(ncol[n], sentences[sid])
                if cmin > threshold():
                    continue
                descend(c, ncol)

        descend(0, first_col)
        stats.nodes_visited += nodes
        stats.dp_cells += cells

    def _dap_filter_flat(self, expanded, tids, prime):
        """Keep only the best branch among prime-superset siblings."""
        prime_entries = [e for e in expanded if prime[tids[e[0]]]]
        if len(prime_entries) <= 1:
            return expanded
        best = min(prime_entries, key=lambda e: e[1][-1])
        others = [e for e in expanded if not prime[tids[e[0]]]]
        return others + [best]

    # -- reference kernel ---------------------------------------------------

    def _search_trie(
        self,
        root: TrieNode,
        masked: tuple[str, ...],
        top: _TopK,
        stats: SearchStats,
    ) -> None:
        n = len(masked)
        weights_of = self.weights.of
        mask_weights = [weights_of(t) for t in masked]
        first_col = [0.0] * (n + 1)
        for i in range(1, n + 1):
            first_col[i] = first_col[i - 1] + mask_weights[i - 1]
        token_weight_cache: dict[str, float] = {}
        nodes = 0
        cells = 0

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
                    append(
                        insert_cost if insert_cost < delete_cost else delete_cost
                    )
            return col

        def expand(node: TrieNode, col: list[float]):
            nonlocal nodes, cells
            out = []
            for token, child in node.children.items():
                child_col = next_column(col, token)
                nodes += 1
                cells += n + 1
                out.append((child, child_col))
            if self.use_dap:
                out = self._dap_filter(out)
            return out

        stack = expand(root, first_col)
        while stack:
            node, col = stack.pop()
            if node.terminal and node.sentence is not None:
                stats.candidates_scored += 1
                top.offer(col[n], node.sentence)
            if min(col) > top.threshold():
                continue
            stack.extend(expand(node, col))
        stats.nodes_visited += nodes
        stats.dp_cells += cells

    def _dap_filter(
        self, expanded: list[tuple[TrieNode, list[float]]]
    ) -> list[tuple[TrieNode, list[float]]]:
        """Keep only the best branch among prime-superset siblings."""
        prime = [
            (child, col)
            for child, col in expanded
            if child.token in PRIME_SUPERSET
        ]
        if len(prime) <= 1:
            return expanded
        best = min(prime, key=lambda pair: pair[1][-1])
        others = [
            (child, col)
            for child, col in expanded
            if child.token not in PRIME_SUPERSET
        ]
        return others + [best]
