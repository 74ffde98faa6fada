"""Trie similarity search with bidirectional bounds (paper Section 3.4).

Implements the search procedure of Box 2: for each candidate trie (one
per structure length), a depth-first traversal computes one dynamic-
programming column per node, pruning subtrees whose column minimum
already exceeds the best distance found; whole tries are skipped when
Proposition 1's lower bound beats the current best (BDB).  Candidate
lengths are visited closest-to-``m`` first, so the best-so-far tightens
quickly and BDB skips fire as early as possible.

One kernel runs every search: a level-synchronous pass over depth,
shared by every length trie, on the
:class:`~repro.structure.compiled.LevelPlan` of the compiled index (each
depth's nodes of all tries side by side), followed by a replay of Box 2
over the terminals the pass collected.  It vectorizes the DP across
every node of a depth with numpy while keeping the sequential
per-position recurrence, so each cell sees exactly the arithmetic (same
operations, same order) of the depth-first walk — distances are
bit-identical, not just close.  It trades the node-level branch-and-
bound prune for a per-depth one plus C-speed columns, and pays the
numpy setup of a depth once for all tries rather than once per trie.
The pass prunes against a running cutoff that only ever bounds the
final k-th best distance from above, so it drops only strictly worse
work; the replay makes the skip decisions and offers in Box 2's
depth-first order, so results, tie order and ``tries_*`` match it (the
argument is spelled out on :meth:`StructureSearchEngine._search_vector`).
With BDB on it also applies Proposition 1 per length and *per cell*: a
trie holds structures of one length ``L``, so every completion through
DP cell ``(i, d)`` costs at least ``D[i] + |(m - i) - (L - d)| * w_min``;
that bound narrows the DP band and drives the column-minimum prune.

The depth-first walk itself lives on as the test oracle,
:func:`repro.structure.reference.reference_search`, which the kernel is
property-tested against under every flag set.

Two approximate accuracy-latency trade-offs from Appendix D.3 are
available as flags, and both run inside the one pass:

- **DAP** (Diversity-Aware Pruning): among sibling branches that differ
  only in a token from the *prime superset* ({AVG,COUNT,SUM,MAX,MIN},
  {AND,OR}, {=,<,>}), only the locally best branch — the smallest last
  DP cell — is explored.
- **INV** (Inverted Indexes): when the masked transcription contains an
  indexed keyword, the search runs over only the structures containing
  the rarest present keyword: the pass drops every node whose
  :class:`~repro.structure.compiled.KeywordMasks` bit for it is clear.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.structure.compiled import CompiledStructureIndex
from repro.structure.edit_distance import DEFAULT_WEIGHTS, TokenWeights
from repro.structure.indexer import StructureIndex

_INF = float("inf")


def _slack(cut: float) -> float:
    """Relative tolerance on comparisons against a prune cutoff: float
    rounding in the bound arithmetic may then only keep work, never
    drop a cell or row whose exact value ties the cutoff."""
    return 1e-9 * (1.0 + cut)


def search_order(m: int, lengths: list[int]) -> list[int]:
    """Lengths interleaved by true distance from ``m``, closest first
    (ties prefer the shorter length), so the Proposition 1 lower bound
    — monotone in ``|j - m|`` — starts skipping as soon as the
    best-so-far allows."""
    return sorted(lengths, key=lambda j: (abs(j - m), j))


@dataclass(frozen=True)
class SearchResult:
    """One matched structure with its weighted edit distance."""

    structure: tuple[str, ...]
    distance: float


@dataclass
class SearchStats:
    """Instrumentation for the ablation study (Figure 15).

    ``candidates_scored`` counts the terminal structures whose full
    distance was computed and offered to the top-k.

    All counters measure *work actually done*.  The kernel prunes per
    depth instead of per node and, with ``use_bdb``, with the per-cell
    length bound, so its ``nodes_visited`` / ``dp_cells`` /
    ``candidates_scored`` differ from the depth-first oracle's (higher
    or lower, by query and ``k``) for the same bit-identical results.
    ``tries_searched`` / ``tries_skipped`` agree with the oracle's: the
    kernel replays Box 2's skip decisions after its pass.

    ``levels_visited`` counts the depths of the one pass over all
    tries, not levels per trie.  That pass prunes against a running
    cutoff instead of the top-k threshold trie by trie, so it can visit
    more nodes and cells, and score more candidates, than a per-trie
    walk, while running far fewer numpy steps.  ``rows_pruned`` and
    ``beam_bound_updates`` count its column-minimum prunes and its beam
    probes, and ``near_seeds`` the searches whose cutoff came from the
    caller's ``near`` structures instead of a beam probe (the oracle
    leaves all three zero).  ``result_cache_hit`` marks
    stats returned from the LRU result cache (the counters then
    describe the original, cached search, which may have been a wider
    top-k than the request).
    """

    nodes_visited: int = 0
    dp_cells: int = 0
    tries_searched: int = 0
    tries_skipped: int = 0
    candidates_scored: int = 0
    levels_visited: int = 0
    rows_pruned: int = 0
    beam_bound_updates: int = 0
    near_seeds: int = 0
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
    max_cached_results:
        LRU bound on the per-engine result cache, so long-running
        service batches cannot grow memory without limit.  The LRU sits
        behind a lock, so threads sharing an engine (the daemon's
        dispatch threads) never see an entry evicted between a lookup
        and its recency update; searches themselves run outside the
        lock.
    """

    index: StructureIndex
    weights: TokenWeights = DEFAULT_WEIGHTS
    use_bdb: bool = True
    use_dap: bool = False
    use_inv: bool = False
    cache_results: bool = True
    max_cached_results: int = 4096
    _cache: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def search(
        self,
        masked: tuple[str, ...] | list[str],
        k: int = 1,
        near: Iterable[tuple[str, ...]] = (),
    ) -> tuple[list[SearchResult], SearchStats]:
        """Find the ``k`` structures closest to ``masked``.

        Returns the results (ascending distance) and search statistics.
        With ``use_dap``/``use_inv`` off, results are exact: identical to
        scoring every indexed structure.

        ``near`` optionally names structures expected to lie close to
        ``masked`` (the pipeline passes the rank-0 alternative's top-k
        when it searches the other n-best alternatives).  It is a hint
        for the kernel's starting cutoff only: results, distances,
        order and ``tries_*`` are the same with or without it, and a
        cache hit ignores it (see :meth:`_search_vector`).

        Repeated searches for the same masked string are served from a
        bounded LRU cache (masked transcriptions repeat heavily across a
        workload's n-best alternatives).  The cache holds one entry per
        masked string, with the widest ``k`` searched for it: a request
        for ``j <= k`` is answered by slicing that entry
        (``results[:j]``, stats flagged ``result_cache_hit``), and a
        wider request searches again and replaces it.  The slice is
        exact for every flag set: offers are stable and ties
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
        results, stats = self._search_uncached(masked, k, near)
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
        ``k``, so no wider entry ever serves them, and spans are never
        near-seeded, so no seed changes their counters).  A cached span
        decode spliced into a later turn is therefore bit-identical to
        re-searching it, and a correction turn only pays for the clause
        it changed.  The compiled index's level plan and keyword masks
        are reused across spans automatically.
        """
        return self.search(span_tokens, k=k)

    def _search_uncached(
        self,
        masked: tuple[str, ...],
        k: int,
        near: Iterable[tuple[str, ...]] = (),
    ) -> tuple[list[SearchResult], SearchStats]:
        stats = SearchStats()
        top = _TopK(k=k)
        keyword = self.index.rarest_keyword(masked) if self.use_inv else None
        self._search_vector(
            self.index.compiled(self.weights), masked, keyword, top, stats,
            near,
        )
        return top.results(), stats

    # -- the level-synchronous kernel ---------------------------------------

    def _search_vector(
        self,
        compiled: CompiledStructureIndex,
        masked: tuple[str, ...],
        keyword: str | None,
        top: _TopK,
        stats: SearchStats,
        near: Iterable[tuple[str, ...]] = (),
    ) -> None:
        """One breadth-first DP pass over every trie at once, then Box 2.

        **Pass.**  Depth by depth, the DP runs across every live node of
        every searched trie with numpy (the index's
        :class:`~repro.structure.compiled.LevelPlan` lays each depth's
        nodes side by side).  The recurrence stays sequential along the
        masked positions; every cell performs the depth-first walk's
        exact operations in its exact order (a masked copy for matches,
        one add + one min otherwise), so distances are bit-identical.  A
        running cutoff ``c`` bounds the final k-th best distance ``T``
        from above: it starts at a width-``k`` beam probe of the closest
        length holding ``k`` structures — or, when ``near`` holds at
        least ``k`` usable structures, at the k-th smallest of their
        exact distances (:meth:`_near_bound`), and the probe is skipped
        — and after each depth drops to the k-th best distance
        collected so far (any ``k`` genuine distances of distinct
        structures inside the searched subtrie bound ``T``).  Work is
        dropped only when it is strictly worse than ``c``, hence than
        ``T``: with ``use_bdb`` whole lengths whose Proposition 1 bound
        ``|m - L| * w_min`` exceeds ``c``, and per cell the bound
        ``D[i] + |(m - i) - (L - d)| * w_min`` narrows the DP band and
        drives the column-minimum
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
        each length in :func:`search_order`, the BDB skip decision
        against the top-k threshold, then that length's terminals
        offered in reversed level order — the depth-first walk's
        stack order.  The top-k depends only on the offers at distance
        ``<= T`` and their order (a worse offer is evicted before it can
        change which better one is accepted), and those are exactly the
        walk's.  The skip decisions agree too.  The replay's threshold
        before length ``j`` can differ from the walk's threshold ``t``
        only if some terminal at distance ``<= t`` went uncollected, so
        ``c`` fell below ``t``.  The ``k`` distances that set ``c``
        (beam, near seed or collected terminals) are then all below
        ``t``.  Had they all come from tries the walk searched before
        ``j``, ``t`` would be ``<= c``; a trie it skipped holds none
        below ``t``; so one comes from ``j`` or a later length, where
        every distance is at least ``j``'s Proposition 1 bound.  That
        bound is below ``t``, and neither side skips ``j``.

        **Near seed.**  Both arguments use only that the starting
        cutoff is the k-th smallest of ``k`` genuine distances of
        distinct structures inside the searched subtrie, so a seed
        from ``near`` keeps them whole if it is one.  :meth:`_near_bound`
        keeps distinct structures found in the tries — under INV only
        those holding ``keyword`` — and computes each distance with the
        pass's per-cell arithmetic in its order (:func:`_column`, the
        beam's step), so each is the exact value the pass would
        collect.  That exactness matters: terminals are collected at
        ``<= c`` with no slack, so a seed summed in any other order
        could land one ulp below ``T`` and drop a terminal at ``T``.
        DAP never seeds (``near`` is ignored), since a near structure
        may lie outside the DAP subtrie.

        **INV and DAP** each cut the tries down to a fixed subtrie, and
        the argument above holds for the pass over that subtrie.  INV
        (``keyword`` set) keeps the nodes whose keyword mask holds
        ``keyword`` — exactly the tries of its postings, in the full
        tries' order — and searches, probes and replays only the
        lengths holding a posting.  DAP keeps, per parent, only the
        prime child with the smallest last DP cell (the first on ties)
        among the children INV kept, and moves it to the end of the
        parent's run when it beat a sibling, as the walk's ``others +
        [best]`` does; the choice depends only on the parent's
        children, so the subtrie does not depend on traversal order.
        Three details keep DAP exact: its rows run unbanded, since the
        choice needs exact last cells; it runs before the column-minimum
        prune; and the beam probe applies it too, since a probe outside
        the subtrie would not bound the k-th best inside it.
        """
        m = len(masked)
        m1 = m + 1
        min_literal_weight = self.weights.min_weight
        use_dap = self.use_dap
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
        prime_tab = np.array(compiled.prime, dtype=bool) if use_dap else None
        first_col = np.empty(m1, dtype=np.float64)
        first_col[0] = 0.0
        np.add.accumulate(mw, out=first_col[1:])
        plan = compiled.plan
        levels = plan.levels
        structures = plan.structures
        masks = None
        bit = 0
        if keyword is not None:
            masks = compiled.keyword_masks()
            bit = masks.bits[keyword]
            structures = masks.structures[keyword]
        order_lengths = search_order(m, list(structures))
        # ramp[j] = |j - m| * w_min: at depth d, a column of a length-L
        # trie has suffix bound ramp[i + L - d] at row i.
        max_length = len(levels) - 1
        ramp = np.abs(np.arange(m + max_length + 1, dtype=np.float64) - m)
        ramp *= min_literal_weight
        row_ids = np.arange(m1).reshape(m1, 1)
        mask_weights = mw.tolist()
        masked_ids = [token_ids.get(t, -1) for t in masked]
        buf = np.empty(0, dtype=np.float64)

        start_col = first_col.tolist()
        cut = _INF
        if near and not use_dap:
            cut = self._near_bound(
                compiled, near, masked_ids, mask_weights, start_col, top.k,
                masks.levels if bit else None, bit,
            )
            if cut != _INF:
                stats.near_seeds += 1
        if cut == _INF:
            for length in order_lengths:
                if structures[length] >= top.k:
                    cut = self._beam_bound(
                        compiled, length, masked_ids, mask_weights,
                        start_col, top.k, use_dap,
                        masks.levels if bit else None, bit,
                    )
                    stats.beam_bound_updates += 1
                    break
        roots = levels[0].length
        if cell_bound and cut != _INF:
            lower = np.abs(roots - m) * min_literal_weight
            live = lower <= cut + _slack(cut)
        else:
            live = np.ones(roots.size, dtype=bool)
        if bit:
            live &= (masks.levels[0] & bit) != 0
        alive = live.nonzero()[0]
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
            if bit:
                # INV: keep the children with a posting below them (every
                # live parent has one).
                has = (masks.levels[depth][idx] & bit) != 0
                idx = idx[has]
                parent_cols = parent_cols[has]
                width = idx.size
            level = levels[depth]
            token_id = level.token_id[idx]
            lens = level.length[idx]
            stats.levels_visited += 1
            if cut != _INF and min_literal_weight > 0 and not use_dap:
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
            if use_dap:
                keep = _dap_keep(prime_tab[token_id], parent_cols, col[m])
                if keep is not None:
                    idx = idx[keep]
                    lens = lens[keep]
                    col = col[:, keep]
                    width = idx.size
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
    def _near_bound(
        compiled: CompiledStructureIndex,
        near: Iterable[tuple[str, ...]],
        masked_ids: list[int],
        mask_weights: list[float],
        first_col: list[float],
        k: int,
        row_masks: tuple[np.ndarray, ...] | None,
        bit: int,
    ) -> float:
        """Upper bound on the k-th best distance from ``near`` structures.

        Each distinct ``near`` structure is looked up in its length's
        trie, row by row down the plan; one that is not indexed, or
        (with INV's ``row_masks`` and ``bit``) does not hold the
        keyword, lies outside the searched subtrie and is dropped.  The
        rest get their exact distance to the masked text, one
        :func:`_column` step per token from ``first_col`` — the pass's
        own arithmetic, so each value is the bit-identical distance the
        pass would collect for it (columns of shared trie prefixes are
        computed once).  Returns the k-th smallest, or ``inf`` when
        fewer than ``k`` remain.
        """
        token_ids = compiled.token_ids
        token_weight = compiled.token_weight
        rows = compiled.plan.rows
        roots = compiled.plan.roots
        columns: dict[tuple[int, int], list[float]] = {}
        dists: list[float] = []
        for structure in dict.fromkeys(tuple(s) for s in near):
            length = len(structure)
            row = roots.get(length)
            if row is None:
                continue
            col = first_col
            for depth, token in enumerate(structure, start=1):
                t = token_ids.get(token, -1)
                starts, counts, _ = rows[depth - 1]
                tids = rows[depth][2]
                start = starts[row]
                for child in range(start, start + counts[row]):
                    if tids[child] == t:
                        break
                else:
                    break
                row = child
                key = (depth, row)
                ncol = columns.get(key)
                if ncol is None:
                    ncol = _column(
                        col, t, token_weight[t], masked_ids, mask_weights
                    )
                    columns[key] = ncol
                col = ncol
            else:
                # A length-L structure's row at depth L is its terminal.
                if not bit or row_masks[length][row] & bit:
                    dists.append(col[-1])
        if len(dists) < k:
            return _INF
        dists.sort()
        return dists[k - 1]

    @staticmethod
    def _beam_bound(
        compiled: CompiledStructureIndex,
        length: int,
        masked_ids: list[int],
        mask_weights: list[float],
        first_col: list[float],
        k: int,
        use_dap: bool,
        row_masks: tuple[np.ndarray, ...] | None,
        bit: int,
    ) -> float:
        """Upper bound on the k-th best distance via a width-``k`` beam.

        Walks the length-``length`` trie down the plan, depth by depth,
        keeping the ``k`` most promising partial columns (scalar DP
        through :func:`_column`, a few thousand cells at most; the near
        seed steps through the same function, so both report the pass's
        exact distances).  Skipped when a near seed set the cutoff.
        Any ``k`` genuine terminal distances bound the k-th best
        overall from above, so the result is a valid prune
        cutoff no matter how the beam chose — accuracy is never at
        stake, only prune power.  With INV (``row_masks`` and ``bit``)
        and DAP the beam stays inside the subtrie the pass searches:
        it drops the children without the keyword bit, then applies
        DAP to each parent's remaining children.  Returns ``inf`` when
        fewer than ``k`` terminals are reached.
        """
        rows = compiled.plan.rows
        token_weight = compiled.token_weight
        prime = compiled.prime
        beam: list[tuple[float, int, list[float]]] = [
            (0.0, compiled.plan.roots[length], first_col)
        ]
        for depth in range(1, length + 1):
            starts, counts, _ = rows[depth - 1]
            tids = rows[depth][2]
            masks = memoryview(row_masks[depth]) if bit else None
            expanded: list[tuple[float, int, list[float]]] = []
            for _, row, col in beam:
                start = starts[row]
                run = []
                for child in range(start, start + counts[row]):
                    if bit and not masks[child] & bit:
                        continue
                    t = tids[child]
                    ncol = _column(
                        col, t, token_weight[t], masked_ids, mask_weights
                    )
                    run.append((ncol[-1], child, ncol))
                if use_dap:
                    primes = [e for e in run if prime[tids[e[1]]]]
                    if len(primes) > 1:
                        run = [e for e in run if not prime[tids[e[1]]]] + [
                            min(primes, key=lambda e: e[0])
                        ]
                expanded.extend(run)
            if not expanded:
                return _INF
            expanded.sort(key=lambda e: e[0])
            beam = expanded[:k]
        # The trie's terminals are exactly its depth-``length`` rows.
        return beam[k - 1][0] if len(beam) >= k else _INF


def _column(
    col: list[float],
    t: int,
    w: float,
    masked_ids: list[int],
    mask_weights: list[float],
) -> list[float]:
    """One scalar DP column: the child (token id ``t``, weight ``w``) of
    a node whose column is ``col``.

    Per cell, the pass's arithmetic in its order: ``prev + w`` (insert),
    ``v + mask_w`` (delete), the smaller of the two, then the match
    override (the parent's diagonal cell).  The beam probe and the near
    seed both step through it, so every value they report is bit for bit
    the distance the pass computes for the same path.
    """
    prev_im1 = col[0]
    v = prev_im1 + w
    ncol = [v]
    append = ncol.append
    for i in range(1, len(col)):
        prev_i = col[i]
        if masked_ids[i - 1] == t:
            v = prev_im1
        else:
            a = prev_i + w
            b = v + mask_weights[i - 1]
            v = a if a < b else b
        append(v)
        prev_im1 = prev_i
    return ncol


def _dap_keep(
    prime: np.ndarray, parent: np.ndarray, last: np.ndarray
) -> np.ndarray | None:
    """DAP over one depth: the columns to keep, in their new order.

    ``prime`` flags each column's token, ``parent`` (nondecreasing)
    names its parent, ``last`` holds its last DP cell.  Per parent with
    two or more prime children, the one with the smallest last cell
    (the first on ties) survives and moves to the end of the parent's
    run; its prime siblings go.  Returns None when nothing changes.
    """
    pidx = prime.nonzero()[0]
    if pidx.size < 2:
        return None
    owner = parent[pidx]
    # By parent, then last cell, then position: each parent's winner
    # leads its group.
    order = np.lexsort((pidx, last[pidx], owner))
    owner = owner[order]
    starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    sizes = np.diff(np.r_[starts, owner.size])
    contested = np.repeat(sizes > 1, sizes)
    if not contested.any():
        return None
    winners = pidx[order[starts[sizes > 1]]]
    keep = np.ones(parent.size, dtype=bool)
    keep[pidx[order[contested]]] = False
    keep[winners] = True
    key = np.arange(parent.size, dtype=np.float64)
    key[winners] = np.searchsorted(parent, parent[winners], side="right") - 0.5
    kept = keep.nonzero()[0]
    return kept[np.argsort(key[kept], kind="stable")]
