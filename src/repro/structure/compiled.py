"""Compiled structure index: interned tokens over one breadth-first plan.

Building the :class:`~repro.structure.indexer.StructureIndex` (the
grammar's structures, deduplicated) is the paper's offline step; this
module adds a second offline step that *lowers* the structure list into
the one immutable layout the search engine runs on, without touching a
single dict or string in its hot loop:

- a global **intern table** mapping every distinct structure token to a
  small integer id, with a precomputed per-id operation-weight vector
  (so the inner DP loop never calls ``classify_token`` or hashes a
  string);
- the **level plan** (:class:`LevelPlan`): the paper's length-partitioned
  tries laid out breadth-first, every trie's depth-``d`` nodes side by
  side as int32 numpy arrays (token id, sentence id, trie length, child
  start and count).  The kernel takes one numpy step per depth for all
  tries at once, and the scalar beam probe and near seed walk the same
  rows.  :meth:`CompiledStructureIndex.compile` builds it straight from
  the structures; no node trie is ever built;
- INV's **keyword masks** (:meth:`CompiledStructureIndex.keyword_masks`,
  built on the first INV search): per plan row, a bitmask of the
  inverted index's keywords held by some structure through it.

Only the per-id weight vector is weight-specific;
:meth:`CompiledStructureIndex.reweighted` derives a variant for
different weights that shares the plan and the keyword masks outright.
``repro.structure.persistence`` serializes the plan directly
(:meth:`CompiledStructureIndex.to_lines`), and a load checks it
(:meth:`CompiledStructureIndex.from_lines`).
"""

from __future__ import annotations

import dataclasses
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.grammar.vocabulary import INVERTED_KEYWORDS, PRIME_SUPERSET
from repro.structure.edit_distance import DEFAULT_WEIGHTS, TokenWeights

if TYPE_CHECKING:
    from repro.structure.indexer import StructureIndex

def weights_key(weights: TokenWeights) -> tuple[float, float, float]:
    """Hashable identity of a weight setting (used as a cache key)."""
    return (weights.keyword, weights.splchar, weights.literal)


def span_state_key(
    masked: tuple[str, ...] | list[str], weights: TokenWeights
) -> tuple:
    """Identity of one span's cached kernel decode state.

    The kernel's per-span DP/beam work is fully determined by the
    masked span tokens and the edit weights in force (the level plan
    is a function of the index, token weights of the index + weights).
    The serving layer's :class:`~repro.serving.sessions.SessionStore`
    keys cached span decodes by this tuple, so reweighting the index
    (see :meth:`CompiledStructureIndex.reweighted`) invalidates every
    cached span rather than silently replaying stale distances.
    """
    return (tuple(masked), weights_key(weights))


@dataclass(frozen=True)
class PlanLevel:
    """Every trie's nodes at one depth, side by side.

    Tries appear in ascending length order and each trie's nodes
    parent-major (children of its previous-level first node first),
    siblings in order of first appearance in the structure list.  Each
    trie's run is therefore its depth-first left-to-right order
    restricted to this depth, and ``length`` is nondecreasing along the
    level.  Because the next level lists the same tries in the same
    order, the children of node ``j`` occupy rows ``child_start[j] :
    child_start[j] + child_count[j]`` of the next level.
    """

    #: Interned token id per node (-1 for the roots of level 0).
    token_id: np.ndarray
    #: Sentence id per node (-1 for non-terminals).
    sentence_id: np.ndarray
    #: Length of the trie the node belongs to.
    length: np.ndarray
    child_start: np.ndarray
    child_count: np.ndarray


def _level(
    token_id, sentence_id, length, child_count
) -> PlanLevel:
    """One :class:`PlanLevel` from its row arrays (``child_start``
    follows from the counts)."""
    counts = np.asarray(child_count, dtype=np.int32)
    return PlanLevel(
        token_id=np.asarray(token_id, dtype=np.int32),
        sentence_id=np.asarray(sentence_id, dtype=np.int32),
        length=np.asarray(length, dtype=np.int32),
        child_start=np.cumsum(counts, dtype=np.int32) - counts,
        child_count=counts,
    )


@dataclass(frozen=True)
class LevelPlan:
    """Breadth-first layout of every length trie, for one pass over depth.

    ``levels[0]`` holds one root per trie, in ascending length order;
    ``levels[d]`` every trie's depth-``d`` nodes.  A length-``L`` trie
    holds structures of exactly ``L`` tokens, so its terminals are its
    depth-``L`` nodes and it has no deeper ones.  All arrays are int32
    and purely structural (node weights are looked up by token id), so
    every weight variant of an index shares one plan.
    """

    levels: tuple[PlanLevel, ...]
    #: Structure count per trie length, lengths ascending.
    structures: dict[int, int]
    #: Row of each trie's root in ``levels[0]``, by length.
    roots: dict[int, int]
    #: Per depth, memoryviews of ``(child_start, child_count,
    #: token_id)``: the beam probe's and near seed's scalar reads, which
    #: index to plain ints as fast as an ``array``.
    rows: tuple[tuple[memoryview, memoryview, memoryview], ...] = field(
        repr=False, compare=False
    )


@dataclass(frozen=True)
class KeywordMasks:
    """INV's view of the index (Appendix D.3), as per-row bitmasks.

    A row's mask has keyword ``kw``'s bit ``bits[kw]`` set iff some
    structure through the node holds ``kw``: the OR of the masks of the
    structures below it.  Dropping every row without the bit leaves
    exactly the tries of ``kw``'s postings, in the full tries' order.
    The masks are structural, so every weight variant shares them.
    """

    #: Bit of each inverted-index keyword.
    bits: dict[str, int]
    #: Per depth, one mask per :class:`LevelPlan` row (uint32).
    levels: tuple[np.ndarray, ...]
    #: Per keyword, its postings' count per trie length.
    structures: dict[str, dict[int, int]]


@dataclass(frozen=True)
class CompiledStructureIndex:
    """An immutable lowered :class:`StructureIndex`.

    Shared read-only across worker threads: nothing in it mutates after
    :meth:`compile` returns except the lazily built :meth:`keyword_masks`.
    """

    #: Intern table: id -> token, token -> id.
    tokens: tuple[str, ...]
    token_ids: dict[str, int]
    #: Operation weight per token id, under ``weights``.
    token_weight: array
    #: True per token id iff the token is in the DAP prime superset.
    prime: tuple[bool, ...]
    weights: TokenWeights
    #: Every length trie, breadth-first.
    plan: LevelPlan
    #: Structures by sentence id: the index's structures, in order.
    sentences: tuple[tuple[str, ...], ...]
    #: One-slot holder of the :class:`KeywordMasks`, shared by every
    #: :meth:`reweighted` variant.
    _masks: list = field(default_factory=list, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.sentences)

    def keyword_masks(self) -> KeywordMasks:
        """INV's keyword masks, built on first use and cached (the build
        is idempotent, which keeps concurrent first calls benign)."""
        if not self._masks:
            self._masks.append(_build_masks(self))
        return self._masks[0]

    @property
    def lengths(self) -> list[int]:
        return list(self.plan.structures)

    @property
    def weights_key(self) -> tuple[float, float, float]:
        return weights_key(self.weights)

    def node_count(self) -> int:
        """Trie nodes across all lengths, roots included: the plan's rows."""
        return sum(level.token_id.size for level in self.plan.levels)

    def largest_trie_nodes(self) -> int:
        rows = np.concatenate([level.length for level in self.plan.levels])
        return int(np.bincount(rows).max()) if rows.size else 0

    def metrics(self) -> dict[str, int]:
        """Size gauges for the observability layer, by canonical metric
        name (see :mod:`repro.observability.names`)."""
        return {
            "speakql_index_structures": len(self.sentences),
            "speakql_index_tries": len(self.plan.structures),
            "speakql_index_trie_nodes": self.node_count(),
            "speakql_index_tokens": len(self.tokens),
        }

    # -- construction -------------------------------------------------------

    @classmethod
    def compile(
        cls,
        index: "StructureIndex",
        weights: TokenWeights = DEFAULT_WEIGHTS,
    ) -> "CompiledStructureIndex":
        """Lower a built index's structures straight into the level plan.

        Per length (ascending) and per depth, a node is a distinct
        (parent row, token) key, and the keys take rows parent-major,
        siblings in order of first appearance in the structure list:
        the breadth-first order of the node tries the structures would
        build, row for row.  A terminal's sentence id is its
        structure's position in ``index.structures``, which the
        compiled form shares as its ``sentences``.  Tokens are interned
        in first appearance too (lengths ascending), so compilation —
        and everything derived from it — is deterministic.
        """
        tokens, plan = _lower(index.structures)
        return cls._assemble(tokens, index.structures, plan, weights)

    @classmethod
    def _assemble(
        cls,
        tokens: tuple[str, ...],
        sentences: tuple[tuple[str, ...], ...],
        plan: LevelPlan,
        weights: TokenWeights,
    ) -> "CompiledStructureIndex":
        return cls(
            tokens=tokens,
            token_ids={token: i for i, token in enumerate(tokens)},
            token_weight=array("d", (weights.of(t) for t in tokens)),
            prime=tuple(t in PRIME_SUPERSET for t in tokens),
            weights=weights,
            plan=plan,
            sentences=sentences,
        )

    def reweighted(self, weights: TokenWeights) -> "CompiledStructureIndex":
        """A compiled variant for different weights.

        Only the per-id weight vector is recomputed; the plan and the
        keyword masks are shared outright.
        """
        if weights_key(weights) == self.weights_key:
            return self
        return dataclasses.replace(
            self,
            token_weight=array("d", (weights.of(t) for t in self.tokens)),
            weights=weights,
        )

    # -- serialization ------------------------------------------------------

    def to_lines(self) -> list[str]:
        """Serialize the plan as text lines: the intern table, the
        structure count, the trie lengths, then per depth its width and
        its token ids, sentence ids and child counts (lengths and child
        starts follow from those).

        Weight vectors are derived data and are not persisted; a load
        recompiles them for the weights in effect.
        """
        levels = self.plan.levels
        lines = [
            f"tokens {len(self.tokens)}",
            " ".join(self.tokens),
            f"structures {len(self.sentences)}",
            "lengths " + " ".join(map(str, self.lengths)),
        ]
        for depth, level in enumerate(levels):
            lines.append(f"level {depth} {level.token_id.size}")
            for row in (level.token_id, level.sentence_id, level.child_count):
                lines.append(" ".join(map(str, row.tolist())))
        return lines

    @classmethod
    def from_lines(
        cls,
        lines: list[str],
        weights: TokenWeights = DEFAULT_WEIGHTS,
    ) -> "CompiledStructureIndex":
        """Rebuild a compiled index from :meth:`to_lines` output.

        The lines come from outside the program, so the plan is checked
        before any search runs on it: each level's child counts sum to
        the next level's width, token ids index the intern table and
        differ among siblings, sentence ids sit exactly on depth ``L``
        of each length-``L`` trie (which has no deeper rows) and name
        every structure once.
        Raises ``ValueError`` on any inconsistency.
        """
        pos = 0

        def take(name: str | None = None) -> list[str]:
            nonlocal pos
            if pos >= len(lines):
                raise ValueError("truncated compiled index")
            fields = lines[pos].split()
            pos += 1
            if name is not None and (not fields or fields[0] != name):
                raise ValueError(f"expected {name!r}, got {lines[pos - 1]!r}")
            return fields

        def ints(fields: list[str], width: int, what: str) -> np.ndarray:
            if len(fields) != width:
                raise ValueError(f"{what}: expected {width} entries")
            return np.array(list(map(int, fields)), dtype=np.int64)

        head = take("tokens")
        tokens = tuple(take())
        if len(head) != 2 or len(tokens) != int(head[1]):
            raise ValueError("token table length mismatch")
        if len(set(tokens)) != len(tokens):
            raise ValueError("repeated token in the intern table")
        head = take("structures")
        if len(head) != 2:
            raise ValueError("bad structure count")
        n_sentences = int(head[1])
        fields = take("lengths")[1:]
        lengths = ints(fields, len(fields), "lengths")
        if np.any(lengths < 1) or np.any(np.diff(lengths) <= 0):
            raise ValueError("trie lengths must ascend from 1")
        levels: list[PlanLevel] = []
        terminals: list[np.ndarray] = []
        length = lengths
        counts = None
        for depth in range(int(lengths[-1]) + 1 if lengths.size else 1):
            width = lengths.size if counts is None else int(counts.sum())
            head = take("level")
            if head != ["level", str(depth), str(width)]:
                raise ValueError(
                    f"level {depth}: header {' '.join(head)!r}, but the "
                    f"child counts above it sum to {width}"
                )
            token_id = ints(take(), width, f"level {depth} token ids")
            sentence_id = ints(take(), width, f"level {depth} sentence ids")
            if depth == 0:
                bad = token_id != -1
            else:
                bad = (token_id < 0) | (token_id >= len(tokens))
            if bad.any():
                raise ValueError(f"level {depth}: token id out of range")
            if counts is not None:
                owner = np.repeat(np.arange(counts.size), counts)
                siblings = owner * len(tokens) + token_id
                if np.unique(siblings).size != width:
                    raise ValueError(f"level {depth}: repeated sibling token")
                length = length[owner]
            counts = ints(take(), width, f"level {depth} child counts")
            leaf = length == depth
            if np.any(counts < 0) or np.any(counts[leaf] != 0):
                raise ValueError(f"level {depth}: bad child counts")
            if np.any(sentence_id[~leaf] != -1) or np.any(sentence_id[leaf] < 0):
                raise ValueError(
                    f"level {depth}: sentence ids must sit exactly on the "
                    f"depth-L rows of each length-L trie"
                )
            terminals.append(sentence_id[leaf])
            levels.append(_level(token_id, sentence_id, length, counts))
        if pos != len(lines):
            raise ValueError("trailing data after the last level")
        sids = np.sort(np.concatenate(terminals))
        if sids.size != n_sentences or np.any(sids != np.arange(sids.size)):
            raise ValueError(
                f"sentence ids do not name each of {n_sentences} structures once"
            )
        plan = _plan(levels)
        if 0 in plan.structures.values():
            raise ValueError("a trie holds no structure")
        sentences = _spell(tokens, plan, n_sentences)
        return cls._assemble(tokens, sentences, plan, weights)


def _plan(levels: list[PlanLevel]) -> LevelPlan:
    """The plan of ``levels``, counting each trie's terminals."""
    lengths = levels[0].length.tolist()
    return LevelPlan(
        levels=tuple(levels),
        structures={
            length: int(np.count_nonzero(levels[length].length == length))
            for length in lengths
        },
        roots={length: row for row, length in enumerate(lengths)},
        rows=tuple(
            (
                memoryview(level.child_start),
                memoryview(level.child_count),
                memoryview(level.token_id),
            )
            for level in levels
        ),
    )


def _lower(
    structures: tuple[tuple[str, ...], ...],
) -> tuple[tuple[str, ...], LevelPlan]:
    """Intern table and level plan of deduplicated structures; each
    terminal's sentence id is its structure's position."""
    by_length: dict[int, list[int]] = {}
    for position, structure in enumerate(structures):
        by_length.setdefault(len(structure), []).append(position)
    lengths = sorted(by_length)
    token_ids: dict[str, int] = {}
    # Per depth, the (token id, sentence id, length, child count)
    # columns, one part per trie holding that depth, tries ascending.
    columns = [([], [], [], []) for _ in range(lengths[-1] + 1 if lengths else 1)]
    for length in lengths:
        positions = by_length[length]
        flat = list(chain.from_iterable(map(structures.__getitem__, positions)))
        for token in dict.fromkeys(flat):
            token_ids.setdefault(token, len(token_ids))
        radix = len(token_ids)
        ids = np.fromiter(
            map(token_ids.__getitem__, flat), dtype=np.int64, count=len(flat)
        ).reshape(len(positions), length)
        # Each structure's row at the current depth, within this trie.
        row = np.zeros(len(positions), dtype=np.int64)
        token = np.full(1, -1)
        for depth in range(1, length + 1):
            keys, first, inverse = np.unique(
                row * radix + ids[:, depth - 1],
                return_index=True,
                return_inverse=True,
            )
            # ``keys`` ascend by (parent row, token id); rows go
            # parent-major, siblings in order of first appearance.
            parent = keys // radix
            order = np.lexsort((first, parent))
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            counts = np.bincount(parent, minlength=token.size)
            _add(columns[depth - 1], token, -1, length, counts)
            row = rank[inverse.reshape(-1)]
            token = keys[order] % radix
        # The depth-``length`` rows are the terminals, one structure each.
        sids = np.empty(token.size, dtype=np.int64)
        sids[row] = positions
        _add(columns[length], token, sids, length, 0)
    levels = [_level(*(_cat(parts) for parts in level)) for level in columns]
    return tuple(token_ids), _plan(levels)


def _add(columns: tuple[list, ...], token, sentence, length, counts) -> None:
    """Append one trie's rows at one depth to that depth's columns."""
    for column, part in zip(columns, (token, sentence, length, counts)):
        column.append(np.broadcast_to(part, token.shape))


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int32)


def _spell(
    tokens: tuple[str, ...], plan: LevelPlan, n_sentences: int
) -> tuple[tuple[str, ...], ...]:
    """Each sentence id's structure, read up its terminal's root path."""
    words = np.array(tokens, dtype=object)
    sentences: list = [None] * n_sentences
    levels = plan.levels
    parents = [None] + [
        np.repeat(np.arange(level.child_count.size), level.child_count)
        for level in levels[:-1]
    ]
    for depth in range(1, len(levels)):
        rows = (levels[depth].length == depth).nonzero()[0]
        ids = np.empty((rows.size, depth), dtype=np.int64)
        sids = levels[depth].sentence_id[rows].tolist()
        for d in range(depth, 0, -1):
            ids[:, d - 1] = levels[d].token_id[rows]
            rows = parents[d][rows]
        for sid, structure in zip(sids, words[ids].tolist()):
            sentences[sid] = tuple(structure)
    return tuple(sentences)


def _build_masks(compiled: CompiledStructureIndex) -> KeywordMasks:
    """Every plan row's keyword mask."""
    plan = compiled.plan
    bits = {kw: 1 << i for i, kw in enumerate(sorted(INVERTED_KEYWORDS))}
    token_bit = np.array(
        [bits.get(token, 0) for token in compiled.tokens], dtype=np.uint32
    )
    # Top-down: each row's mask starts as the keywords on its root path.
    masks = [np.zeros(plan.levels[0].token_id.size, dtype=np.uint32)]
    for parent, level in zip(plan.levels, plan.levels[1:]):
        owner = np.repeat(np.arange(parent.child_count.size), parent.child_count)
        masks.append(masks[-1][owner] | token_bit[level.token_id])
    # Bottom-up: a row holds whatever the structures below it hold.  The
    # nonempty child runs tile the next level in order.
    for depth in range(len(masks) - 2, -1, -1):
        level = plan.levels[depth]
        has = level.child_count > 0
        if has.any():
            masks[depth][has] |= np.bitwise_or.reduceat(
                masks[depth + 1], level.child_start[has]
            )
    structures: dict[str, dict[int, int]] = {kw: {} for kw in bits}
    for depth in range(1, len(masks)):
        # A length-L trie's terminals are its depth-L nodes.
        leaves = masks[depth][plan.levels[depth].length == depth]
        for kw, bit in bits.items():
            count = int(np.count_nonzero(leaves & bit))
            if count:
                structures[kw][depth] = count
    return KeywordMasks(bits=bits, levels=tuple(masks), structures=structures)
