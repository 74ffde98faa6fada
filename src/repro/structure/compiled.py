"""Compiled structure index: interned tokens over flat-array tries.

Building the :class:`~repro.structure.indexer.StructureIndex` is the
paper's offline step; this module adds a second offline step that
*lowers* the built index into an immutable, cache-friendly form the
search engine's hot loop can run on without touching a single dict or
string:

- a global **intern table** mapping every distinct trie token to a small
  integer id, with a precomputed per-id operation-weight vector (so the
  inner DP loop never calls ``classify_token`` or hashes a string);
- each per-length trie flattened into contiguous **first-child /
  next-sibling arrays** (``array('i')``) carrying node token ids and
  terminal sentence ids;
- one breadth-first **level plan** (:meth:`CompiledStructureIndex.level_plan`,
  built on first use) laying every trie's depth-``d`` nodes side by side
  as int32 numpy arrays, so the search kernel takes one numpy step per
  depth for all tries at once;
- INV's **keyword masks** (:meth:`CompiledStructureIndex.keyword_masks`,
  built on the first INV search): per node, a bitmask of the inverted
  index's keywords held by some structure through it.

Only the per-id weight vector is weight-specific;
:meth:`CompiledStructureIndex.reweighted` derives a variant for
different weights that shares the tries, the level plan and the keyword
masks outright.  ``repro.structure.persistence`` serializes the flat
arrays directly, so a cached index loads without re-inserting token
sequences into pointer-heavy tries.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.grammar.vocabulary import INVERTED_KEYWORDS, PRIME_SUPERSET
from repro.structure.edit_distance import DEFAULT_WEIGHTS, TokenWeights
from repro.structure.trie import TokenTrie

if TYPE_CHECKING:
    from repro.structure.indexer import StructureIndex

#: Sentinel for "no child" / "no sibling" / "not terminal".
NO_NODE = -1


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
class CompiledTrie:
    """One length's trie as contiguous first-child/next-sibling arrays.

    Node 0 is the root (empty prefix; ``token_id`` −1).  For a node
    ``i``, ``first_child[i]`` / ``next_sibling[i]`` are node indexes (or
    :data:`NO_NODE`), ``token_id[i]`` indexes the owning index's intern
    table, and ``sentence_id[i]`` is the terminal structure's id (or
    :data:`NO_NODE`).  Weights are looked up by token id, so a trie is
    purely structural and every weight variant shares it.
    """

    length: int
    first_child: array
    next_sibling: array
    token_id: array
    sentence_id: array

    @property
    def node_count(self) -> int:
        return len(self.first_child)


@dataclass(frozen=True)
class PlanLevel:
    """Every trie's nodes at one depth, side by side.

    Tries appear in ascending length order and each trie's nodes
    parent-major (children of its previous-level first node first),
    siblings in first-child/next-sibling order.  Each trie's run is
    therefore its depth-first left-to-right order restricted to this
    depth, and ``length`` is nondecreasing along the level.  Because the
    next level lists the same tries in the same order, the children of
    node ``j`` occupy rows ``child_start[j] : child_start[j] +
    child_count[j]`` of the next level.
    """

    #: Interned token id per node (−1 for the roots of level 0).
    token_id: np.ndarray
    #: Sentence id per node (−1 for non-terminals).
    sentence_id: np.ndarray
    #: Length of the trie the node belongs to.
    length: np.ndarray
    child_start: np.ndarray
    child_count: np.ndarray


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
    #: Structure count per trie length.
    structures: dict[int, int]


@dataclass(frozen=True)
class KeywordMasks:
    """INV's view of the index (Appendix D.3), as per-node bitmasks.

    A node's mask has keyword ``kw``'s bit ``bits[kw]`` set iff some
    structure through the node holds ``kw``: the OR of the masks of the
    structures below it.  Dropping every node without the bit leaves
    exactly the tries of ``kw``'s postings, in the full tries' order.
    The masks are structural, so every weight variant shares them.
    """

    #: Bit of each inverted-index keyword.
    bits: dict[str, int]
    #: Per depth, one mask per :class:`LevelPlan` row (uint32).
    levels: tuple[np.ndarray, ...]
    #: Per trie length, one mask per :class:`CompiledTrie` node.
    tries: dict[int, array]
    #: Per keyword, its postings' count per trie length.
    structures: dict[str, dict[int, int]]


@dataclass(frozen=True)
class CompiledStructureIndex:
    """An immutable lowered :class:`StructureIndex`.

    Shared read-only across worker threads: nothing in it mutates after
    :meth:`compile` returns except the lazily built :meth:`level_plan`.
    """

    #: Intern table: id -> token, token -> id.
    tokens: tuple[str, ...]
    token_ids: dict[str, int]
    #: Operation weight per token id, under ``weights``.
    token_weight: array
    #: True per token id iff the token is in the DAP prime superset.
    prime: tuple[bool, ...]
    weights: TokenWeights
    #: Flat tries keyed by structure length.
    tries: dict[int, CompiledTrie]
    #: Terminal structures by sentence id (DFS discovery order).
    sentences: tuple[tuple[str, ...], ...]
    #: One-slot holders of the :class:`LevelPlan` and the
    #: :class:`KeywordMasks`, shared by every :meth:`reweighted` variant.
    _plan: list = field(default_factory=list, repr=False, compare=False)
    _masks: list = field(default_factory=list, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.sentences)

    def level_plan(self) -> LevelPlan:
        """The breadth-first plan of every trie, built lazily and cached.

        The build is idempotent, which keeps concurrent first calls
        benign.
        """
        if not self._plan:
            self._plan.append(_build_plan(self.tries))
        return self._plan[0]

    def keyword_masks(self) -> KeywordMasks:
        """INV's keyword masks, built on first use and cached (the build
        is idempotent, like :meth:`level_plan`'s)."""
        if not self._masks:
            self._masks.append(_build_masks(self, self.level_plan()))
        return self._masks[0]

    @property
    def lengths(self) -> list[int]:
        return sorted(self.tries)

    @property
    def weights_key(self) -> tuple[float, float, float]:
        return weights_key(self.weights)

    def node_count(self) -> int:
        return sum(trie.node_count for trie in self.tries.values())

    def largest_trie_nodes(self) -> int:
        if not self.tries:
            return 0
        return max(trie.node_count for trie in self.tries.values())

    def metrics(self) -> dict[str, int]:
        """Size gauges for the observability layer, by canonical metric
        name (see :mod:`repro.observability.names`)."""
        return {
            "speakql_index_structures": len(self.sentences),
            "speakql_index_tries": len(self.tries),
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
        """Lower a built index into the flat-array form.

        Tokens are interned in first-encounter order (lengths ascending,
        preorder within each trie), which makes compilation — and
        everything derived from it — deterministic.
        """
        tokens: list[str] = []
        token_ids: dict[str, int] = {}
        sentences: list[tuple[str, ...]] = []
        tries: dict[int, CompiledTrie] = {}
        for length in sorted(index.tries):
            tries[length] = _compile_trie(
                length, index.tries[length], tokens, token_ids, sentences
            )
        token_weight = array("d", (weights.of(t) for t in tokens))
        prime = tuple(t in PRIME_SUPERSET for t in tokens)
        return cls(
            tokens=tuple(tokens),
            token_ids=token_ids,
            token_weight=token_weight,
            prime=prime,
            weights=weights,
            tries=tries,
            sentences=tuple(sentences),
        )

    def reweighted(self, weights: TokenWeights) -> "CompiledStructureIndex":
        """A compiled variant for different weights.

        Only the per-id weight vector is recomputed; the tries, the
        level plan and the keyword masks are shared outright.
        """
        if weights_key(weights) == self.weights_key:
            return self
        return CompiledStructureIndex(
            tokens=self.tokens,
            token_ids=self.token_ids,
            token_weight=array("d", (weights.of(t) for t in self.tokens)),
            prime=self.prime,
            weights=weights,
            tries=self.tries,
            sentences=self.sentences,
            _plan=self._plan,
            _masks=self._masks,
        )

    # -- serialization ------------------------------------------------------

    def to_lines(self) -> list[str]:
        """Serialize the structural arrays as text lines.

        Weight vectors are derived data and are not persisted; a load
        recompiles them for the weights in effect.
        """
        lines = [f"tokens {len(self.tokens)}", " ".join(self.tokens)]
        lines.append(f"structures {len(self.sentences)}")
        for length in sorted(self.tries):
            trie = self.tries[length]
            lines.append(f"trie {length} {trie.node_count}")
            lines.append(" ".join(map(str, trie.first_child)))
            lines.append(" ".join(map(str, trie.next_sibling)))
            lines.append(" ".join(map(str, trie.token_id)))
            lines.append(" ".join(map(str, trie.sentence_id)))
        return lines

    @classmethod
    def from_lines(
        cls,
        lines: list[str],
        weights: TokenWeights = DEFAULT_WEIGHTS,
    ) -> "CompiledStructureIndex":
        """Rebuild a compiled index from :meth:`to_lines` output.

        Raises ``ValueError`` on any structural inconsistency.
        """
        pos = 0

        def take() -> str:
            nonlocal pos
            if pos >= len(lines):
                raise ValueError("truncated compiled index")
            line = lines[pos]
            pos += 1
            return line

        head = take().split()
        if len(head) != 2 or head[0] != "tokens":
            raise ValueError(f"expected token table, got {head!r}")
        n_tokens = int(head[1])
        tokens = tuple(take().split())
        if len(tokens) != n_tokens:
            raise ValueError("token table length mismatch")
        head = take().split()
        if len(head) != 2 or head[0] != "structures":
            raise ValueError(f"expected structure count, got {head!r}")
        n_sentences = int(head[1])
        token_ids = {token: i for i, token in enumerate(tokens)}
        sentences: list[tuple[str, ...] | None] = [None] * n_sentences
        tries: dict[int, CompiledTrie] = {}
        while pos < len(lines):
            head = take().split()
            if len(head) != 3 or head[0] != "trie":
                raise ValueError(f"expected trie header, got {head!r}")
            length, node_count = int(head[1]), int(head[2])
            first_child = array("i", map(int, take().split()))
            next_sibling = array("i", map(int, take().split()))
            token_id = array("i", map(int, take().split()))
            sentence_id = array("i", map(int, take().split()))
            arrays = (first_child, next_sibling, token_id, sentence_id)
            if any(len(a) != node_count for a in arrays):
                raise ValueError(f"trie {length}: array length mismatch")
            tries[length] = CompiledTrie(
                length=length,
                first_child=first_child,
                next_sibling=next_sibling,
                token_id=token_id,
                sentence_id=sentence_id,
            )
            _collect_sentences(tries[length], tokens, sentences)
        if any(s is None for s in sentences):
            raise ValueError("missing terminal structures")
        token_weight = array("d", (weights.of(t) for t in tokens))
        prime = tuple(t in PRIME_SUPERSET for t in tokens)
        return cls(
            tokens=tokens,
            token_ids=token_ids,
            token_weight=token_weight,
            prime=prime,
            weights=weights,
            tries=tries,
            sentences=tuple(sentences),  # type: ignore[arg-type]
        )


def _compile_trie(
    length: int,
    trie: TokenTrie,
    tokens: list[str],
    token_ids: dict[str, int],
    sentences: list[tuple[str, ...]],
) -> CompiledTrie:
    """Flatten one dict-of-dicts trie, interning tokens as encountered."""
    first_child = [NO_NODE]
    next_sibling = [NO_NODE]
    token_id = [NO_NODE]
    sentence_id = [NO_NODE]

    def emit(node) -> int:
        my = len(first_child)
        tid = token_ids.get(node.token)
        if tid is None:
            tid = len(tokens)
            token_ids[node.token] = tid
            tokens.append(node.token)
        sid = NO_NODE
        if node.terminal and node.sentence is not None:
            sid = len(sentences)
            sentences.append(node.sentence)
        first_child.append(NO_NODE)
        next_sibling.append(NO_NODE)
        token_id.append(tid)
        sentence_id.append(sid)
        prev = NO_NODE
        for child in node.children.values():
            cid = emit(child)
            if prev == NO_NODE:
                first_child[my] = cid
            else:
                next_sibling[prev] = cid
            prev = cid
        return my

    prev = NO_NODE
    for child in trie.root.children.values():
        cid = emit(child)
        if prev == NO_NODE:
            first_child[0] = cid
        else:
            next_sibling[prev] = cid
        prev = cid
    return CompiledTrie(
        length=length,
        first_child=array("i", first_child),
        next_sibling=array("i", next_sibling),
        token_id=array("i", token_id),
        sentence_id=array("i", sentence_id),
    )


def _build_plan(tries: dict[int, CompiledTrie]) -> LevelPlan:
    """Lay every trie out breadth-first, side by side per depth."""
    depths = max(tries, default=0) + 1
    token_id: list[list[int]] = [[] for _ in range(depths)]
    sentence_id: list[list[int]] = [[] for _ in range(depths)]
    length_of: list[list[int]] = [[] for _ in range(depths)]
    child_count: list[list[int]] = [[] for _ in range(depths)]
    structures: dict[int, int] = {}
    for length in sorted(tries):
        trie = tries[length]
        fc, ns, tid, sid = (
            trie.first_child,
            trie.next_sibling,
            trie.token_id,
            trie.sentence_id,
        )
        structures[length] = sum(1 for s in sid if s != NO_NODE)
        frontier = [0]
        for depth in range(length + 1):
            nxt: list[int] = []
            for node in frontier:
                before = len(nxt)
                child = fc[node]
                while child != NO_NODE:
                    nxt.append(child)
                    child = ns[child]
                child_count[depth].append(len(nxt) - before)
            sids = [sid[node] for node in frontier]
            # The search kernel reads a trie's terminals off its deepest
            # level; a loaded index must not break that.  (The root is
            # never terminal in compiled form.)
            leaf = depth == length
            if depth and (
                (leaf and nxt) or any((s != NO_NODE) != leaf for s in sids)
            ):
                raise ValueError(
                    f"trie {length}: terminals are not exactly its "
                    f"depth-{length} nodes"
                )
            token_id[depth].extend(tid[node] for node in frontier)
            sentence_id[depth].extend(sids)
            length_of[depth].extend([length] * len(frontier))
            if not nxt:
                break
            frontier = nxt
    levels = []
    for depth in range(depths):
        counts = np.array(child_count[depth], dtype=np.int32)
        levels.append(
            PlanLevel(
                token_id=np.array(token_id[depth], dtype=np.int32),
                sentence_id=np.array(sentence_id[depth], dtype=np.int32),
                length=np.array(length_of[depth], dtype=np.int32),
                child_start=np.cumsum(counts, dtype=np.int32) - counts,
                child_count=counts,
            )
        )
    return LevelPlan(levels=tuple(levels), structures=structures)


def _build_masks(
    compiled: CompiledStructureIndex, plan: LevelPlan
) -> KeywordMasks:
    """Every node's keyword mask, per trie node and per plan row."""
    bits = {kw: 1 << i for i, kw in enumerate(sorted(INVERTED_KEYWORDS))}
    token_bit = [bits.get(token, 0) for token in compiled.tokens]
    rows: list[list[int]] = [[] for _ in plan.levels]
    tries: dict[int, array] = {}
    for length in sorted(compiled.tries):
        trie = compiled.tries[length]
        fc, ns, tid = trie.first_child, trie.next_sibling, trie.token_id
        mask = array("I", bytes(4 * trie.node_count))
        # Top-down, in the plan's breadth-first order: each node's mask
        # starts as the keywords on its root path.
        frontiers = [[0]]
        while True:
            nxt: list[int] = []
            for node in frontiers[-1]:
                path = mask[node]
                child = fc[node]
                while child != NO_NODE:
                    mask[child] = path | token_bit[tid[child]]
                    nxt.append(child)
                    child = ns[child]
            if not nxt:
                break
            frontiers.append(nxt)
        # Bottom-up: a node holds whatever the structures below it hold.
        for frontier in reversed(frontiers[:-1]):
            for node in frontier:
                acc = mask[node]
                child = fc[node]
                while child != NO_NODE:
                    acc |= mask[child]
                    child = ns[child]
                mask[node] = acc
        tries[length] = mask
        for depth, frontier in enumerate(frontiers):
            rows[depth].extend(mask[node] for node in frontier)
    levels = tuple(np.array(masks, dtype=np.uint32) for masks in rows)
    structures: dict[str, dict[int, int]] = {kw: {} for kw in bits}
    for depth in range(1, len(levels)):
        # A length-L trie's terminals are its depth-L nodes.
        leaves = levels[depth][plan.levels[depth].length == depth]
        for kw, bit in bits.items():
            count = int(np.count_nonzero(leaves & bit))
            if count:
                structures[kw][depth] = count
    return KeywordMasks(
        bits=bits, levels=levels, tries=tries, structures=structures
    )


def _collect_sentences(
    trie: CompiledTrie,
    tokens: tuple[str, ...],
    sentences: list,
) -> None:
    """Reconstruct terminal structures by walking root-to-terminal paths."""
    fc, ns, tid, sid = (
        trie.first_child,
        trie.next_sibling,
        trie.token_id,
        trie.sentence_id,
    )

    def walk(node: int, path: list[str]) -> None:
        child = fc[node]
        while child != NO_NODE:
            path.append(tokens[tid[child]])
            s = sid[child]
            if s != NO_NODE:
                if s >= len(sentences):
                    raise ValueError(f"sentence id {s} out of range")
                sentences[s] = tuple(path)
            walk(child, path)
            path.pop()
            child = ns[child]

    walk(0, [])
