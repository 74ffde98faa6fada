"""Length-partitioned structure index (paper Section 3.3).

The paper stores one trie per structure length — 50 disjoint tries — so
the bidirectional bounds of Proposition 1 can skip whole tries.  An
inverted keyword index over the stored structures supports the INV
approximation (Appendix D.3).

Two representations coexist:

- the mutable build-time form: dict-of-dicts :class:`TokenTrie` objects,
  grown by :meth:`StructureIndex.add`;
- the immutable :class:`~repro.structure.compiled.CompiledStructureIndex`
  the search engine's fast kernel runs on, produced by
  :meth:`StructureIndex.compiled` (cached per weight setting, invalidated
  when structures are added).

An index loaded from the disk cache starts *compiled-only* and
materializes its node tries lazily — only the test oracle
(:func:`repro.structure.reference.reference_search`) and direct trie
walks pay that cost.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.grammar.generator import StructureGenerator
from repro.grammar.vocabulary import INVERTED_KEYWORDS
from repro.structure.compiled import CompiledStructureIndex, weights_key
from repro.structure.edit_distance import DEFAULT_WEIGHTS, TokenWeights
from repro.structure.trie import TokenTrie

@dataclass
class StructureIndex:
    """Tries keyed by structure length, plus an inverted keyword index."""

    inverted: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)
    _tries: dict[int, TokenTrie] = field(default_factory=dict)
    _size: int = 0
    #: A loaded compiled form whose node tries have not been built yet.
    _lazy: CompiledStructureIndex | None = field(default=None, repr=False)
    #: Compiled forms keyed by weights, stamped with the size they saw.
    _compiled_cache: dict = field(default_factory=dict, repr=False)
    _compiled_size: int = field(default=-1, repr=False)

    @classmethod
    def build(cls, generator: StructureGenerator | None = None) -> "StructureIndex":
        """Build the index from a structure generator (offline step)."""
        index = cls()
        generator = generator or StructureGenerator()
        index.add_all(generator.generate())
        return index

    @classmethod
    def from_structures(
        cls, structures: Iterable[tuple[str, ...]]
    ) -> "StructureIndex":
        index = cls()
        index.add_all(structures)
        return index

    @classmethod
    def from_compiled(cls, compiled: CompiledStructureIndex) -> "StructureIndex":
        """Wrap a compiled form (e.g. loaded from the disk cache).

        The dict tries are rebuilt lazily on first access; the compiled
        kernel — and every accessor below — never needs them.
        """
        index = cls()
        index._lazy = compiled
        index._size = len(compiled.sentences)
        index._compiled_cache = {compiled.weights_key: compiled}
        index._compiled_size = index._size
        for sentence in compiled.sentences:
            for keyword in set(sentence):
                if keyword in INVERTED_KEYWORDS:
                    index.inverted.setdefault(keyword, []).append(sentence)
        return index

    @property
    def tries(self) -> dict[int, TokenTrie]:
        """The dict-of-dicts tries, materializing a lazy-loaded index."""
        if self._lazy is not None:
            lazy, self._lazy = self._lazy, None
            for sentence in lazy.sentences:
                trie = self._tries.get(len(sentence))
                if trie is None:
                    trie = TokenTrie()
                    self._tries[len(sentence)] = trie
                trie.insert(sentence)
        return self._tries

    def add_all(self, structures: Iterable[tuple[str, ...]]) -> None:
        for tokens in structures:
            self.add(tokens)

    def add(self, tokens: tuple[str, ...]) -> None:
        """Insert one structure."""
        length = len(tokens)
        tries = self.tries
        trie = tries.get(length)
        if trie is None:
            trie = TokenTrie()
            tries[length] = trie
        before = len(trie)
        trie.insert(tokens)
        if len(trie) == before:
            return  # duplicate
        self._size += 1
        for keyword in set(tokens):
            if keyword in INVERTED_KEYWORDS:
                self.inverted.setdefault(keyword, []).append(tokens)

    def compiled(
        self, weights: TokenWeights = DEFAULT_WEIGHTS
    ) -> CompiledStructureIndex:
        """The compiled form of this index under ``weights``.

        Compiled once and cached; later calls (including from concurrent
        batch workers — compilation is value-deterministic, so a rare
        duplicate build is harmless) return the cached object.  Adding
        structures invalidates the cache.  Variants for further weight
        settings share all structural arrays with the first.
        """
        if self._compiled_size != self._size:
            self._compiled_cache = {}
            self._compiled_size = self._size
            if self._lazy is not None:
                self._compiled_cache[self._lazy.weights_key] = self._lazy
        key = weights_key(weights)
        compiled = self._compiled_cache.get(key)
        if compiled is None:
            if self._compiled_cache:
                base = next(iter(self._compiled_cache.values()))
                compiled = base.reweighted(weights)
            else:
                compiled = CompiledStructureIndex.compile(self, weights)
            self._compiled_cache[key] = compiled
        return compiled

    def __len__(self) -> int:
        """Total number of indexed structures."""
        return self._size

    @property
    def lengths(self) -> list[int]:
        """Stored structure lengths, ascending."""
        if self._lazy is not None:
            return self._lazy.lengths
        return sorted(self._tries)

    @property
    def max_length(self) -> int:
        lengths = self.lengths
        return max(lengths) if lengths else 0

    def node_count(self) -> int:
        """Total trie nodes across all lengths."""
        if self._lazy is not None:
            return self._lazy.node_count()
        return sum(trie.node_count for trie in self._tries.values())

    def largest_trie_nodes(self) -> int:
        """Nodes in the largest trie (the ``p`` of the complexity bound)."""
        if self._lazy is not None:
            return self._lazy.largest_trie_nodes()
        if not self._tries:
            return 0
        return max(trie.node_count for trie in self._tries.values())

    def rarest_keyword(self, tokens: Iterable[str]) -> str | None:
        """INV's narrowing keyword: the indexed keyword among ``tokens``
        with the fewest postings (the first one on ties), or None when
        no indexed keyword is present (the search then runs in full)."""
        best = None
        best_size = 0
        for token in tokens:
            keyword = token.upper()
            postings = self.inverted.get(keyword)
            if postings is not None and (best is None or len(postings) < best_size):
                best, best_size = keyword, len(postings)
        return best
