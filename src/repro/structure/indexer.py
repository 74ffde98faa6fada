"""Length-partitioned structure index (paper Section 3.3).

The paper stores one trie per structure length — 50 disjoint tries — so
the bidirectional bounds of Proposition 1 can skip whole tries.  An
inverted keyword index over the stored structures supports the INV
approximation (Appendix D.3).

A :class:`StructureIndex` is immutable: the deduplicated structures in
insertion order plus the inverted postings.  The search engine runs on
its compiled form,
:class:`~repro.structure.compiled.CompiledStructureIndex`, produced by
:meth:`StructureIndex.compiled` (cached per weight setting), which lays
the tries out breadth-first straight from the structure list.  No node
trie is built on that path; :attr:`StructureIndex.tries` builds the
dict-of-dicts :class:`~repro.structure.trie.TokenTrie` objects on
demand for the depth-first test oracle
(:func:`repro.structure.reference.reference_search`) alone.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from repro.grammar.generator import StructureGenerator
from repro.grammar.vocabulary import INVERTED_KEYWORDS
from repro.structure.compiled import CompiledStructureIndex, weights_key
from repro.structure.edit_distance import DEFAULT_WEIGHTS, TokenWeights
from repro.structure.trie import TokenTrie


@dataclass(frozen=True)
class StructureIndex:
    """Deduplicated structures in insertion order, plus an inverted
    keyword index."""

    structures: tuple[tuple[str, ...], ...] = ()
    #: Keyword -> the structures holding it, in ``structures`` order.
    inverted: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)
    #: Compiled forms keyed by weights.
    _compiled: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, generator: StructureGenerator | None = None) -> "StructureIndex":
        """Build the index from a structure generator (offline step)."""
        generator = generator or StructureGenerator()
        return cls.from_structures(generator.generate())

    @classmethod
    def from_structures(
        cls, structures: Iterable[tuple[str, ...]]
    ) -> "StructureIndex":
        """Index ``structures``, keeping the first of any duplicates (an
        empty structure matches nothing and is dropped)."""
        unique = tuple(dict.fromkeys(tuple(s) for s in structures if s))
        inverted: dict[str, list[tuple[str, ...]]] = {}
        for tokens in unique:
            for keyword in set(tokens):
                if keyword in INVERTED_KEYWORDS:
                    inverted.setdefault(keyword, []).append(tokens)
        return cls(structures=unique, inverted=inverted)

    @classmethod
    def from_compiled(cls, compiled: CompiledStructureIndex) -> "StructureIndex":
        """Wrap a compiled form (e.g. loaded from the disk cache); its
        weight variants derive from it without compiling again."""
        index = cls.from_structures(compiled.sentences)
        index._compiled[compiled.weights_key] = compiled
        return index

    @cached_property
    def tries(self) -> dict[int, TokenTrie]:
        """The dict-of-dicts tries keyed by length, built on first access.

        Only the test oracle walks them; the search engine, the pipeline
        and persistence never ask for them.
        """
        tries: dict[int, TokenTrie] = {}
        for tokens in self.structures:
            trie = tries.get(len(tokens))
            if trie is None:
                trie = tries[len(tokens)] = TokenTrie()
            trie.insert(tokens)
        return tries

    def compiled(
        self, weights: TokenWeights = DEFAULT_WEIGHTS
    ) -> CompiledStructureIndex:
        """The compiled form of this index under ``weights``.

        Compiled once and cached; later calls (including from concurrent
        batch workers — compilation is value-deterministic, so a rare
        duplicate build is harmless) return the cached object.  Variants
        for further weight settings share the plan and the keyword masks
        with the first.
        """
        key = weights_key(weights)
        compiled = self._compiled.get(key)
        if compiled is None:
            if self._compiled:
                base = next(iter(self._compiled.values()))
                compiled = base.reweighted(weights)
            else:
                compiled = CompiledStructureIndex.compile(self, weights)
            self._compiled[key] = compiled
        return compiled

    def __len__(self) -> int:
        """Total number of indexed structures."""
        return len(self.structures)

    @property
    def lengths(self) -> list[int]:
        """Stored structure lengths, ascending."""
        return self.compiled().lengths

    @property
    def max_length(self) -> int:
        lengths = self.lengths
        return max(lengths) if lengths else 0

    def node_count(self) -> int:
        """Total trie nodes across all lengths."""
        return self.compiled().node_count()

    def largest_trie_nodes(self) -> int:
        """Nodes in the largest trie (the ``p`` of the complexity bound)."""
        return self.compiled().largest_trie_nodes()

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
