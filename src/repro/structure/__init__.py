"""Structure determination (paper Section 3).

Recovers a syntactically correct SQL structure from an error-laden ASR
transcription:

- :mod:`repro.structure.masking` — SplChar handling + literal masking
  (Section 3.1): spoken operator words become symbols, every token not in
  KeywordDict/SplCharDict becomes the placeholder ``x``.
- :mod:`repro.structure.edit_distance` — the SQL-weighted
  insert/delete-only edit distance of Algorithm 1 (WK=1.2, WS=1.1, WL=1).
- :mod:`repro.structure.indexer` — the deduplicated structures and
  their inverted keyword index (Section 3.3).
- :mod:`repro.structure.compiled` — the offline compile step: interned
  tokens, per-id weight vectors, and the 50 length-partitioned tries
  lowered straight into the breadth-first level plan the search kernel
  runs on.
- :mod:`repro.structure.search` — branch-and-bound similarity search with
  bidirectional bounds (Proposition 1, Box 2) plus the two approximate
  optimizations: Diversity-Aware Pruning and Inverted Indexes
  (Appendix D.3), all in one level-synchronous numpy kernel.
- :mod:`repro.structure.reference` — the depth-first walk over the
  node tries (:mod:`repro.structure.trie`) that the kernel is
  property-tested against.
"""

from repro.structure.masking import MaskedTranscription, handle_splchars, mask_literals, preprocess_transcription
from repro.structure.edit_distance import (
    TokenWeights,
    edit_distance_bounds,
    token_weight,
    weighted_edit_distance,
)
from repro.structure.compiled import CompiledStructureIndex
from repro.structure.indexer import StructureIndex
from repro.structure.search import SearchResult, SearchStats, StructureSearchEngine

__all__ = [
    "CompiledStructureIndex",
    "MaskedTranscription",
    "handle_splchars",
    "mask_literals",
    "preprocess_transcription",
    "TokenWeights",
    "edit_distance_bounds",
    "token_weight",
    "weighted_edit_distance",
    "StructureIndex",
    "SearchResult",
    "SearchStats",
    "StructureSearchEngine",
]
