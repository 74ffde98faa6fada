"""Shared immutable pipeline artifacts (the paper's offline step).

The paper's Figure 2 splits SpeakQL into an *offline* phase — generate
~1.6M candidate structures and index them in tries, pre-compute the
phonetic index of the queried database, train the ASR language model —
and a cheap *online* phase that runs per dictated query.
:class:`SpeakQLArtifacts` is the offline half as one bundle of compiled,
effectively immutable assets:

- the grammar-derived (catalog-independent) :class:`StructureIndex`,
  pre-lowered to its compiled level plan (see
  :mod:`repro.structure.compiled`) so search workers share the
  immutable arrays read-only, plus the per-clause indexes used by
  clause-level dictation;
- one :class:`PhoneticIndex` per catalog, built on first use;
- the trained ASR engine / language model.

A bundle is built once and shared freely: across pipelines over
different catalogs (the structure index is catalog-independent), across
repeated sessions (``load_or_build`` caches the generated structures on
disk), and across worker threads (all accessors are read-only after a
lock-guarded first build).

The bundle is also the source of truth for the observability layer's
*size* gauges — :meth:`SpeakQLArtifacts.publish_metrics` exports the
compiled index's structure/trie/node/token counts into a
:class:`~repro.observability.metrics.MetricsRegistry`, which the batch
service calls at the end of every metered batch so exported metrics
always describe the index that actually served the traffic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.asr.engine import SimulatedAsrEngine, make_custom_engine
from repro.grammar.generator import DEFAULT_MAX_TOKENS, StructureGenerator
from repro.phonetics.phonetic_index import PhoneticIndex
from repro.sqlengine.catalog import Catalog
from repro.structure.indexer import StructureIndex

if TYPE_CHECKING:
    from repro.core.clauses import ClauseKind

#: Default token cap for clause-grammar indexes (see ``core/clauses.py``).
DEFAULT_MAX_CLAUSE_TOKENS = 18


def structure_cache_path(cache_dir: str | Path, max_tokens: int) -> Path:
    """Canonical on-disk location of a structure index inside ``cache_dir``."""
    return Path(cache_dir) / f"structures-max{max_tokens}.txt"


@dataclass
class SpeakQLArtifacts:
    """The shareable compiled assets behind every SpeakQL pipeline."""

    structure_index: StructureIndex
    engine: SimulatedAsrEngine
    max_structure_tokens: int = DEFAULT_MAX_TOKENS
    max_clause_tokens: int = DEFAULT_MAX_CLAUSE_TOKENS
    #: Phonetic indexes keyed by catalog identity; the catalog reference
    #: is kept alongside so the id() key can never be recycled.
    _phonetic: dict[int, tuple[Catalog, PhoneticIndex]] = field(
        default_factory=dict, repr=False
    )
    _clause_indexes: dict[tuple[str, int], StructureIndex] = field(
        default_factory=dict, repr=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        *,
        max_structure_tokens: int = DEFAULT_MAX_TOKENS,
        max_clause_tokens: int = DEFAULT_MAX_CLAUSE_TOKENS,
        engine: SimulatedAsrEngine | None = None,
        training_sql: list[str] | None = None,
        structure_index: StructureIndex | None = None,
    ) -> "SpeakQLArtifacts":
        """Build the full bundle in memory (the offline step).

        ``training_sql`` trains a custom ASR engine when no ``engine`` is
        given; ``structure_index`` short-circuits index generation when a
        caller already holds one.
        """
        if engine is None:
            engine = make_custom_engine(training_sql)
        if structure_index is None:
            structure_index = StructureIndex.build(
                StructureGenerator(max_tokens=max_structure_tokens)
            )
        # Lower the index to its compiled form here, in the offline step:
        # the plan's arrays are immutable, so batch workers share them
        # read-only instead of racing on a lazy first compile.
        structure_index.compiled()
        return cls(
            structure_index=structure_index,
            engine=engine,
            max_structure_tokens=max_structure_tokens,
            max_clause_tokens=max_clause_tokens,
        )

    @classmethod
    def load_or_build(
        cls,
        cache_dir: str | Path,
        *,
        max_structure_tokens: int = DEFAULT_MAX_TOKENS,
        max_clause_tokens: int = DEFAULT_MAX_CLAUSE_TOKENS,
        engine: SimulatedAsrEngine | None = None,
        training_sql: list[str] | None = None,
    ) -> "SpeakQLArtifacts":
        """Build the bundle, caching the structure index under ``cache_dir``.

        The index file is keyed by its token cap, so bundles with
        different caps coexist in one cache directory; a valid cached
        file skips regeneration entirely.
        """
        from repro.structure.persistence import load_or_build

        index = load_or_build(
            structure_cache_path(cache_dir, max_structure_tokens),
            max_tokens=max_structure_tokens,
        )
        return cls.build(
            max_structure_tokens=max_structure_tokens,
            max_clause_tokens=max_clause_tokens,
            engine=engine,
            training_sql=training_sql,
            structure_index=index,
        )

    # -- observability -------------------------------------------------------

    def fingerprint(self) -> dict:
        """Identity of the compiled assets, for replay-bundle checking.

        Two bundles with equal fingerprints index the same structures
        with the same vocabulary and ASR engine, so a recorded query
        replays bit-identically against either.  The compiled index's
        size gauges double as cheap content proxies (structure, trie,
        node, and token counts all shift on any grammar change).
        """
        out = dict(self.structure_index.compiled().metrics())
        out["max_structure_tokens"] = self.max_structure_tokens
        out["engine"] = self.engine.name
        out["engine_vocabulary"] = len(self.engine.lm.vocabulary())
        return out

    def publish_metrics(self, registry) -> None:
        """Export the compiled index's size gauges into ``registry``.

        Gauges merge by maximum, so repeated publication (every metered
        batch) is idempotent for a fixed bundle.
        """
        for name, value in self.structure_index.compiled().metrics().items():
            registry.gauge(name).set(value)

    # -- shared asset accessors --------------------------------------------

    def phonetic_index(self, catalog: Catalog) -> PhoneticIndex:
        """The phonetic index of ``catalog``, built once and cached.

        Repeated pipelines over the same catalog share one index instead
        of re-deriving Metaphone codes for every DB literal.
        """
        key = id(catalog)
        cached = self._phonetic.get(key)
        if cached is not None:
            return cached[1]
        with self._lock:
            cached = self._phonetic.get(key)
            if cached is None:
                cached = (catalog, PhoneticIndex.from_catalog(catalog))
                self._phonetic[key] = cached
        return cached[1]

    def clause_index(
        self, kind: "ClauseKind", max_tokens: int | None = None
    ) -> StructureIndex:
        """The structure index of one clause grammar, built once per kind."""
        from repro.core.clauses import clause_grammar

        cap = max_tokens if max_tokens is not None else self.max_clause_tokens
        key = (kind.value, cap)
        cached = self._clause_indexes.get(key)
        if cached is not None:
            return cached
        with self._lock:
            cached = self._clause_indexes.get(key)
            if cached is None:
                grammar = clause_grammar(kind)
                cached = StructureIndex.from_structures(
                    grammar.enumerate_strings(cap)
                )
                self._clause_indexes[key] = cached
        return cached
