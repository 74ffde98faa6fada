"""Pre-computed phonetic representation of a database (Figure 2).

Indexes table names, attribute names, and *string* attribute values
(excluding numbers and dates, as in the paper) by their Metaphone code.
The literal determination component retrieves the candidate set ``B`` for
a placeholder's category from this index, as one cached, immutable
:class:`CandidatePool` per (category, narrowing tables).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from repro.grammar.categorizer import LiteralCategory
from repro.phonetics.levenshtein import PackedTexts
from repro.phonetics.metaphone import metaphone
from repro.sqlengine.catalog import Catalog


@dataclass(frozen=True)
class PhoneticEntry:
    """One indexed literal: original text plus its phonetic code."""

    literal: str
    code: str


#: Candidate pools kept per index: one per category plus one per
#: distinct tuple of narrowing tables; past this many the cache starts
#: over.
POOL_CACHE_SIZE = 256


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """An immutable candidate set ``B``, compared and hashed by identity.

    Holds the entries in index order and, column by column, the strings
    literal voting scores a segment against: each entry's literal, its
    phonetic code and its lowercased literal, with the codes and the
    lowercased literals also packed for the row kernel.  Identity
    hashing makes a pool a cheap cache key for distance rows.  Iterating
    or sizing a pool iterates or sizes its entries.
    """

    entries: tuple[PhoneticEntry, ...]
    literals: tuple[str, ...]
    codes: tuple[str, ...]
    lowered: tuple[str, ...]
    packed_codes: PackedTexts
    packed_lowered: PackedTexts

    @classmethod
    def of(cls, entries: Iterable[PhoneticEntry]) -> "CandidatePool":
        entries = tuple(entries)
        codes = tuple(entry.code for entry in entries)
        lowered = tuple(entry.literal.lower() for entry in entries)
        return cls(
            entries,
            tuple(entry.literal for entry in entries),
            codes,
            lowered,
            PackedTexts(codes),
            PackedTexts(lowered),
        )

    def __iter__(self) -> Iterator[PhoneticEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class PhoneticIndex:
    """Phonetic dictionary over a catalog's literals.

    Parameters
    ----------
    encoder:
        Phonetic encoder (defaults to Metaphone; Soundex pluggable for
        the ablation).
    value_limit_per_column:
        Cap on distinct string values indexed per column, bounding index
        size on large instances.
    """

    encoder: Callable[[str], str] = metaphone
    value_limit_per_column: int | None = None
    _tables: list[PhoneticEntry] = field(default_factory=list, repr=False)
    _attributes: list[PhoneticEntry] = field(default_factory=list, repr=False)
    _values: list[PhoneticEntry] = field(default_factory=list, repr=False)
    _attributes_by_table: dict[str, list[PhoneticEntry]] = field(
        default_factory=dict, repr=False
    )
    _pools: dict[tuple, CandidatePool] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def from_catalog(
        cls,
        catalog: Catalog,
        encoder: Callable[[str], str] = metaphone,
        value_limit_per_column: int | None = None,
    ) -> "PhoneticIndex":
        """Build the index for every literal in ``catalog``."""
        index = cls(encoder=encoder, value_limit_per_column=value_limit_per_column)
        index._tables = index._encode_all(catalog.table_names())
        index._attributes = index._encode_all(catalog.attribute_names())
        index._values = index._encode_all(
            catalog.string_attribute_values(value_limit_per_column)
        )
        for table in catalog.tables():
            index._attributes_by_table[table.name.lower()] = index._encode_all(
                table.columns
            )
        return index

    def _encode_all(self, literals: Iterable[str]) -> list[PhoneticEntry]:
        return [
            PhoneticEntry(literal=lit, code=self.encoder(_splittable(lit)))
            for lit in literals
        ]

    # -- candidate retrieval ----------------------------------------------

    def candidates(
        self, category: LiteralCategory, tables: Iterable[str] | None = None
    ) -> CandidatePool:
        """The set ``B`` of relevant literals for a placeholder category.

        When ``tables`` is given for ATTRIBUTE lookups, only attributes of
        those tables are returned — the paper narrows attribute candidates
        once the FROM tables are known.  Other categories ignore
        ``tables``.  Each (category, tables) pool is built once and
        shared by every later call.
        """
        narrowing = (
            tuple(tables)
            if tables and category is LiteralCategory.ATTRIBUTE
            else None
        )
        key = (category, narrowing)
        pool = self._pools.get(key)
        if pool is None:
            pool = CandidatePool.of(self._select(category, narrowing))
            if len(self._pools) >= POOL_CACHE_SIZE:
                self._pools.clear()
            self._pools[key] = pool
        return pool

    def _select(
        self, category: LiteralCategory, tables: tuple[str, ...] | None
    ) -> list[PhoneticEntry]:
        if category is LiteralCategory.TABLE:
            return self._tables
        if category is LiteralCategory.ATTRIBUTE:
            if tables:
                out: list[PhoneticEntry] = []
                seen: set[str] = set()
                for name in tables:
                    for entry in self._attributes_by_table.get(name.lower(), []):
                        if entry.literal.lower() not in seen:
                            seen.add(entry.literal.lower())
                            out.append(entry)
                if out:
                    return out
            return self._attributes
        return self._values

    @property
    def table_entries(self) -> list[PhoneticEntry]:
        return list(self._tables)

    @property
    def attribute_entries(self) -> list[PhoneticEntry]:
        return list(self._attributes)

    @property
    def value_entries(self) -> list[PhoneticEntry]:
        return list(self._values)

    def size(self) -> int:
        """Total number of indexed literals."""
        return len(self._tables) + len(self._attributes) + len(self._values)


def _splittable(identifier: str) -> str:
    """Insert spaces at camel-case and underscore boundaries.

    ``FirstName`` encodes like the phrase "first name", which is how it is
    spoken and how ASR transcribes it — keeping the index comparable with
    transcription segments.  (Metaphone itself strips the spaces.)
    """
    out: list[str] = []
    prev = ""
    for char in identifier:
        if char == "_":
            out.append(" ")
        elif char.isupper() and prev.islower():
            out.append(" ")
            out.append(char)
        else:
            out.append(char)
        prev = char
    return "".join(out)
