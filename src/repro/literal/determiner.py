"""The LiteralFinder walk (paper Box 3) orchestrating literal filling.

Walks the best structure's placeholders left-to-right, keeping a running
index into the transcription.  Each placeholder gets a window of
consecutive literal tokens, a candidate set from the phonetic index (by
category), and a voted assignment; typed values (numbers, dates, LIMIT
counts) are recovered directly from the window instead of voting.

Attribute candidates are narrowed to the chosen FROM tables via a
two-pass walk: pass one resolves table placeholders, pass two resolves
everything with the narrowed candidate sets.
"""

from __future__ import annotations

import datetime
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import DeadlineExceededError
from repro.grammar.categorizer import LiteralCategory, assign_categories
from repro.grammar.vocabulary import LITERAL_PLACEHOLDER
from repro.literal.segmentation import (
    DEFAULT_WINDOW_SIZE,
    enumerate_strings,
    literal_window,
)
from repro.literal.alignment import placeholder_windows
from repro.literal.values import is_number_token, recover_date, recover_value
from repro.literal.voting import literal_assignment, score_assignment
from repro.observability.forensics import PlaceholderTrace
from repro.observability.trace import NULL_TRACER, Tracer
from repro.structure.masking import mask_literals
from repro.phonetics.phonetic_index import PhoneticIndex
from repro.sqlengine.catalog import Catalog

#: Pipeline stage name of literal determination (re-exported by
#: :mod:`repro.core.result` with the other stage names); a deadline
#: that expires mid-walk is reported against it.
LITERAL_STAGE = "literal_determination"

#: Entries kept by each determiner's placeholder memo (least recently
#: used first out).  A dictation resolves a few dozen placeholders, so
#: this holds a long-lived daemon's recent traffic several times over.
PLACEHOLDER_MEMO_SIZE = 4096


@dataclass(frozen=True)
class FilledLiteral:
    """One resolved placeholder."""

    index: int
    category: LiteralCategory
    text: str
    candidates: tuple[str, ...]
    window: tuple[int, int]
    value_type: str | None = None

    def display(self) -> str:
        """Rendering inside the final SQL string (values quoted)."""
        if self.category is not LiteralCategory.VALUE:
            return self.text
        if self.value_type in ("int", "float") or is_number_token(self.text):
            return self.text
        return f"'{self.text}'"


@dataclass
class LiteralResult:
    """Full literal-determination output."""

    structure: tuple[str, ...]
    literals: list[FilledLiteral]

    @property
    def tokens(self) -> list[str]:
        out: list[str] = []
        fill = iter(self.literals)
        for token in self.structure:
            if token == LITERAL_PLACEHOLDER:
                out.append(next(fill).display())
            else:
                out.append(token)
        return out

    def sql(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class _Resolution:
    """One memoized placeholder: the literal plus the vote summary its
    forensic :class:`PlaceholderTrace` is rebuilt from on every use."""

    literal: FilledLiteral
    ranking: tuple[str, ...] = ()
    votes: tuple[tuple[str, int], ...] = ()
    pool_size: int = 0
    typed: bool = False


class MemoInfo(NamedTuple):
    """Placeholder-memo counters, shaped like ``functools``' cache info."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


@dataclass
class LiteralDeterminer:
    """Binds placeholders of a structure to database literals.

    Each placeholder resolution is memoized (bounded LRU, thread-safe)
    on every input it depends on, so a window that n-best ranks, both
    walks and runner-up structures share is voted once per determiner,
    not once per use.  The memo is exact: a hit returns the same
    :class:`FilledLiteral` and rebuilds the same forensic trace a fresh
    vote would.  :meth:`cache_info` / :meth:`cache_clear` expose it like
    ``functools.lru_cache``.
    """

    catalog: Catalog
    index: PhoneticIndex | None = None
    window_size: int = DEFAULT_WINDOW_SIZE
    top_k: int = 5
    #: When True, a second pass narrows attribute candidates to the
    #: chosen FROM tables (measurably better than category-only sets on
    #: the Employees workload; disable to match the paper's set B
    #: selection exactly).
    narrow_attributes: bool = True
    #: "greedy" is the paper's Box 3 running-index walk (default);
    #: "aligned" derives windows from the structure alignment and scores
    #: candidates coverage-first (experimental, kept for ablation).
    window_strategy: str = "greedy"
    #: Clock the ``deadline`` of :meth:`determine` is read against
    #: (``time.perf_counter`` instants; injectable for tests).
    clock: Callable[[], float] = field(
        default=time.perf_counter, repr=False, compare=False
    )
    _column_types: dict[str, str] = field(default_factory=dict, repr=False)
    _memo: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )
    _memo_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )
    _memo_hits: int = field(default=0, init=False, repr=False, compare=False)
    _memo_misses: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.index is None:
            self.index = PhoneticIndex.from_catalog(self.catalog)
        for table_schema in self.catalog.schema():
            for column in table_schema.columns:
                self._column_types.setdefault(column.name.lower(), column.type_name)

    # -- public API ----------------------------------------------------------

    def determine(
        self,
        transcription_tokens: list[str],
        structure: tuple[str, ...],
        tracer: Tracer | None = None,
        record=None,
        deadline: float | None = None,
    ) -> LiteralResult:
        """Fill every placeholder of ``structure``.

        ``transcription_tokens`` is the SplChar-handled raw transcription
        (MaskedTranscription.source).  With an enabled ``tracer`` the
        whole determination runs in a ``literal.determine`` span, each
        pass of the walk in a ``literal.walk`` span (``phase`` 1 or 2).
        ``record`` (a forensics ``QueryRecord``) captures the voting
        tally of every placeholder of the *final* pass — the one whose
        literals reach the output SQL.  ``deadline`` is the query's
        absolute cutoff on :attr:`clock`: it is checked before each
        placeholder of each pass, and once past it the walk stops with
        :class:`~repro.errors.DeadlineExceededError` (``stage`` is
        :data:`LITERAL_STAGE`), so a long walk overshoots the deadline
        by at most one placeholder, not a whole stage.
        """
        if tracer is None:
            tracer = NULL_TRACER
        categories = assign_categories(structure)
        value_types = self._value_types(structure, categories)
        trace = [] if record is not None else None

        with tracer.span(
            "literal.determine", placeholders=len(categories)
        ) as span:
            # Pass 1: category-selected candidate sets (the paper's set B).
            with tracer.span("literal.walk", phase=1):
                first = self._walk(
                    transcription_tokens, structure, categories, value_types,
                    tables=None, trace=trace, deadline=deadline,
                )
            tables = [
                lit.text
                for lit in first
                if lit.category is LiteralCategory.TABLE and lit.text
            ]
            if (
                not self.narrow_attributes
                or not tables
                or not any(c is LiteralCategory.ATTRIBUTE for c in categories)
            ):
                span.set("narrowed", False)
                if record is not None:
                    record.placeholders = trace
                return LiteralResult(structure=structure, literals=first)
            # Pass 2 (optional): attribute candidates narrowed to the
            # chosen FROM tables.
            if trace is not None:
                trace = []
            with tracer.span("literal.walk", phase=2):
                second = self._walk(
                    transcription_tokens, structure, categories, value_types,
                    tables=tables, trace=trace, deadline=deadline,
                )
            span.set("narrowed", True)
            if record is not None:
                record.placeholders = trace
            return LiteralResult(structure=structure, literals=second)

    def cache_info(self) -> MemoInfo:
        """Hits, misses and size of the placeholder memo."""
        with self._memo_lock:
            return MemoInfo(
                self._memo_hits, self._memo_misses,
                PLACEHOLDER_MEMO_SIZE, len(self._memo),
            )

    def cache_clear(self) -> None:
        """Empty the placeholder memo and reset its counters."""
        with self._memo_lock:
            self._memo.clear()
            self._memo_hits = self._memo_misses = 0

    # -- walk ------------------------------------------------------------------

    def _walk(
        self,
        tokens: list[str],
        structure: tuple[str, ...],
        categories: list[LiteralCategory],
        value_types: list[str | None],
        tables: list[str] | None,
        trace: list | None = None,
        deadline: float | None = None,
    ) -> list[FilledLiteral]:
        aligned_windows: list[tuple[int, int]] | None = None
        if self.window_strategy == "aligned":
            masked = mask_literals(list(tokens)).masked
            aligned_windows = placeholder_windows(masked, structure)
        filled: list[FilledLiteral] = []
        running = 0
        chosen_attributes: dict[int, str] = {}
        positions = [
            pos for pos, tok in enumerate(structure) if tok == LITERAL_PLACEHOLDER
        ]
        for idx, category in enumerate(categories):
            if deadline is not None and self.clock() >= deadline:
                raise DeadlineExceededError(
                    f"deadline exceeded before placeholder {idx}",
                    stage=LITERAL_STAGE,
                )
            if aligned_windows is not None:
                begin, end = aligned_windows[idx]
            else:
                begin, end = literal_window(tokens, running)
            value_type = self._resolve_value_type(
                value_types[idx], chosen_attributes, idx, structure, categories
            )
            literal = self._resolve_placeholder(
                tokens,
                begin,
                end,
                idx,
                category,
                value_type,
                tables,
                numeric_only=self._needs_numeric_argument(structure, positions[idx]),
                trace=trace,
            )
            filled.append(literal)
            if category is LiteralCategory.ATTRIBUTE and literal.text:
                chosen_attributes[idx] = literal.text
            running = max(literal.window[1], begin)
        return filled

    @staticmethod
    def _needs_numeric_argument(structure: tuple[str, ...], pos: int) -> bool:
        """True for the argument slot of AVG(...) / SUM(...)."""
        if pos < 2:
            return False
        return structure[pos - 1] == "(" and structure[pos - 2].upper() in (
            "AVG",
            "SUM",
        )

    def _resolve_placeholder(
        self,
        tokens: list[str],
        begin: int,
        end: int,
        idx: int,
        category: LiteralCategory,
        value_type: str | None,
        tables: list[str] | None,
        numeric_only: bool = False,
        trace: list | None = None,
    ) -> FilledLiteral:
        """Resolve one placeholder through the memo; append its forensic
        trace when ``trace`` is a list.

        The key holds every input the resolution reads: the window's
        tokens and bounds, the placeholder index (it lands on the
        literal), category, value type, narrowed tables, the numeric
        restriction, and the determiner settings that shape the vote.
        """
        window_tokens = tuple(tokens[begin:end])
        key = (
            window_tokens, begin, end, idx, category, value_type,
            None if tables is None else tuple(tables), numeric_only,
            self.window_size, self.window_strategy, self.top_k,
        )
        memo = self._memo
        with self._memo_lock:
            resolution = memo.get(key)
            if resolution is not None:
                memo.move_to_end(key)
                self._memo_hits += 1
            else:
                self._memo_misses += 1
        if resolution is None:
            resolution = self._vote_placeholder(
                tokens, begin, end, idx, category, value_type, tables,
                numeric_only,
            )
            with self._memo_lock:
                memo[key] = resolution
                memo.move_to_end(key)
                while len(memo) > PLACEHOLDER_MEMO_SIZE:
                    memo.popitem(last=False)
        literal = resolution.literal
        if trace is not None:
            trace.append(
                PlaceholderTrace(
                    index=idx,
                    category=category.name,
                    window=literal.window,
                    window_tokens=window_tokens,
                    chosen=literal.text,
                    value_type=literal.value_type,
                    typed=resolution.typed,
                    ranking=resolution.ranking,
                    votes=dict(resolution.votes),
                    pool_size=resolution.pool_size,
                )
            )
        return literal

    def _vote_placeholder(
        self,
        tokens: list[str],
        begin: int,
        end: int,
        idx: int,
        category: LiteralCategory,
        value_type: str | None,
        tables: list[str] | None,
        numeric_only: bool,
    ) -> _Resolution:
        """Resolve one placeholder from scratch (Box 3's vote, or a typed
        recovery), with the vote summary its forensic trace needs."""
        assert self.index is not None
        window_tokens = tokens[begin:end]

        def resolved(
            literal: FilledLiteral, outcome=None, pool: int = 0,
            typed: bool = False,
        ) -> _Resolution:
            if outcome is None:
                return _Resolution(literal, pool_size=pool, typed=typed)
            ranking = tuple(outcome.top(8))
            votes = tuple((lit, outcome.votes.get(lit, 0)) for lit in ranking)
            return _Resolution(literal, ranking, votes, pool, typed)

        if category is LiteralCategory.VALUE:
            typed = self._resolve_typed_value(
                window_tokens, begin, idx, value_type
            )
            if typed is not None:
                return resolved(typed, typed=True)
            if value_type in ("int", "float"):
                # Numeric slot with no numeric evidence (e.g. ASR lost the
                # LIMIT count): emit a syntactically valid default the
                # user corrects, never a string in a numeric position.
                fallback = next(
                    (t for t in window_tokens if is_number_token(t)), "1"
                )
                return resolved(
                    FilledLiteral(
                        index=idx,
                        category=category,
                        text=fallback,
                        candidates=(fallback,),
                        window=(begin, begin + 1 if window_tokens else begin),
                        value_type=value_type,
                    ),
                    typed=True,
                )

        segments = enumerate_strings(tokens, begin, end, self.window_size)
        candidates = self.index.candidates(category, tables)
        if numeric_only and category is LiteralCategory.ATTRIBUTE:
            numeric = [
                entry
                for entry in candidates
                if self._column_types.get(entry.literal.lower())
                in ("int", "float")
            ]
            if numeric:
                candidates = numeric
        if self.window_strategy == "aligned":
            outcome = score_assignment(
                segments, candidates, window_width=end - begin
            )
        else:
            outcome = literal_assignment(segments, candidates, anchor=begin)
        winner = outcome.winner
        if winner is not None and segments:
            consumed = outcome.location + 1 if outcome.location >= begin else begin + 1
            return resolved(
                FilledLiteral(
                    index=idx,
                    category=category,
                    text=winner.literal,
                    candidates=tuple(outcome.top(self.top_k)),
                    window=(begin, consumed),
                    value_type=value_type,
                ),
                outcome=outcome,
                pool=len(candidates),
            )
        # Fallback: no candidates or an empty window.  Table/attribute
        # slots must still render valid SQL, so take the first candidate
        # of the category; value slots keep the raw token (or empty).
        raw = window_tokens[0] if window_tokens else ""
        if not raw and category is not LiteralCategory.VALUE and candidates:
            raw = min(candidates, key=lambda e: e.literal.lower()).literal
        return resolved(
            FilledLiteral(
                index=idx,
                category=category,
                text=raw,
                candidates=(raw,) if raw else (),
                window=(begin, begin + 1 if window_tokens else begin),
                value_type=value_type,
            ),
            outcome=outcome if candidates else None,
            pool=len(candidates),
        )

    def _resolve_typed_value(
        self,
        window_tokens: list[str],
        begin: int,
        idx: int,
        value_type: str | None,
    ) -> FilledLiteral | None:
        if value_type in ("int", "float"):
            recovered = recover_value(window_tokens, value_type)
            if recovered is None:
                return None
            consumed = self._numeric_span(window_tokens)
            return FilledLiteral(
                index=idx,
                category=LiteralCategory.VALUE,
                text=recovered,
                candidates=(recovered,),
                window=(begin, begin + consumed),
                value_type=value_type,
            )
        if value_type == "date":
            date = recover_date(window_tokens)
            consumed = self._date_span(window_tokens)
            if date is None:
                if consumed == 0:
                    return None
                raw = " ".join(window_tokens[:consumed])
                return FilledLiteral(
                    index=idx,
                    category=LiteralCategory.VALUE,
                    text=raw,
                    candidates=(raw,),
                    window=(begin, begin + consumed),
                    value_type=value_type,
                )
            return FilledLiteral(
                index=idx,
                category=LiteralCategory.VALUE,
                text=date.isoformat(),
                candidates=(date.isoformat(),),
                window=(begin, begin + max(consumed, 1)),
                value_type=value_type,
            )
        # Unknown type: numbers and intact dates are still recovered.
        if window_tokens and is_number_token(window_tokens[0]):
            recovered = recover_value(window_tokens, "int")
            if recovered is not None:
                consumed = self._numeric_span(window_tokens)
                return FilledLiteral(
                    index=idx,
                    category=LiteralCategory.VALUE,
                    text=recovered,
                    candidates=(recovered,),
                    window=(begin, begin + consumed),
                    value_type="int",
                )
        if window_tokens and _looks_like_iso_date(window_tokens[0]):
            return FilledLiteral(
                index=idx,
                category=LiteralCategory.VALUE,
                text=window_tokens[0],
                candidates=(window_tokens[0],),
                window=(begin, begin + 1),
                value_type="date",
            )
        return None

    @staticmethod
    def _numeric_span(window_tokens: list[str]) -> int:
        count = 0
        for token in window_tokens:
            if not is_number_token(token):
                break
            count += 1
        return max(count, 1)

    @staticmethod
    def _date_span(window_tokens: list[str]) -> int:
        if not window_tokens:
            return 0
        if _looks_like_iso_date(window_tokens[0]):
            return 1
        from repro.asr.dates import MONTH_NAMES

        if window_tokens[0].lower() not in MONTH_NAMES:
            return 0
        count = 1
        for token in window_tokens[1:]:
            if token.isdigit() or is_number_token(token):
                count += 1
            else:
                break
        return count

    # -- typing ------------------------------------------------------------------

    def _value_types(
        self, structure: tuple[str, ...], categories: list[LiteralCategory]
    ) -> list[str | None]:
        """Static expected types: LIMIT counts are ints; rest unknown here."""
        types: list[str | None] = [None] * len(categories)
        placeholder_positions = [
            pos for pos, tok in enumerate(structure) if tok == LITERAL_PLACEHOLDER
        ]
        for idx, pos in enumerate(placeholder_positions):
            if pos > 0 and structure[pos - 1].upper() == "LIMIT":
                types[idx] = "int"
        return types

    def _resolve_value_type(
        self,
        static_type: str | None,
        chosen_attributes: dict[int, str],
        idx: int,
        structure: tuple[str, ...],
        categories: list[LiteralCategory],
    ) -> str | None:
        if static_type is not None:
            return static_type
        if categories[idx] is not LiteralCategory.VALUE:
            return None
        governing = self._governing_attribute(idx, structure, categories)
        if governing is None:
            return None
        attribute = chosen_attributes.get(governing)
        if attribute is None:
            return None
        return self._column_types.get(attribute.lower())

    @staticmethod
    def _governing_attribute(
        idx: int, structure: tuple[str, ...], categories: list[LiteralCategory]
    ) -> int | None:
        """Index of the attribute placeholder governing value ``idx``.

        Scans backwards over earlier placeholders: the closest preceding
        ATTRIBUTE in the WHERE clause is the probe of the predicate this
        value belongs to (holds for =, <, >, BETWEEN, and IN lists in the
        supported subset).
        """
        for j in range(idx - 1, -1, -1):
            if categories[j] is LiteralCategory.ATTRIBUTE:
                return j
            if categories[j] is LiteralCategory.TABLE:
                continue
        return None


def _looks_like_iso_date(token: str) -> bool:
    if len(token) != 10:
        return False
    try:
        datetime.date.fromisoformat(token)
        return True
    except ValueError:
        return False
