"""Sketch-based semantic parser ("SOTA" NLI baseline).

Models the SQLova/IRNet family: the query is predicted by filling the
slots of a sketch — aggregate, select column, table, and WHERE
conditions — using lexical matching between question spans and schema
terms.  On clean template questions this is strong; a single
mistranscribed token ("and" -> "in", a garbled column word) breaks slot
filling, which is the degradation mechanism the paper measures for
speech input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.phonetics.levenshtein import char_edit_distance
from repro.sqlengine.catalog import Catalog

_AGG_CUES = [
    ("average", "AVG"),
    ("total", "SUM"),
    ("number of", "COUNT"),
    ("how many", "COUNT"),
    ("highest", "MAX"),
    ("most", "MAX"),
    ("lowest", "MIN"),
    ("least", "MIN"),
]

_OP_CUES = [
    ("is greater than", ">"),
    ("greater than", ">"),
    ("is less than", "<"),
    ("less than", "<"),
    # ASR with operator hints may emit the symbols themselves.
    ("is >", ">"),
    ("is <", "<"),
    (">", ">"),
    ("<", "<"),
    ("is", "="),
    ("equals", "="),
]


def _spell(identifier: str) -> str:
    out: list[str] = []
    prev = ""
    for ch in identifier:
        if ch == "_":
            out.append(" ")
        elif ch.isupper() and prev.islower():
            out.append(" ")
            out.append(ch.lower())
        else:
            out.append(ch.lower())
        prev = ch
    return "".join(out)


@dataclass
class SketchNli:
    """Slot-filling NLI over one catalog."""

    catalog: Catalog
    match_threshold: float = 0.34

    def to_sql(self, question: str) -> str | None:
        """Predict SQL for a question; None when no sketch fits."""
        text = question.lower().rstrip("?.! ")
        table = self._match_table(text)
        if table is None:
            return None
        condition = self._match_condition(text, table)
        aggregate, select_column = self._match_select(text, table)
        if select_column is None:
            return None
        if aggregate:
            select_sql = f"{aggregate} ( {select_column} )"
        else:
            select_sql = select_column
        sql = f"SELECT {select_sql} FROM {table}"
        if condition is not None:
            column, op, value = condition
            sql += f" WHERE {column} {op} {value}"
        return sql

    # -- slots ------------------------------------------------------------

    def _match_table(self, text: str) -> str | None:
        best = None
        best_score = 0.0
        for name in self.catalog.table_names():
            score = _span_score(_spell(name), text)
            if score > best_score:
                best, best_score = name, score
        if best_score < self.match_threshold:
            return None
        return best

    def _match_select(self, text: str, table: str) -> tuple[str | None, str | None]:
        aggregate = None
        for cue, func in _AGG_CUES:
            if cue in text:
                aggregate = func
                break
        # The select span is what's between "what is/show" and "in/of/where".
        head = re.split(r"\bwhere\b|\bin\b|\bof\b", text, maxsplit=1)[0]
        column = self._match_column(head, table)
        if column is None:
            column = self._match_column(text, table)
        return aggregate, column

    def _match_column(self, span: str, table: str) -> str | None:
        best = None
        best_score = 0.0
        for column in self.catalog.attribute_names_of(table):
            score = _span_score(_spell(column), span)
            if score > best_score:
                best, best_score = column, score
        if best_score < self.match_threshold:
            return None
        return best

    def _match_condition(
        self, text: str, table: str
    ) -> tuple[str, str, str] | None:
        if "where" not in text:
            return None
        tail = text.split("where", 1)[1]
        for cue, op in _OP_CUES:
            if cue not in tail:
                continue
            left, right = tail.split(cue, 1)
            column = self._match_column(left, table)
            if column is None:
                continue
            value = right.strip().strip("?.! ")
            if not value:
                continue
            rendered = self._render_value(table, column, value)
            if rendered is None:
                continue
            return column, op, rendered
        return None

    def _render_value(self, table: str, column: str, text: str) -> str | None:
        """Bind the value span to a typed literal."""
        text = text.strip()
        if re.fullmatch(r"\d+(\.\d+)?", text):
            return text
        if re.fullmatch(r"\d{4}-\d{2}-\d{2}", text):
            return f"'{text}'"
        # Match against the column's actual values (SQLova predicts spans
        # that copy from the table).
        tbl = self.catalog.table(table)
        if not tbl.has_column(column):
            return f"'{text}'"
        best, best_d = None, 10**9
        for value in tbl.column_values(column):
            if not isinstance(value, str):
                continue
            d = char_edit_distance(value.lower(), text.lower())
            if d < best_d:
                best, best_d = value, d
        if best is not None and best_d <= max(2, len(text) // 3):
            return f"'{best}'"
        return f"'{text}'"


def _span_score(needle: str, haystack: str) -> float:
    """Fuzzy containment score of ``needle`` inside ``haystack`` in [0,1].

    1.0 for exact substring; otherwise based on the best word-window edit
    distance.
    """
    needle = needle.strip().lower()
    if not needle:
        return 0.0
    if needle in haystack:
        return 1.0
    words = haystack.split()
    n = max(len(needle.split()), 1)
    best = 10**9
    for i in range(max(len(words) - n + 1, 1)):
        window = " ".join(words[i : i + n])
        best = min(best, char_edit_distance(needle, window))
    return max(0.0, 1.0 - best / max(len(needle), 1))
