"""ASR error taxonomy (paper Table 1), measured rather than illustrated.

Table 1 catalogues five classes of transcription error.  This module
classifies the actual errors in a (reference SQL, transcription) pair so
the taxonomy becomes a measurable artifact:

- ``keyword_to_literal`` — a keyword/SplChar was heard as ordinary
  English ("sum" -> "some", "=" -> stays "equals" garbled);
- ``literal_to_keyword`` — a literal produced keyword words
  ("fromdate" -> "from date");
- ``oov_split`` — an out-of-vocabulary literal split into several
  tokens ("CUSTID_1729A" -> "custody 1 7 2 9 8");
- ``number_split`` — a number split at a scale boundary
  ("45412" -> "45000 412");
- ``date_error`` — a date transcribed wrongly or decomposed
  ("1991-05-07" -> "may 07 90 91").
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from repro.asr.dates import MONTH_NAMES
from repro.asr.verbalizer import split_identifier
from repro.grammar.vocabulary import (
    TokenClass,
    classify_token,
    is_keyword,
    tokenize_sql,
)
from repro.phonetics.levenshtein import char_edit_distance

_NUMBER_RE = re.compile(r"^\d+(\.\d+)?$")
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

ERROR_KINDS = (
    "keyword_to_literal",
    "literal_to_keyword",
    "oov_split",
    "number_split",
    "date_error",
)


@dataclass(frozen=True)
class TranscriptionError:
    """One classified error instance."""

    kind: str
    reference: str  # the ground-truth token
    heard: str  # what the transcription shows for it


def classify_errors(
    reference_sql: str, transcription: str
) -> list[TranscriptionError]:
    """Classify the errors ``transcription`` makes against the reference.

    Works token-by-token over the reference: each reference token is
    located (or not) in the transcription and its failure mode is
    classified per Table 1's taxonomy.
    """
    ref_tokens = tokenize_sql(reference_sql)
    hyp_words = transcription.lower().split()
    hyp_counts = Counter(hyp_words)
    errors: list[TranscriptionError] = []

    for token in ref_tokens:
        cls = classify_token(token)
        lowered = token.lower()
        if cls is TokenClass.KEYWORD:
            if hyp_counts.get(lowered, 0) > 0:
                hyp_counts[lowered] -= 1
            else:
                heard = _closest_word(lowered, hyp_words)
                errors.append(
                    TranscriptionError("keyword_to_literal", token, heard)
                )
        elif cls is TokenClass.SPLCHAR:
            continue  # symbols are evaluated by SPR/SRR, not this taxonomy
        else:
            errors.extend(_classify_literal(token, hyp_words, hyp_counts))
    return errors


def _classify_literal(
    token: str, hyp_words: list[str], hyp_counts: Counter
) -> list[TranscriptionError]:
    lowered = token.lower()
    if hyp_counts.get(lowered, 0) > 0:
        hyp_counts[lowered] -= 1
        return []

    if _DATE_RE.match(token):
        window = _date_window(hyp_words)
        return [TranscriptionError("date_error", token, window)]

    if _NUMBER_RE.match(token):
        heard = _number_window(token, hyp_words)
        return [TranscriptionError("number_split", token, heard)]

    pieces = split_identifier(token)
    if len(pieces) > 1 and all(
        hyp_counts.get(p, 0) > 0 or p.isdigit() for p in pieces
    ):
        for piece in pieces:
            if hyp_counts.get(piece, 0) > 0:
                hyp_counts[piece] -= 1
        kind = (
            "literal_to_keyword"
            if any(is_keyword(p) for p in pieces)
            else "oov_split"
        )
        return [TranscriptionError(kind, token, " ".join(pieces))]

    heard = _closest_word(lowered, hyp_words)
    if len(pieces) > 1:
        return [TranscriptionError("oov_split", token, heard)]
    return [TranscriptionError("keyword_to_literal", token, heard)] if is_keyword(
        heard
    ) else [TranscriptionError("oov_split", token, heard)]


def _closest_word(target: str, words: list[str]) -> str:
    if not words:
        return ""
    return min(words, key=lambda w: char_edit_distance(w, target))


def _number_window(token: str, words: list[str]) -> str:
    numbers = [w for w in words if _NUMBER_RE.match(w)]
    return " ".join(numbers) if numbers else _closest_word(token, words)


def _date_window(words: list[str]) -> str:
    for i, word in enumerate(words):
        if word in MONTH_NAMES:
            return " ".join(words[i : i + 4])
    dates = [w for w in words if _DATE_RE.match(w)]
    return dates[0] if dates else ""


def error_profile(
    pairs: list[tuple[str, str]]
) -> dict[str, int]:
    """Count error instances per kind over (reference, transcription)
    pairs — the measured version of Table 1."""
    counts: dict[str, int] = {kind: 0 for kind in ERROR_KINDS}
    for reference, transcription in pairs:
        for error in classify_errors(reference, transcription):
            counts[error.kind] += 1
    return counts
