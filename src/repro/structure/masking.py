"""SplChar handling and literal masking (paper Section 3.1).

ASR often transcribes special characters as words ("less than" for
``<``); :func:`handle_splchars` rewrites those substrings into the
corresponding symbols.  :func:`mask_literals` then replaces every token
that is neither a keyword nor a SplChar with the placeholder ``x``,
producing the MaskOut string the search engine compares against
ground-truth structures, while remembering which transcription tokens
each placeholder covers (literal determination needs those positions).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.asr.verbalizer import WORDS_TO_SPLCHAR
from repro.grammar.vocabulary import (
    LITERAL_PLACEHOLDER,
    is_keyword,
    is_splchar,
)
from repro.phonetics.levenshtein import char_edit_distance


#: Long, unambiguous spoken operator words matched fuzzily (ASR may
#: garble a consonant: "barenthesis").  Short words ("star", "dot") are
#: matched exactly to avoid swallowing real literals.
_FUZZY_SPLCHAR_WORDS = frozenset({"parenthesis", "asterisk", "equals", "greater"})


def _splchar_word_matches(token: str, word: str) -> bool:
    token = token.lower()
    if token == word:
        return True
    if word in _FUZZY_SPLCHAR_WORDS and len(token) >= len(word) - 2:
        # Tolerance scales with length: two edits only for long words
        # ("barenthesis" -> "parenthesis"); short operator words allow a
        # single edit, so literals like "quails" never collapse to "=".
        tolerance = 2 if len(word) >= 8 else 1
        return _levenshtein_at_most(token, word, tolerance)
    return False


def _levenshtein_at_most(a: str, b: str, k: int) -> bool:
    return abs(len(a) - len(b)) <= k and char_edit_distance(a, b) <= k


@lru_cache(maxsize=4096)
def _phrases_starting_with(token: str) -> tuple[tuple[tuple[str, ...], str], ...]:
    """The ``WORDS_TO_SPLCHAR`` entries whose first word ``token``
    matches, in table order (memoized: heard tokens repeat heavily)."""
    return tuple(
        (words, symbol)
        for words, symbol in WORDS_TO_SPLCHAR
        if _splchar_word_matches(token, words[0])
    )


def handle_splchars(tokens: list[str]) -> list[str]:
    """Replace spoken operator words with their symbols.

    Longest spoken form first, so "less than" wins over a lone "less";
    long operator words are matched with small edit-distance tolerance.
    Only the phrases whose first word matches the token are tried, in
    table order, so the first full match is the one a scan of the whole
    table would find.

    >>> handle_splchars("select star from t where a less than b".split())
    ['select', '*', 'from', 't', 'where', 'a', '<', 'b']
    """
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        for words, symbol in _phrases_starting_with(tokens[i]):
            span = len(words)
            if i + span <= n and all(
                _splchar_word_matches(tokens[i + j], words[j])
                for j in range(1, span)
            ):
                out.append(symbol)
                i += span
                break
        else:
            out.append(tokens[i])
            i += 1
    return out


@dataclass(frozen=True)
class MaskedTranscription:
    """Masking output: the MaskOut token string plus provenance.

    Attributes
    ----------
    masked:
        Token sequence with literals replaced by ``x``; keywords are
        uppercased, SplChars kept as symbols.
    source:
        The (splchar-handled) transcription tokens masking ran on.
    literal_spans:
        For each placeholder, in order, the index into ``source`` of the
        transcription token it replaced.
    """

    masked: tuple[str, ...]
    source: tuple[str, ...]
    literal_spans: tuple[int, ...]

    @property
    def placeholder_count(self) -> int:
        return len(self.literal_spans)


def mask_literals(tokens: list[str]) -> MaskedTranscription:
    """Mask every non-keyword, non-SplChar token with ``x``.

    Each literal word becomes its own placeholder (the paper's example:
    "select sales from employers wear name equals Jon" masks to
    ``SELECT x FROM x x x = x`` after SplChar handling).
    """
    masked: list[str] = []
    spans: list[int] = []
    for idx, token in enumerate(tokens):
        if is_keyword(token):
            masked.append(token.upper())
        elif is_splchar(token):
            masked.append(token)
        else:
            masked.append(LITERAL_PLACEHOLDER)
            spans.append(idx)
    return MaskedTranscription(
        masked=tuple(masked), source=tuple(tokens), literal_spans=tuple(spans)
    )


def preprocess_transcription(text: str) -> MaskedTranscription:
    """Full Section 3.1 preprocessing: tokenize, SplChar-handle, mask."""
    tokens = handle_splchars(text.split())
    return mask_literals(tokens)


def collapse_literal_runs(masked: tuple[str, ...]) -> tuple[str, ...]:
    """Collapse consecutive placeholders into one (future-work mode).

    The paper's conclusion proposes rewriting the grammar "in a manner
    that focuses more on literals and de-emphasizes structure": since
    ASR splits one literal into many tokens, a masked run ``x x x``
    usually *is* one literal.  Collapsing runs before the structure
    search makes the distance insensitive to splitting:

    >>> collapse_literal_runs(("SELECT", "x", "x", "FROM", "x"))
    ('SELECT', 'x', 'FROM', 'x')
    """
    out: list[str] = []
    for token in masked:
        if token == LITERAL_PLACEHOLDER and out and out[-1] == LITERAL_PLACEHOLDER:
            continue
        out.append(token)
    return tuple(out)
