"""Transcription segmentation (paper Section 4.2, Box 3 EnumerateStrings).

ASR splits out-of-vocabulary literals into several tokens; to decide
what was spoken for a placeholder, we enumerate every concatenation of
up to ``window_size`` consecutive literal tokens inside the placeholder's
window and encode each phonetically.  For the window ``first name`` the
enumerated set A is {first, name, firstname} — exactly the paper's
Figure 4 example.  A segment's phrase is encoded once: the same phrases
recur across windows, walks and queries, so codes are memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.grammar.vocabulary import is_keyword, is_splchar
from repro.phonetics.metaphone import metaphone

#: Default maximum number of sub-tokens merged into one candidate.
DEFAULT_WINDOW_SIZE = 4

#: Entries kept by the segment-code memo (least recently used first
#: out); a dictation encodes a few dozen phrases, most seen before.
SEGMENT_CODE_CACHE_SIZE = 2048


@lru_cache(maxsize=SEGMENT_CODE_CACHE_SIZE)
def segment_code(phrase: str) -> str:
    """Metaphone code of a segment's space-joined sub-tokens."""
    return metaphone(phrase)


@dataclass(frozen=True)
class Segment:
    """One enumerated candidate string.

    Attributes
    ----------
    text:
        The concatenated sub-tokens (no separator, lowercased).
    code:
        Phonetic representation of the concatenation.
    start, end:
        Token span in the transcription (``end`` is the index of the last
        sub-token, matching Box 3's ``positions``).
    """

    text: str
    code: str
    start: int
    end: int

    @property
    def width(self) -> int:
        return self.end - self.start + 1


def literal_window(tokens: list[str], begin: int) -> tuple[int, int]:
    """The window ``[begin, end)`` of consecutive literal tokens.

    ``begin`` is advanced past keywords/SplChars first; the window then
    extends to the next keyword/SplChar or the end of the transcription
    (Box 3's ``RightmostNonLiteral`` computation).
    """
    n = len(tokens)
    while begin < n and (is_keyword(tokens[begin]) or is_splchar(tokens[begin])):
        begin += 1
    end = begin
    while end < n and not (is_keyword(tokens[end]) or is_splchar(tokens[end])):
        end += 1
    return begin, end


def enumerate_strings(
    tokens: list[str],
    begin: int,
    end: int,
    window_size: int = DEFAULT_WINDOW_SIZE,
    encoder=segment_code,
) -> list[Segment]:
    """Enumerate candidate concatenations inside ``[begin, end)``.

    Every run of up to ``window_size`` consecutive literal tokens becomes
    a candidate; keywords/SplChars break runs (they cannot be part of a
    literal).  Returns segments in (start, width) order.
    """
    segments: list[Segment] = []
    i = begin
    while i < end:
        if is_keyword(tokens[i]) or is_splchar(tokens[i]):
            i += 1
            continue
        parts: list[str] = []
        j = i
        while (
            j < end
            and len(parts) < window_size
            and not (is_keyword(tokens[j]) or is_splchar(tokens[j]))
        ):
            parts.append(tokens[j].lower())
            text = "".join(parts)
            segments.append(
                Segment(
                    text=text,
                    code=encoder(" ".join(parts)),
                    start=i,
                    end=j,
                )
            )
            j += 1
        i += 1
    return segments
