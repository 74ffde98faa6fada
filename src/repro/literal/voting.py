"""The literal voting algorithm (paper Section 4.3, Box 3).

Every enumerated candidate string ``a`` (set A) votes for the indexed
literal(s) ``b`` (set B) at minimum character-level edit distance between
phonetic codes; the literal with the most votes wins, ties broken
lexicographically.  Voting — rather than a single all-pairs minimum — is
what makes split tokens robust: Appendix E.2's FROMDATE/TODATE examples
show the all-pairs minimum picking the wrong literal while voting picks
the right one (both are unit-tested).

A vote reads two distance rows per segment from :func:`segment_rows`:
the segment's phonetic code against every candidate code, and its text
against every lowercased literal.  Rows come from the row form of the
one Levenshtein kernel (:class:`repro.phonetics.levenshtein.PackedTexts`,
built once per pool) and are cached in one bounded LRU keyed on the
segment's strings and the
:class:`~repro.phonetics.phonetic_index.CandidatePool`, so a segment
string is scored against a pool once, however many windows, walks,
n-best alternatives and runner-up structures share it.  Votes, best
matches, near-best locations and every ranking key are derived from
those rows.  The per-pair definition survives as the test oracle
(``tests/literal/oracle.py``), which every outcome must equal.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from repro.literal.segmentation import Segment
# char_edit_distance stays importable here: the repository benchmark's
# launcher wraps repro.literal.voting:char_edit_distance.
from repro.phonetics.levenshtein import char_edit_distance  # noqa: F401
from repro.phonetics.phonetic_index import CandidatePool, PhoneticEntry

#: Entries kept by the row cache (least recently used first out).  A
#: dictation needs about 25 distinct (segment, pool) row pairs, so this
#: holds the last few dozen dictations' rows; larger sizes bought little
#: speed for their memory.
ROW_CACHE_SIZE = 1024


@dataclass(frozen=True)
class VoteOutcome:
    """Result of voting for one placeholder."""

    ranking: tuple[PhoneticEntry, ...]  # best first
    votes: dict[str, int]  # literal -> vote count
    location: int  # transcription index of the winner's last sub-token

    @property
    def winner(self) -> PhoneticEntry | None:
        return self.ranking[0] if self.ranking else None

    def top(self, k: int) -> list[str]:
        return [entry.literal for entry in self.ranking[:k]]


@lru_cache(maxsize=ROW_CACHE_SIZE)
def segment_rows(
    text: str, code: str, pool: CandidatePool
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(code row, raw row)`` of one segment against ``pool``: the
    distance from ``code`` to every candidate code, and from ``text`` to
    every lowercased literal, in pool order."""
    return (
        tuple(pool.packed_codes.row(code)),
        tuple(pool.packed_lowered.row(text)),
    )


def _pool(candidates: CandidatePool | Sequence[PhoneticEntry]) -> CandidatePool:
    if isinstance(candidates, CandidatePool):
        return candidates
    return CandidatePool.of(candidates)


def _rows(segments: list[Segment], pool: CandidatePool):
    """Per segment, its code row and its raw row."""
    rows = [segment_rows(seg.text, seg.code, pool) for seg in segments]
    return [row[0] for row in rows], [row[1] for row in rows]


def _tally(
    segments: list[Segment],
    literals: tuple[str, ...],
    code_rows: list[tuple[int, ...]],
    anchor: int | None,
) -> dict[str, int]:
    """Box 3's votes: each segment votes for every candidate at its
    minimum code distance (an entry per vote, so duplicate literals
    count once per entry)."""
    counts = dict.fromkeys(literals, 0)
    for segment, row in zip(segments, code_rows):
        weight = 2 if anchor is not None and segment.start == anchor else 1
        least = min(row)
        for literal, distance in zip(literals, row):
            if distance == least:
                counts[literal] += weight
    return counts


def _raw_distance(
    segments: list[Segment], pool: CandidatePool, raw_rows
) -> dict[str, int]:
    """Per literal, its raw-string distance to the closest segment text
    (0 when there are no segments)."""
    if not segments:
        return dict.fromkeys(pool.literals, 0)
    return dict(zip(pool.literals, map(min, zip(*raw_rows))))


def score_assignment(
    segments: list[Segment],
    candidates: CandidatePool | Sequence[PhoneticEntry],
    window_width: int,
) -> VoteOutcome:
    """Coverage-aware assignment for structure-aligned windows.

    When the window is known to hold exactly this placeholder's tokens,
    the best literal is the one explaining the *whole* window: each
    candidate is scored by ``min over segments (phonetic distance +
    uncovered window tokens)``, so ``DepartmentManager`` (distance 1,
    covers "departments manager") beats ``Departments`` (distance 0 but
    leaves "manager" unexplained).  Ties fall back to the paper's vote
    counts, then raw-string distance, then lexicographic order.  A
    literal listed twice takes its last entry's score.
    """
    pool = _pool(candidates)
    if not pool.entries:
        return VoteOutcome(ranking=(), votes={}, location=-1)
    if not segments:
        return literal_assignment(segments, pool)
    literals = pool.literals
    code_rows, raw_rows = _rows(segments, pool)
    votes = _tally(segments, literals, code_rows, anchor=None)

    uncovered = [max(window_width - seg.width, 0) for seg in segments]
    neg_ends = [-seg.end for seg in segments]
    scores: dict[str, int] = {}
    locations: dict[str, int] = {}
    for literal, column in zip(literals, zip(*code_rows)):
        score, neg_end = min(zip(map(add, column, uncovered), neg_ends))
        scores[literal] = score
        locations[literal] = -neg_end

    raw_distance = _raw_distance(segments, pool, raw_rows)
    by_literal = dict(zip(literals, pool.entries))
    ranking = tuple(
        by_literal[literal]
        for literal in sorted(
            scores,
            key=lambda lit: (
                scores[lit],
                -votes.get(lit, 0),
                raw_distance[lit],
                lit.lower(),
            ),
        )
    )
    winner = ranking[0].literal
    location = locations.get(winner, -1) if winner else -1
    return VoteOutcome(ranking=ranking, votes=votes, location=location)


def literal_assignment(
    segments: list[Segment],
    candidates: CandidatePool | Sequence[PhoneticEntry],
    anchor: int | None = None,
) -> VoteOutcome:
    """Run the voting algorithm of Box 3's ``LiteralAssignment``.

    ``segments`` is set A (with phonetic codes and positions);
    ``candidates`` is set B.  Returns the full ranking (vote count
    descending, raw-distance then lexicographic tie-break) plus the
    winner's location.

    ``anchor`` is the window's begin index: segments starting exactly
    there carry double vote weight — the placeholder's own tokens come
    first in its window, and this keeps trailing junk tokens (absorbed
    homophones like "wear") from outvoting them.
    """
    pool = _pool(candidates)
    if not pool.entries:
        return VoteOutcome(ranking=(), votes={}, location=-1)
    literals = pool.literals
    code_rows, raw_rows = _rows(segments, pool)
    counts = _tally(segments, literals, code_rows, anchor)

    # Per literal, its best segment by (distance, widest) over all of
    # its entries: the coverage tie-break.
    widths = [seg.width for seg in segments]
    best_match: dict[str, tuple[int, int]] = {}  # (dist, -width)
    for literal, column in zip(literals, zip(*code_rows)):
        least = min(column)
        key = (least, -max(w for w, d in zip(widths, column) if d == least))
        if literal not in best_match or key < best_match[literal]:
            best_match[literal] = key

    # Rank by votes; ties break by coverage (a literal whose best match
    # spans "departments manager" beats one explaining only
    # "departments"), then raw-string proximity (distinguishes phonetic
    # twins like d001/d002), then lexicographically as in the paper.
    raw_distance = _raw_distance(segments, pool, raw_rows)
    by_literal = dict(zip(literals, pool.entries))
    ranking = tuple(
        by_literal[literal]
        for literal in sorted(
            counts,
            key=lambda lit: (
                -counts[lit],
                best_match[lit][1] if segments else 0,
                raw_distance[lit],
                lit.lower(),
            ),
        )
    )

    # Location: the rightmost end among the winner's *near-best* segment
    # matches (within +1 of its best distance).  The paper's rule — the
    # rightmost end of any voting segment — over-consumes when a long
    # junk concatenation happens to vote for the winner; a strict
    # best-only rule under-consumes absorbed homophones.  Near-best keeps
    # both example classes right (Figure 2's "wear", Appendix E.2).
    winner = ranking[0].literal
    location = -1
    if winner and segments:
        bound = best_match[winner][0] + 1
        location = max(
            seg.end
            for column, literal in enumerate(literals)
            if literal == winner
            for seg, row in zip(segments, code_rows)
            if row[column] <= bound
        )
    return VoteOutcome(ranking=ranking, votes=counts, location=location)
