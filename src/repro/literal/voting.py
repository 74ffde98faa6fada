"""The literal voting algorithm (paper Section 4.3, Box 3).

Every enumerated candidate string ``a`` (set A) votes for the indexed
literal(s) ``b`` (set B) at minimum character-level edit distance between
phonetic codes; the literal with the most votes wins, ties broken
lexicographically.  Voting — rather than a single all-pairs minimum — is
what makes split tokens robust: Appendix E.2's FROMDATE/TODATE examples
show the all-pairs minimum picking the wrong literal while voting picks
the right one (both are unit-tested).

Distances come from :func:`repro.phonetics.levenshtein.char_edit_distance`
(re-exported here), an exact bit-parallel kernel with a bounded memo, so
the many re-scorings of one window across a query's alternatives cost a
cache hit each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.literal.segmentation import Segment
from repro.phonetics.levenshtein import char_edit_distance
from repro.phonetics.phonetic_index import PhoneticEntry


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


def score_assignment(
    segments: list[Segment],
    candidates: list[PhoneticEntry],
    window_width: int,
) -> VoteOutcome:
    """Coverage-aware assignment for structure-aligned windows.

    When the window is known to hold exactly this placeholder's tokens,
    the best literal is the one explaining the *whole* window: each
    candidate is scored by ``min over segments (phonetic distance +
    uncovered window tokens)``, so ``DepartmentManager`` (distance 1,
    covers "departments manager") beats ``Departments`` (distance 0 but
    leaves "manager" unexplained).  Ties fall back to the paper's vote
    counts, then raw-string distance, then lexicographic order.
    """
    if not candidates:
        return VoteOutcome(ranking=(), votes={}, location=-1)
    vote_outcome = literal_assignment(segments, candidates)
    if not segments:
        return vote_outcome

    scores: dict[str, float] = {}
    locations: dict[str, int] = {}
    for entry in candidates:
        best: tuple[float, int] | None = None  # (score, -end)
        for segment in segments:
            uncovered = max(window_width - segment.width, 0)
            score = char_edit_distance(segment.code, entry.code) + uncovered
            key = (score, -segment.end)
            if best is None or key < best:
                best = key
        assert best is not None  # segments is non-empty here
        scores[entry.literal] = best[0]
        locations[entry.literal] = -best[1]

    raw_distance = {
        entry.literal: min(
            (char_edit_distance(seg.text, entry.literal.lower()) for seg in segments),
            default=0,
        )
        for entry in candidates
    }
    by_literal = {entry.literal: entry for entry in candidates}
    ranking = tuple(
        by_literal[literal]
        for literal in sorted(
            scores,
            key=lambda lit: (
                scores[lit],
                -vote_outcome.votes.get(lit, 0),
                raw_distance[lit],
                lit.lower(),
            ),
        )
    )
    winner = ranking[0].literal if ranking else None
    location = locations.get(winner, -1) if winner else -1
    return VoteOutcome(
        ranking=ranking, votes=vote_outcome.votes, location=location
    )


def literal_assignment(
    segments: list[Segment],
    candidates: list[PhoneticEntry],
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
    if not candidates:
        return VoteOutcome(ranking=(), votes={}, location=-1)

    counts: dict[str, int] = {entry.literal: 0 for entry in candidates}
    by_literal = {entry.literal: entry for entry in candidates}
    # Per candidate: best segment by (distance, widest) for the coverage
    # tie-break, plus every (segment, distance) pair for the location.
    best_match: dict[str, tuple[int, int]] = {}  # (dist, -width)
    matches: dict[str, list[tuple[int, int]]] = {}  # literal -> (dist, end)

    for segment in segments:
        weight = 2 if anchor is not None and segment.start == anchor else 1
        best_distance: int | None = None
        voted: list[str] = []
        for entry in candidates:
            distance = char_edit_distance(segment.code, entry.code)
            key = (distance, -segment.width)
            if key < best_match.get(entry.literal, (1 << 30, 0)):
                best_match[entry.literal] = key
            matches.setdefault(entry.literal, []).append(
                (distance, segment.end)
            )
            if best_distance is None or distance < best_distance:
                best_distance = distance
                voted = [entry.literal]
            elif distance == best_distance:
                voted.append(entry.literal)
        for literal in voted:
            counts[literal] += weight

    # Location: the rightmost end among the literal's *near-best* segment
    # matches (within +1 of its best distance).  The paper's rule — the
    # rightmost end of any voting segment — over-consumes when a long
    # junk concatenation happens to vote for the winner; a strict
    # best-only rule under-consumes absorbed homophones.  Near-best keeps
    # both example classes right (Figure 2's "wear", Appendix E.2).
    locations: dict[str, int] = {}
    for literal, pairs in matches.items():
        best = best_match[literal][0]
        locations[literal] = max(
            (end for dist, end in pairs if dist <= best + 1), default=-1
        )

    # Rank by votes; ties break by coverage (a literal whose best match
    # spans "departments manager" beats one explaining only
    # "departments"), then raw-string proximity (distinguishes phonetic
    # twins like d001/d002), then lexicographically as in the paper.
    raw_distance: dict[str, int] = {}
    coverage: dict[str, int] = {}
    for entry in candidates:
        literal = entry.literal.lower()
        raw_distance[entry.literal] = min(
            (char_edit_distance(seg.text, literal) for seg in segments),
            default=0,
        )
        coverage[entry.literal] = -best_match.get(entry.literal, (0, 0, -1))[1]
    ranking = tuple(
        by_literal[literal]
        for literal in sorted(
            counts,
            key=lambda lit: (
                -counts[lit],
                -coverage[lit],
                raw_distance[lit],
                lit.lower(),
            ),
        )
    )
    winner = ranking[0].literal if ranking else None
    location = locations.get(winner, -1) if winner else -1
    return VoteOutcome(ranking=ranking, votes=counts, location=location)
