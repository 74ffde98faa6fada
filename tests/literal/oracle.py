"""The per-pair literal vote: parity oracle for production voting.

Two reference implementations live here, outside ``src``:

- :func:`char_edit_distance`, the textbook O(len(a) * len(b))
  Levenshtein DP that the bit-parallel kernel of
  :mod:`repro.phonetics.levenshtein` must match distance for distance;
- :func:`literal_assignment` / :func:`score_assignment`, Box 3's vote
  as defined pair by pair: every (segment, candidate) distance is
  computed on its own, through the DP, in the order the definition
  reads.  Production derives the same outcome from cached distance rows
  (:mod:`repro.literal.voting`); every :class:`VoteOutcome` must be
  equal (``test_voting_parity.py``,
  ``benchmarks/bench_literal_voting.py``).
"""

from __future__ import annotations

from repro.literal.segmentation import Segment
from repro.literal.voting import VoteOutcome
from repro.phonetics.phonetic_index import PhoneticEntry


def char_edit_distance(a: str, b: str) -> int:
    """Plain Levenshtein distance (insert/delete/substitute) on strings."""
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i]
        ai = a[i - 1]
        for j in range(1, m + 1):
            if ai == b[j - 1]:
                cur.append(prev[j - 1])
            else:
                cur.append(1 + min(prev[j - 1], prev[j], cur[j - 1]))
        prev = cur
    return prev[m]


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
