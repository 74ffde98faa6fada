"""Randomized parity: the bit-parallel kernel against the DP oracle.

Literal voting's contract is an identical :class:`VoteOutcome`
(ranking, votes, location) whichever Levenshtein implementation scores
it.  Distances are compared pair by pair on random strings — empty,
repetitive, non-ASCII, longer than a 64-bit word — and whole votes are
compared on generated segment/candidate sets, once through the
memoized kernel and once with the oracle patched into
:mod:`repro.literal.voting`, clearing the memo between the two sides so
neither borrows the other's cached distances.
"""

import random

import pytest

from repro.literal import voting
from repro.literal.segmentation import Segment
from repro.phonetics.levenshtein import char_edit_distance
from repro.phonetics.phonetic_index import PhoneticEntry
from repro.structure.masking import _levenshtein_at_most
from tests.literal.oracle import char_edit_distance as oracle_distance

#: Alphabets of generated strings: metaphone-like codes, a binary
#: alphabet (long runs of repeated characters), and non-ASCII text.
ALPHABETS = ("TKSN0FRLMPX", "ab", "aé漢ßøЖ", "abcdefghijklmnopqrstuvwxyz")


def random_string(rng: random.Random, long: bool = False) -> str:
    alphabet = rng.choice(ALPHABETS)
    length = rng.randint(60, 150) if long else rng.choice(
        (0, rng.randint(1, 4), rng.randint(1, 12))
    )
    return "".join(rng.choice(alphabet) for _ in range(length))


def random_case(rng: random.Random):
    """A (segments, candidates, window_width) voting problem."""
    alphabet = rng.choice(ALPHABETS[:3])
    long = rng.random() < 0.1

    def code() -> str:
        length = rng.randint(60, 100) if long else rng.randint(0, 7)
        return "".join(rng.choice(alphabet) for _ in range(length))

    window = rng.randint(1, 4)
    segments = []
    for start in range(window):
        for end in range(start, min(window, start + 3)):
            if rng.random() < 0.8:
                text = "".join(rng.choice("abcdeé") for _ in range(rng.randint(0, 6)))
                segments.append(Segment(text=text, code=code(), start=start, end=end))
    literals = rng.sample(
        ["d001", "d002", "Salary", "salary2", "FromDate", "ToDate", "Título",
         "EmployeeNumber", "x" * 70, "", "Ab", "ab"],
        rng.randint(1, 6),
    )
    candidates = [PhoneticEntry(literal=lit, code=code()) for lit in literals]
    return segments, candidates, window


def outcomes(cases):
    """Every vote of ``cases`` under whatever distance is installed."""
    out = []
    for segments, candidates, window in cases:
        out.append(voting.literal_assignment(segments, candidates))
        out.append(voting.literal_assignment(segments, candidates, anchor=0))
        out.append(voting.literal_assignment(segments, candidates, anchor=1))
        out.append(voting.score_assignment(segments, candidates, window))
    return out


class TestDistance:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("", ""),
            ("", "abc"),
            ("abc", ""),
            ("a" * 64, "a" * 65),
            ("a" * 130, "b" * 129),
            ("ab" * 40, "ba" * 40),
            ("é漢", "漢é"),
            ("TKSNT", "TKSNT"),
        ],
        ids=["both-empty", "empty-a", "empty-b", "64-vs-65", "130-vs-129",
             "alternating", "non-ascii", "equal"],
    )
    def test_edge_cases(self, a, b):
        assert char_edit_distance(a, b) == oracle_distance(a, b)

    def test_random_pairs_match_oracle(self):
        rng = random.Random(2019)
        for _ in range(3000):
            a = random_string(rng, long=rng.random() < 0.1)
            b = random_string(rng, long=rng.random() < 0.1)
            assert char_edit_distance(a, b) == oracle_distance(a, b), (a, b)

    def test_memoized_answer_is_the_computed_one(self):
        rng = random.Random(7)
        pairs = [(random_string(rng), random_string(rng)) for _ in range(200)]
        char_edit_distance.cache_clear()
        cold = [char_edit_distance(a, b) for a, b in pairs]
        warm = [char_edit_distance(a, b) for a, b in pairs]
        assert cold == warm
        assert char_edit_distance.cache_info().hits >= len(pairs)

    def test_masking_threshold_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(2000):
            a, b = random_string(rng), random_string(rng)
            k = rng.randint(0, 3)
            assert _levenshtein_at_most(a, b, k) == (oracle_distance(a, b) <= k)


class TestVoteParity:
    def test_generated_votes_identical(self, monkeypatch):
        rng = random.Random(4300)
        cases = [random_case(rng) for _ in range(300)]
        char_edit_distance.cache_clear()
        kernel = outcomes(cases)
        char_edit_distance.cache_clear()
        monkeypatch.setattr(voting, "char_edit_distance", oracle_distance)
        oracle = outcomes(cases)
        assert kernel == oracle

    def test_warm_memo_votes_identical(self, monkeypatch):
        # Scoring the same windows again (as n-best alternatives and
        # runner-up structures do) is served from the memo.
        rng = random.Random(5)
        cases = [random_case(rng) for _ in range(100)]
        char_edit_distance.cache_clear()
        cold = outcomes(cases)
        warm = outcomes(cases)
        char_edit_distance.cache_clear()
        monkeypatch.setattr(voting, "char_edit_distance", oracle_distance)
        assert cold == warm == outcomes(cases)
