"""Randomized parity: production voting against the per-pair oracle.

Literal voting's contract is an identical :class:`VoteOutcome`
(ranking, votes, location) to the per-pair vote of
``tests/literal/oracle.py``, which scores every (segment, candidate)
pair on its own through the full-table DP.  Distances are compared pair
by pair and row by row on random strings — empty, repetitive,
non-ASCII, longer than a 64-bit word — and whole votes on generated
segment/candidate sets: duplicate and case-twin literals, empty
segment sets and codes, codes over 64 characters, no anchor and both
anchors, and the coverage-aware ``score_assignment``.  Production runs
with its row cache cold and warm.
"""

import random

import pytest

from repro.literal import voting
from repro.literal.segmentation import Segment
from repro.phonetics.levenshtein import PackedTexts, char_edit_distance
from repro.phonetics.phonetic_index import CandidatePool, PhoneticEntry
from repro.structure.masking import _levenshtein_at_most
from tests.literal import oracle
from tests.literal.oracle import char_edit_distance as oracle_distance

#: Alphabets of generated strings: metaphone-like codes, a binary
#: alphabet (long runs of repeated characters), and non-ASCII text.
ALPHABETS = ("TKSN0FRLMPX", "ab", "aé漢ßøЖ", "abcdefghijklmnopqrstuvwxyz")

LITERALS = ["d001", "d002", "Salary", "salary2", "FromDate", "ToDate",
            "Título", "EmployeeNumber", "x" * 70, "", "Ab", "ab", "AB"]


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
    literals = rng.sample(LITERALS, rng.randint(1, 6))
    if rng.random() < 0.3:
        # A literal listed twice (two columns of one table), with its
        # own code each time.
        literals.insert(rng.randint(0, len(literals)), rng.choice(literals))
    candidates = [PhoneticEntry(literal=lit, code=code()) for lit in literals]
    return segments, candidates, window


def edge_cases():
    """Hand-built problems the generator reaches only by chance."""
    long_code = "TKSN" * 20
    duplicate = [PhoneticEntry("Salary", "SLR"), PhoneticEntry("Name", "NM"),
                 PhoneticEntry("Salary", "SLRS")]
    twins = [PhoneticEntry("ab", "AB"), PhoneticEntry("Ab", "AB"),
             PhoneticEntry("AB", "AB")]
    return [
        ([], duplicate, 2),  # no segments at all
        ([Segment("", "", 0, 0)], duplicate, 1),  # empty text and code
        ([Segment("salary", "SLR", 0, 0), Segment("salaries", "SLRS", 1, 1)],
         duplicate, 2),
        ([Segment("ab", "AB", 0, 0), Segment("abb", "AB", 0, 1)], twins, 2),
        ([Segment("x", long_code, 0, 0), Segment("y", long_code + "T", 1, 1)],
         [PhoneticEntry("Long", long_code[:-1]),
          PhoneticEntry("Longer", long_code + "TK")], 2),
        ([Segment("a", "", 0, 0)],
         [PhoneticEntry("", ""), PhoneticEntry("b", "")], 1),
    ]


def outcomes(cases, module):
    """Every vote of ``cases`` through ``module``'s vote functions."""
    out = []
    for segments, candidates, window in cases:
        out.append(module.literal_assignment(segments, candidates))
        out.append(module.literal_assignment(segments, candidates, anchor=0))
        out.append(module.literal_assignment(segments, candidates, anchor=1))
        out.append(module.score_assignment(segments, candidates, window))
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
        assert PackedTexts([b, a, ""]).row(a) == [
            oracle_distance(a, b), 0, len(a)
        ]

    def test_random_pairs_match_oracle(self):
        rng = random.Random(2019)
        for _ in range(3000):
            a = random_string(rng, long=rng.random() < 0.1)
            b = random_string(rng, long=rng.random() < 0.1)
            assert char_edit_distance(a, b) == oracle_distance(a, b), (a, b)

    def test_random_rows_match_oracle(self):
        # Lanes of every width side by side (empty ones included), each
        # shorter or longer than the query: no carry crosses a lane.
        rng = random.Random(2020)
        for _ in range(300):
            query = random_string(rng, long=rng.random() < 0.1)
            texts = [random_string(rng, long=rng.random() < 0.1)
                     for _ in range(rng.randint(0, 12))]
            assert PackedTexts(texts).row(query) == [
                oracle_distance(query, text) for text in texts
            ], (query, texts)

    def test_memoized_answer_is_the_computed_one(self):
        # The row cache returns the rows the kernel computes, and a
        # repeat of a (segment strings, pool) key is a hit.
        rng = random.Random(7)
        pool = CandidatePool.of(
            PhoneticEntry(random_string(rng), random_string(rng))
            for _ in range(20)
        )
        keys = [(random_string(rng), random_string(rng)) for _ in range(200)]
        voting.segment_rows.cache_clear()
        cold = [voting.segment_rows(text, code, pool) for text, code in keys]
        warm = [voting.segment_rows(text, code, pool) for text, code in keys]
        assert cold == warm
        assert voting.segment_rows.cache_info().hits >= len(keys)
        for (text, code), (code_row, raw_row) in zip(keys, cold):
            assert list(code_row) == [oracle_distance(code, c)
                                      for c in pool.codes]
            assert list(raw_row) == [oracle_distance(text, t)
                                     for t in pool.lowered]

    def test_masking_threshold_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(2000):
            a, b = random_string(rng), random_string(rng)
            k = rng.randint(0, 3)
            assert _levenshtein_at_most(a, b, k) == (oracle_distance(a, b) <= k)


class TestVoteParity:
    def test_generated_votes_identical(self):
        rng = random.Random(4300)
        cases = [random_case(rng) for _ in range(300)]
        voting.segment_rows.cache_clear()
        assert outcomes(cases, voting) == outcomes(cases, oracle)

    def test_edge_case_votes_identical(self):
        cases = edge_cases()
        voting.segment_rows.cache_clear()
        production = outcomes(cases, voting)
        assert production == outcomes(cases, oracle)
        # A duplicate literal keeps the dict semantics of the
        # definition: its entries vote separately into one count.
        assert production[8].votes == {"Salary": 2, "Name": 0}

    def test_warm_memo_votes_identical(self):
        # Scoring the same windows again (as n-best alternatives and
        # runner-up structures do) is served from the row cache, and a
        # candidate pool votes like the list it was built from.
        rng = random.Random(5)
        cases = [random_case(rng) for _ in range(100)] + edge_cases()
        pooled = [(segments, CandidatePool.of(candidates), window)
                  for segments, candidates, window in cases]
        voting.segment_rows.cache_clear()
        cold = outcomes(pooled, voting)
        misses = voting.segment_rows.cache_info().misses
        warm = outcomes(pooled, voting)
        assert voting.segment_rows.cache_info().misses == misses
        assert cold == warm == outcomes(cases, voting) == outcomes(cases, oracle)
