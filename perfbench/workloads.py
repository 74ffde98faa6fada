"""Seeded workload inputs: test dictations and correction sessions.

Everything here is a pure function of the workload seed (plus the
program's own dataset generator), so the same seed gives byte-identical
inputs.  Test queries never repeat a training query of the daemon,
which trains its ASR model on ``TRAIN_QUERIES`` Employees queries
generated with ``TRAIN_SEED`` (what ``repro serve --train`` does).
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterator
from dataclasses import dataclass

#: The daemon's ASR training set: ``repro serve --train TRAIN_QUERIES``
#: generates it with this seed.
TRAIN_SEED = 7
TRAIN_QUERIES = 750
#: Token cap of generated queries (the dataset default).
MAX_TOKENS = 20
#: Dataset seed of the paper's Employees test split
#: (``build_spoken_datasets`` with its default seed 7 uses 7 + 1).
TEST_SPLIT_SEED = 8
#: Queries per generated block of the test pool (the paper's split size).
POOL_BLOCK = 500

#: Fixed warm-up input (independent of the seed, so set-up does the same
#: work on every run): a query with a SELECT, FROM, WHERE and tail
#: clause, i.e. every clause kind of the session decoder's lazily built
#: indexes.
WARMUP_SQL = ("SELECT DepartmentName , DepartmentNumber FROM Departments "
              "WHERE DepartmentNumber = 'd007' ORDER BY DepartmentName "
              "LIMIT 5")
WARMUP_ACOUSTIC_SEED = 12345


def derive_seed(*parts: object) -> int:
    """A 31-bit seed from ``parts``, stable across processes (unlike
    ``hash``), and never the daemon's training seed."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    seed = int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
    return seed if seed != TRAIN_SEED else seed + 1


def employees_catalog():
    from repro.dataset import build_employees_catalog

    return build_employees_catalog()


def training_sql(catalog) -> list[str]:
    """The SQL of the daemon's ASR training queries, in training order
    (what ``make_spoken_dataset("train", catalog, TRAIN_QUERIES,
    seed=TRAIN_SEED)`` generates)."""
    from repro.dataset.datagen import QueryGenerator

    generator = QueryGenerator(catalog, max_tokens=MAX_TOKENS, seed=TRAIN_SEED)
    return [record.sql for record in generator.generate(TRAIN_QUERIES)]


@dataclass(frozen=True)
class Dictation:
    """One dictation: gold SQL plus the acoustic seed of its noise."""

    sql: str
    seed: int


class QueryPool:
    """The test queries one run dictates, in a fixed order.

    The SQL sequence is the paper's Employees test split, extended block
    by block if a run gets through it; it is the same for every workload
    seed, and queries of the daemon's training set are left out.  The
    seed draws what varies between runs: the acoustic noise of each
    dictation (and, built on it, the correction sessions).  Drawing the
    SQL itself per seed made the query mix, and with it every latency
    and accuracy figure, swing between seeds (see NOTES.md).
    """

    def __init__(self, catalog, stream: str, seed: int,
                 exclude: set[str]) -> None:
        self.catalog = catalog
        self.stream = stream
        self.seed = seed
        self.exclude = exclude
        self._sql: list[str] = []
        self._blocks = 0
        self._index = 0

    def _extend(self) -> None:
        from repro.dataset.datagen import QueryGenerator

        block_seed = (TEST_SPLIT_SEED if self._blocks == 0
                      else derive_seed("pool", self._blocks))
        self._blocks += 1
        generator = QueryGenerator(self.catalog, max_tokens=MAX_TOKENS,
                                   seed=block_seed)
        seen = set(self._sql)
        for record in generator.generate(POOL_BLOCK):
            if record.sql not in self.exclude and record.sql not in seen:
                seen.add(record.sql)
                self._sql.append(record.sql)

    def __iter__(self) -> Iterator[Dictation]:
        return self

    def __next__(self) -> Dictation:
        while self._index >= len(self._sql):
            self._extend()
        index = self._index
        self._index += 1
        return Dictation(self._sql[index],
                         derive_seed(self.stream, self.seed, index))

    def take(self, n: int) -> list[Dictation]:
        return [next(self) for _ in range(n)]


@dataclass(frozen=True)
class Edit:
    """One correction turn: a ``repro.api.ClauseEdit`` in wire form."""

    kind: str
    clause: str
    text: str

    def to_wire(self) -> dict:
        return {"kind": self.kind, "clause": self.clause, "text": self.text}


@dataclass(frozen=True)
class Session:
    """A correction session: turn 0 transcription, then 2-3 edits."""

    sql: str
    turn0: str
    edits: tuple[Edit, ...]


def gold_clauses(sql: str) -> dict[str, str]:
    """Clause name (``repro.api.CLAUSE_NAMES``) -> gold clause text."""
    from repro.grammar.vocabulary import tokenize_sql
    from repro.interface.display import split_clauses

    return {
        clause.value: " ".join(tokens)
        for clause, tokens in split_clauses(tokenize_sql(sql)).items()
    }


def make_session(engine, query: Dictation) -> Session:
    """The session for one test query.

    Turn 0 is the ASR transcription of the whole query.  Each edit picks
    one of the gold query's clauses: ``redictate`` carries a fresh ASR
    transcription of that clause alone, ``token_patch`` the gold clause
    text (the user touch-typed it right).

    The edit plan (how many edits, which clauses, which kinds) is a
    function of the SQL alone, like the SQL itself; the seed draws the
    acoustic noise of every transcription.  Per-seed plans changed the
    mix of cheap and expensive turns enough to move the edit-turn median
    by a quarter between seeds.
    """
    plan = random.Random(derive_seed("session-plan", query.sql))
    noise = random.Random(derive_seed("session-noise", query.sql, query.seed))
    turn0 = engine.transcribe(query.sql, seed=query.seed, nbest=1).text
    clauses = gold_clauses(query.sql)
    names = sorted(clauses)
    edits = []
    for _ in range(plan.choice((2, 3))):
        clause = plan.choice(names)
        kind = plan.choice(("redictate", "token_patch"))
        text = clauses[clause]
        acoustic = noise.getrandbits(31)
        if kind == "redictate":
            spoken = engine.transcribe(text, seed=acoustic, nbest=1).text
            if spoken.strip():
                text = spoken
            else:
                kind = "token_patch"
        edits.append(Edit(kind, clause, text))
    return Session(sql=query.sql, turn0=turn0 or query.sql.lower(),
                   edits=tuple(edits))
