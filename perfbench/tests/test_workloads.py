import pytest

from perfbench import workloads
from perfbench.workloads import (
    TRAIN_SEED,
    QueryPool,
    derive_seed,
    gold_clauses,
    make_session,
)


def test_derive_seed_is_stable_and_avoids_training_seed():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    seeds = {derive_seed("x", n) for n in range(2000)}
    assert TRAIN_SEED not in seeds


@pytest.fixture(scope="module")
def employees():
    return workloads.employees_catalog()


def test_query_pool_is_identical_per_seed(employees):
    exclude = set(workloads.training_sql(employees))
    take = 40
    first = QueryPool(employees, "t", 5, exclude).take(take)
    again = QueryPool(employees, "t", 5, exclude).take(take)
    other = QueryPool(employees, "t", 6, exclude).take(take)
    assert first == again
    # The seed draws the acoustic noise; the SQL sequence is fixed.
    assert [q.sql for q in first] == [q.sql for q in other]
    assert all(a.seed != b.seed for a, b in zip(first, other))
    sqls = [query.sql for query in first]
    assert len(set(sqls)) == len(sqls)
    assert not exclude & set(sqls)


def test_query_pool_extends_past_the_test_split(employees, monkeypatch):
    monkeypatch.setattr(workloads, "POOL_BLOCK", 30)
    pool = QueryPool(employees, "t", 1, set())
    sqls = [query.sql for query in pool.take(45)]
    assert len(set(sqls)) == 45
    again = QueryPool(employees, "t", 2, set()).take(45)
    assert sqls == [query.sql for query in again]


def test_sessions_are_identical_per_seed(employees):
    from repro.api import CLAUSE_NAMES, EDIT_KINDS
    from repro.asr import make_custom_engine

    engine = make_custom_engine(workloads.training_sql(employees)[:50])
    queries = QueryPool(employees, "s", 9, set()).take(12)
    first = [make_session(engine, query) for query in queries]
    again = [make_session(engine, query) for query in queries]
    assert first == again
    for query, session in zip(queries, first):
        assert session.sql == query.sql
        assert session.turn0.strip()
        assert 2 <= len(session.edits) <= 3
        clauses = gold_clauses(query.sql)
        for edit in session.edits:
            assert edit.clause in CLAUSE_NAMES
            assert edit.clause in clauses
            assert edit.kind in EDIT_KINDS
            assert edit.text.strip()
            if edit.kind == "token_patch":
                assert edit.text == clauses[edit.clause]
    # The edit plan follows the SQL; another seed changes only the noise.
    reseeded = QueryPool(employees, "s", 10, set()).take(12)
    other = [make_session(engine, query) for query in reseeded]
    assert [[e.clause for e in s.edits] for s in first] == [
        [e.clause for e in s.edits] for s in other
    ]
    assert [s.turn0 for s in first] != [s.turn0 for s in other]


def test_warmup_query_covers_every_clause_kind():
    clauses = set(gold_clauses(workloads.WARMUP_SQL))
    assert {"SELECT", "FROM", "WHERE"} <= clauses
    assert clauses & {"GROUP BY", "ORDER BY", "LIMIT"}
