"""Tests for random query generation (paper §6.1 steps 2-4)."""

import random

import pytest

from repro.dataset.datagen import QueryGenerator
from repro.execution import SQLiteBackend
from repro.grammar.categorizer import LiteralCategory
from repro.sqlengine.executor import execute
from repro.sqlengine.parser import parse_select


@pytest.fixture(scope="module")
def records(request):
    catalog = request.getfixturevalue("employees_catalog")
    return QueryGenerator(catalog, seed=5).generate(60), catalog


class TestGeneration:
    def test_requested_count(self, records):
        recs, _ = records
        assert len(recs) == 60

    def test_deterministic(self, employees_catalog):
        a = QueryGenerator(employees_catalog, seed=9).generate(10)
        b = QueryGenerator(employees_catalog, seed=9).generate(10)
        assert [r.sql for r in a] == [r.sql for r in b]

    def test_all_parseable(self, records):
        recs, _ = records
        for record in recs:
            parse_select(record.sql)

    def test_all_executable(self, records):
        recs, catalog = records
        for record in recs:
            execute(parse_select(record.sql), catalog)

    @pytest.mark.xfail(
        strict=True,
        reason="QueryGenerator emits bare column names that are ambiguous "
               "across the FROM tables (e.g. SELECT MIN ( EmployeeNumber ) "
               "FROM Salaries , Titles); the in-house executor resolves "
               "them permissively, SQLite rejects 7 of these 60",
    )
    def test_all_executable_on_sqlite(self, records):
        recs, catalog = records
        with SQLiteBackend() as backend:
            backend.load_catalog(catalog)
            for record in recs:
                backend.execute(record.sql)

    def test_structures_match_sql(self, records):
        recs, _ = records
        for record in recs:
            assert len(record.structure) == len(record.sql.split())
            # placeholder count equals bound literal count
            assert record.structure.count("x") == len(record.categories)

    def test_token_budget(self, records):
        recs, _ = records
        assert all(len(r.structure) <= 20 for r in recs)

    def test_length_spread(self, records):
        recs, _ = records
        lengths = {len(r.structure) for r in recs}
        assert len(lengths) >= 8  # spread over the feasible range

    def test_tables_recorded(self, records):
        recs, catalog = records
        names = {n.lower() for n in catalog.table_names()}
        for record in recs:
            assert record.tables
            assert {t.lower() for t in record.tables} <= names


class TestBinding:
    def test_categories_drive_binding(self, employees_catalog):
        generator = QueryGenerator(employees_catalog, seed=2)
        rng = random.Random(0)
        structure = tuple("SELECT x FROM x WHERE x = x".split())
        record = generator.bind(structure, rng)
        assert record is not None
        assert record.categories == (
            LiteralCategory.ATTRIBUTE,
            LiteralCategory.TABLE,
            LiteralCategory.ATTRIBUTE,
            LiteralCategory.VALUE,
        )

    def test_star_group_by_rejected(self, employees_catalog):
        generator = QueryGenerator(employees_catalog, seed=2)
        rng = random.Random(0)
        structure = tuple("SELECT * FROM x GROUP BY x".split())
        assert generator.bind(structure, rng) is None

    def test_aggregate_gets_numeric_column(self, employees_catalog):
        generator = QueryGenerator(employees_catalog, seed=2)
        rng = random.Random(1)
        structure = tuple("SELECT AVG ( x ) FROM x".split())
        for _ in range(10):
            record = generator.bind(structure, rng)
            if record is None:
                continue
            stmt = parse_select(record.sql)
            execute(stmt, employees_catalog)  # AVG over strings would raise

    def test_dotted_join_binds_shared_key(self, employees_catalog):
        generator = QueryGenerator(employees_catalog, seed=2)
        rng = random.Random(3)
        structure = tuple(
            "SELECT x FROM x , x WHERE x . x = x . x".split()
        )
        record = None
        for _ in range(20):
            record = generator.bind(structure, rng)
            if record is not None:
                break
        assert record is not None
        stmt = parse_select(record.sql)
        execute(stmt, employees_catalog)
