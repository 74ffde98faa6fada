"""Tests for the database phonetic index."""

from repro.grammar.categorizer import LiteralCategory
from repro.phonetics import PhoneticIndex
from repro.phonetics.metaphone import metaphone
from repro.phonetics.soundex import soundex


class TestBuild:
    def test_tables_indexed(self, small_catalog):
        index = PhoneticIndex.from_catalog(small_catalog)
        literals = {e.literal for e in index.table_entries}
        assert literals == {"Employees", "Salaries"}

    def test_attribute_codes_match_spoken_form(self, small_catalog):
        index = PhoneticIndex.from_catalog(small_catalog)
        by_literal = {e.literal: e.code for e in index.attribute_entries}
        # FirstName indexes like the spoken phrase "first name".
        assert by_literal["FirstName"] == metaphone("first name")

    def test_values_strings_only(self, small_catalog):
        index = PhoneticIndex.from_catalog(small_catalog)
        literals = {e.literal for e in index.value_entries}
        assert "Karsten" in literals
        assert all(isinstance(lit, str) for lit in literals)
        # numbers and dates excluded
        assert "80000" not in literals

    def test_size(self, small_catalog):
        index = PhoneticIndex.from_catalog(small_catalog)
        assert index.size() == len(index.table_entries) + len(
            index.attribute_entries
        ) + len(index.value_entries)

    def test_value_limit(self, small_catalog):
        full = PhoneticIndex.from_catalog(small_catalog)
        capped = PhoneticIndex.from_catalog(small_catalog, value_limit_per_column=1)
        assert len(capped.value_entries) <= len(full.value_entries)

    def test_alternative_encoder(self, small_catalog):
        index = PhoneticIndex.from_catalog(small_catalog, encoder=soundex)
        entry = index.table_entries[0]
        assert entry.code == soundex(entry.literal) or len(entry.code) == 4


class TestCandidates:
    def test_table_candidates(self, small_catalog):
        index = PhoneticIndex.from_catalog(small_catalog)
        cands = index.candidates(LiteralCategory.TABLE)
        assert {e.literal for e in cands} == {"Employees", "Salaries"}

    def test_attribute_candidates_narrowed(self, small_catalog):
        index = PhoneticIndex.from_catalog(small_catalog)
        cands = index.candidates(LiteralCategory.ATTRIBUTE, tables=["Salaries"])
        assert {e.literal for e in cands} == {
            "EmployeeNumber", "salary", "FromDate", "ToDate",
        }

    def test_attribute_candidates_unknown_table_falls_back(self, small_catalog):
        index = PhoneticIndex.from_catalog(small_catalog)
        cands = index.candidates(LiteralCategory.ATTRIBUTE, tables=["Nope"])
        assert len(cands) == len(index.attribute_entries)

    def test_value_candidates(self, small_catalog):
        index = PhoneticIndex.from_catalog(small_catalog)
        cands = index.candidates(LiteralCategory.VALUE)
        assert {e.literal for e in cands} >= {"Karsten", "Goh", "Perla"}

    def test_pools_are_built_once_per_category_and_tables(self, small_catalog):
        index = PhoneticIndex.from_catalog(small_catalog)
        narrowed = index.candidates(LiteralCategory.ATTRIBUTE, ["Salaries"])
        assert index.candidates(LiteralCategory.ATTRIBUTE, ("Salaries",)) is narrowed
        assert index.candidates(LiteralCategory.ATTRIBUTE) is not narrowed
        # Only attribute lookups read the tables.
        tables = index.candidates(LiteralCategory.TABLE)
        assert index.candidates(LiteralCategory.TABLE, ["Salaries"]) is tables
        assert narrowed.codes == tuple(e.code for e in narrowed)
        assert narrowed.lowered == tuple(e.literal.lower() for e in narrowed)
