"""Tests for the LiteralFinder walk (Box 3)."""

import time

import pytest

from repro.core.stages import LiteralStage, MaskedQuery, QueryContext, StructureMatches
from repro.errors import DeadlineExceededError
from repro.grammar.categorizer import LiteralCategory
from repro.literal.determiner import LITERAL_STAGE, LiteralDeterminer
from repro.structure.masking import preprocess_transcription
from repro.structure.search import SearchResult


@pytest.fixture(scope="session")
def det(small_catalog):
    # narrow_attributes off: these tests check the paper-faithful flow
    # where set B is selected by category alone (Section 4.1).
    return LiteralDeterminer(small_catalog, narrow_attributes=False)


def fill(det, transcription, structure_text):
    masked = preprocess_transcription(transcription)
    return det.determine(list(masked.source), tuple(structure_text.split()))


class TestPaperRunningExample:
    def test_figure2_flow(self, det):
        # "select sales from employers wear name equals Jon"
        result = fill(
            det,
            "select salary from employers wear first name equals Karsten",
            "SELECT x FROM x WHERE x = x",
        )
        literals = [lit.text for lit in result.literals]
        assert literals[0] == "salary"
        assert literals[1] == "Employees"
        assert literals[2] == "FirstName"
        assert literals[3] == "Karsten"

    def test_sql_rendering_quotes_values(self, det):
        result = fill(
            det,
            "select salary from employees where first name equals Karsten",
            "SELECT x FROM x WHERE x = x",
        )
        assert result.sql().endswith("= 'Karsten'")


class TestSplitTokenMerging:
    def test_split_attribute_merged(self, det):
        result = fill(
            det,
            "select first name from employees",
            "SELECT x FROM x",
        )
        assert result.literals[0].text == "FirstName"
        assert result.literals[1].text == "Employees"


class TestCategoryCandidates:
    def test_table_slot_gets_table(self, det):
        result = fill(det, "select salary from celeries", "SELECT x FROM x")
        assert result.literals[1].text == "Salaries"
        assert result.literals[1].category is LiteralCategory.TABLE

    def test_attribute_narrowed_by_table(self, det):
        # "to date" only exists in Salaries; narrowing must find it.
        result = fill(
            det,
            "select to date from salaries",
            "SELECT x FROM x",
        )
        assert result.literals[0].text == "ToDate"


class TestTypedValues:
    def test_numeric_value_from_attribute_type(self, det):
        result = fill(
            det,
            "select last name from salaries where salary greater than 45000 310",
            "SELECT x FROM x WHERE x > x",
        )
        value = result.literals[-1]
        assert value.text == "45310"
        assert value.value_type == "int"

    def test_limit_is_integer(self, det):
        result = fill(
            det,
            "select salary from salaries limit 5",
            "SELECT x FROM x LIMIT x",
        )
        assert result.literals[-1].text == "5"

    def test_date_value(self, det):
        result = fill(
            det,
            "select salary from salaries where from date equals 1993-01-20",
            "SELECT x FROM x WHERE x = x",
        )
        assert result.literals[-1].text == "1993-01-20"
        assert "'1993-01-20'" in result.sql()


class TestRobustness:
    def test_missing_window_falls_back(self, det):
        # Structure expects more literals than transcription provides.
        result = fill(det, "select salary from", "SELECT x FROM x")
        assert len(result.literals) == 2

    def test_tokens_align_with_structure(self, det):
        result = fill(
            det,
            "select salary from employees where gender equals M",
            "SELECT x FROM x WHERE x = x",
        )
        tokens = result.tokens
        assert tokens[0] == "SELECT"
        assert tokens.count("FROM") == 1
        assert len(tokens) == 8

    def test_candidates_ranked(self, det):
        result = fill(det, "select salary from employees", "SELECT x FROM x")
        first = result.literals[0]
        assert first.candidates[0] == first.text
        assert len(first.candidates) <= det.top_k


class StepClock:
    """An injected clock: real time for the first ``live`` reads, then a
    jump far past any deadline a test sets."""

    def __init__(self, live: int) -> None:
        self.live = live
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        if self.reads > self.live:
            return time.perf_counter() + 10 * HOUR
        return time.perf_counter()


HOUR = 3600.0
RUNNING_TEXT = "select salary from employers wear first name equals Karsten"
RUNNING_STRUCTURE = tuple("SELECT x FROM x WHERE x = x".split())


def spied_determiner(catalog, clock, resolved: list[int]) -> LiteralDeterminer:
    det = LiteralDeterminer(catalog, narrow_attributes=False, clock=clock)
    original = det._resolve_placeholder

    def spy(tokens, begin, end, idx, *args, **kwargs):
        resolved.append(idx)
        return original(tokens, begin, end, idx, *args, **kwargs)

    det._resolve_placeholder = spy
    return det


class TestPlaceholderDeadline:
    """The deadline is checked before every placeholder, so an expiry
    mid-walk stops at the next placeholder, not the next stage."""

    def source(self):
        return list(preprocess_transcription(RUNNING_TEXT).source)

    def test_expiry_mid_walk_stops_at_the_next_placeholder(self, small_catalog):
        resolved: list[int] = []
        det = spied_determiner(small_catalog, StepClock(live=2), resolved)
        with pytest.raises(DeadlineExceededError) as info:
            det.determine(
                self.source(), RUNNING_STRUCTURE,
                deadline=time.perf_counter() + HOUR,
            )
        assert info.value.stage == LITERAL_STAGE
        assert "placeholder 2" in str(info.value)
        # Two of the four placeholders ran; the walk never finished.
        assert resolved == [0, 1]

    def test_unexpired_deadline_changes_nothing(self, small_catalog):
        clock = StepClock(live=10**6)
        det = LiteralDeterminer(small_catalog, narrow_attributes=False,
                                clock=clock)
        plain = det.determine(self.source(), RUNNING_STRUCTURE)
        assert clock.reads == 0  # no deadline: the clock is never read
        timed = det.determine(self.source(), RUNNING_STRUCTURE,
                              deadline=time.perf_counter() + HOUR)
        assert timed == plain
        assert clock.reads == len(plain.literals)

    def test_literal_stage_threads_the_query_deadline(self, small_catalog):
        resolved: list[int] = []
        det = spied_determiner(small_catalog, StepClock(live=1), resolved)
        masked = preprocess_transcription(RUNNING_TEXT)
        matches = StructureMatches(
            masked=MaskedQuery(masked=masked,
                               search_tokens=tuple(masked.masked)),
            results=(SearchResult(structure=RUNNING_STRUCTURE, distance=2.2),),
        )
        ctx = QueryContext(deadline=time.perf_counter() + HOUR)
        with pytest.raises(DeadlineExceededError) as info:
            LiteralStage(determiner=det).run(matches, ctx)
        assert info.value.stage == LITERAL_STAGE
        assert resolved == [0]
