"""Tests for the LiteralFinder walk (Box 3)."""

import json
import sys
import threading
import time

import pytest

from repro.core.stages import LiteralStage, MaskedQuery, QueryContext, StructureMatches
from repro.errors import DeadlineExceededError
from repro.grammar.categorizer import LiteralCategory
from repro.literal import determiner as determiner_module
from repro.literal.determiner import LITERAL_STAGE, LiteralDeterminer
from repro.observability.forensics import QueryRecord
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


MEMO_CASES = [
    (RUNNING_TEXT, "SELECT x FROM x WHERE x = x"),
    ("select first name from employees where salary greater than 70000",
     "SELECT x FROM x WHERE x > x"),
    ("select last name from employees limit ten", "SELECT x FROM x LIMIT x"),
    ("select average salary from salaries", "SELECT AVG ( x ) FROM x"),
    ("select star from employees where hire date equals january 5 1990",
     "SELECT * FROM x WHERE x = x"),
]


def determine_recorded(det, text, structure):
    """``(result, forensic placeholder traces as JSON)`` of one walk."""
    record = QueryRecord(mode="transcription", input_text=text)
    source = list(preprocess_transcription(text).source)
    result = det.determine(source, tuple(structure.split()), record=record)
    traces = json.dumps([t.to_dict() for t in record.placeholders])
    return result, traces


class TestPlaceholderMemo:
    """Each placeholder resolution is memoized on all of its inputs; a
    hit must be indistinguishable from a fresh vote."""

    @pytest.mark.parametrize("text,structure", MEMO_CASES)
    def test_warm_run_matches_cold_run(self, small_catalog, text, structure):
        det = LiteralDeterminer(small_catalog)
        cold, cold_traces = determine_recorded(det, text, structure)
        misses = det.cache_info().misses
        assert misses > 0
        warm, warm_traces = determine_recorded(det, text, structure)
        assert warm == cold
        assert warm_traces == cold_traces  # byte-identical forensics
        info = det.cache_info()
        assert info.misses == misses  # nothing voted again
        assert info.hits >= len(cold.literals)
        # A fresh determiner agrees with both.
        fresh, fresh_traces = determine_recorded(
            LiteralDeterminer(small_catalog), text, structure
        )
        assert (fresh, fresh_traces) == (cold, cold_traces)

    def test_hit_traces_do_not_share_state(self, small_catalog):
        det = LiteralDeterminer(small_catalog)
        record = QueryRecord(mode="transcription", input_text=RUNNING_TEXT)
        source = list(preprocess_transcription(RUNNING_TEXT).source)
        det.determine(source, RUNNING_STRUCTURE, record=record)
        expected = json.dumps([t.to_dict() for t in record.placeholders])
        for trace in record.placeholders:
            trace.votes.clear()  # a consumer scribbling on its record
        _, traces = determine_recorded(
            det, RUNNING_TEXT, " ".join(RUNNING_STRUCTURE)
        )
        assert traces == expected

    def test_settings_are_part_of_the_key(self, small_catalog):
        det = LiteralDeterminer(small_catalog, narrow_attributes=False)
        fill(det, RUNNING_TEXT, " ".join(RUNNING_STRUCTURE))
        det.top_k = 1
        narrowed = fill(det, RUNNING_TEXT, " ".join(RUNNING_STRUCTURE))
        expected = fill(
            LiteralDeterminer(small_catalog, narrow_attributes=False, top_k=1),
            RUNNING_TEXT, " ".join(RUNNING_STRUCTURE),
        )
        assert narrowed == expected
        assert all(len(lit.candidates) <= 1 for lit in narrowed.literals)

    def test_memo_is_bounded(self, small_catalog, monkeypatch):
        monkeypatch.setattr(determiner_module, "PLACEHOLDER_MEMO_SIZE", 3)
        det = LiteralDeterminer(small_catalog)
        for text, structure in MEMO_CASES:
            fill(det, text, structure)
            assert det.cache_info().currsize <= 3
        det.cache_clear()
        assert det.cache_info() == (0, 0, 3, 0)

    def test_deadline_fires_when_every_placeholder_is_a_hit(
        self, small_catalog
    ):
        clock = StepClock(live=2)
        det = LiteralDeterminer(small_catalog, narrow_attributes=False,
                                clock=clock)
        source = list(preprocess_transcription(RUNNING_TEXT).source)
        det.determine(source, RUNNING_STRUCTURE)  # warm; clock unread
        before = det.cache_info()
        with pytest.raises(DeadlineExceededError) as info:
            det.determine(source, RUNNING_STRUCTURE,
                          deadline=time.perf_counter() + HOUR)
        assert info.value.stage == LITERAL_STAGE
        assert "placeholder 2" in str(info.value)
        after = det.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 2

    def test_threads_sharing_a_determiner_agree(
        self, small_catalog, monkeypatch
    ):
        # More threads than cores, a short switch interval and a tiny
        # memo, so lookups, inserts and evictions interleave.
        expected, lookups = [], 0
        for case in MEMO_CASES:
            fresh = LiteralDeterminer(small_catalog)
            expected.append(determine_recorded(fresh, *case))
            info = fresh.cache_info()
            lookups += info.hits + info.misses
        monkeypatch.setattr(determiner_module, "PLACEHOLDER_MEMO_SIZE", 4)
        shared = LiteralDeterminer(small_catalog)
        answers: dict[int, list] = {}

        def work(worker: int) -> None:
            order = MEMO_CASES if worker % 2 else MEMO_CASES[::-1]
            got = {}
            for _ in range(5):
                for case in order:
                    got[case] = determine_recorded(shared, *case)
            answers[worker] = [got[case] for case in MEMO_CASES]

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == {w: expected for w in range(4)}
        # Every lookup was counted: no lost update on the counters.
        info = shared.cache_info()
        assert info.hits + info.misses == 4 * 5 * lookups


def resolve(det, tokens, begin, idx, category, value_type=None,
            tables=None, numeric_only=False):
    """``(literal, forensic trace as JSON)`` of one placeholder resolved
    over the literal window starting at ``begin``."""
    end = begin
    while end < len(tokens) and tokens[end] != "|":
        end += 1
    trace: list = []
    literal = det._resolve_placeholder(
        tokens, begin, end, idx, category, value_type, tables,
        numeric_only=numeric_only, trace=trace,
    )
    return literal, json.dumps([t.to_dict() for t in trace])


#: (window tokens, category, value type, narrowing tables, numeric-only)
WINDOWS = [
    (["first", "name", "wear"], LiteralCategory.ATTRIBUTE, None, None, False),
    (["hire", "date"], LiteralCategory.ATTRIBUTE, None, ["Salaries"], False),
    (["celeries"], LiteralCategory.TABLE, None, None, False),
    (["karsten"], LiteralCategory.VALUE, None, None, False),
    (["45000", "310"], LiteralCategory.VALUE, "int", None, False),
    (["january", "5", "1990"], LiteralCategory.VALUE, "date", None, False),
    (["salary", "to"], LiteralCategory.ATTRIBUTE, None, None, True),
    ([], LiteralCategory.ATTRIBUTE, None, None, False),
]


class TestPositionFreeMemo:
    """A resolution depends on the window's tokens, not on where the
    window sits: the memo is shared across offsets and placeholder
    indices, and each use is placed where it is used."""

    @pytest.mark.parametrize(
        "window,category,value_type,tables,numeric_only", WINDOWS,
        ids=["attribute", "narrowed", "table", "value", "int", "date",
             "numeric-arg", "empty"],
    )
    def test_one_window_at_two_offsets(
        self, small_catalog, window, category, value_type, tables,
        numeric_only,
    ):
        det = LiteralDeterminer(small_catalog)
        placements = [(["|"] + window + ["|"], 1, 0),
                      (["|"] * 6 + window + ["|", "x"], 6, 3)]
        for tokens, begin, idx in placements:
            got = resolve(det, tokens, begin, idx, category, value_type,
                          tables, numeric_only)
            fresh = resolve(LiteralDeterminer(small_catalog), tokens, begin,
                            idx, category, value_type, tables, numeric_only)
            assert got == fresh
            assert got[0].index == idx
            assert got[0].window[0] == begin
        # The second placement was voted by nobody: a memo hit.
        assert det.cache_info().misses == 1
        assert det.cache_info().hits == 1

    def test_narrowing_tables_are_part_of_an_attribute_key(
        self, small_catalog
    ):
        det = LiteralDeterminer(small_catalog)
        tokens = ["hire", "date"]
        wide = resolve(det, tokens, 0, 0, LiteralCategory.ATTRIBUTE)
        narrow = resolve(det, tokens, 0, 0, LiteralCategory.ATTRIBUTE,
                         tables=["Salaries"])
        assert wide[0].text == "HireDate"
        assert narrow == resolve(
            LiteralDeterminer(small_catalog), tokens, 0, 0,
            LiteralCategory.ATTRIBUTE, tables=["Salaries"],
        )
        assert narrow[0].text != wide[0].text

    def test_walk_two_hits_for_table_and_value_slots(self, small_catalog):
        det = LiteralDeterminer(small_catalog)
        voted: list[LiteralCategory] = []
        original = det._vote_placeholder

        def spy(window_tokens, category, *args):
            voted.append(category)
            return original(window_tokens, category, *args)

        det._vote_placeholder = spy
        record = QueryRecord(mode="transcription", input_text=RUNNING_TEXT)
        source = list(preprocess_transcription(RUNNING_TEXT).source)
        result = det.determine(source, RUNNING_STRUCTURE, record=record)
        A, T, V = (LiteralCategory.ATTRIBUTE, LiteralCategory.TABLE,
                   LiteralCategory.VALUE)
        # Walk 1 votes all four slots; walk 2 votes only the attributes,
        # whose candidates it narrows to the FROM table.
        assert voted == [A, T, A, V, A, A]
        assert det.cache_info().hits == 2
        fresh_record = QueryRecord(mode="transcription",
                                   input_text=RUNNING_TEXT)
        fresh = LiteralDeterminer(small_catalog).determine(
            source, RUNNING_STRUCTURE, record=fresh_record
        )
        assert result == fresh
        assert [t.to_dict() for t in record.placeholders] == [
            t.to_dict() for t in fresh_record.placeholders
        ]
