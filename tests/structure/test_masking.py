"""Tests for SplChar handling and literal masking (Section 3.1)."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.asr.channel import AcousticChannel
from repro.asr.engine import make_custom_engine
from repro.asr.verbalizer import WORDS_TO_SPLCHAR, verbalize_sql
from repro.dataset.datagen import QueryGenerator
from repro.grammar.vocabulary import LITERAL_PLACEHOLDER, is_keyword, is_splchar
from repro.structure.masking import (
    _splchar_word_matches,
    handle_splchars,
    mask_literals,
    preprocess_transcription,
)


def handle_splchars_oracle(tokens: list[str]) -> list[str]:
    """The plain specification: try every table phrase at every token."""
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        replaced = False
        for words, symbol in WORDS_TO_SPLCHAR:
            span = len(words)
            window = tokens[i : i + span]
            if len(window) < span:
                continue
            if all(_splchar_word_matches(t, w) for t, w in zip(window, words)):
                out.append(symbol)
                i += span
                replaced = True
                break
        if not replaced:
            out.append(tokens[i])
            i += 1
    return out


class TestSplCharHandling:
    def test_basic_replacements(self):
        assert handle_splchars("a equals b".split()) == ["a", "=", "b"]
        assert handle_splchars("a less than b".split()) == ["a", "<", "b"]
        assert handle_splchars("star".split()) == ["*"]
        assert handle_splchars("open parenthesis x close parenthesis".split()) == [
            "(", "x", ")",
        ]

    def test_longest_match_wins(self):
        # "less than" must not leave a stray "than".
        out = handle_splchars("salary less than seventy".split())
        assert out == ["salary", "<", "seventy"]

    def test_fuzzy_long_words(self):
        # Garbled "parenthesis" still collapses (paper's ASR noise).
        out = handle_splchars("open barenthesis".split())
        assert out == ["("]

    def test_short_words_exact_only(self):
        # "store" must not become "*" even though it confuses with "star".
        assert handle_splchars(["store"]) == ["store"]

    def test_passthrough(self):
        words = "select salary from employees".split()
        assert handle_splchars(words) == words


class TestSplCharOracleParity:
    """The first-word index must rewrite exactly as the full table scan."""

    FUZZY = [
        "open barenthesis x close barenthesis",
        "where a quails b",
        "where a equals b and c equal d",
        "where a greater than b",
        "where a greeter than b",
        "where a not equal b",
        "where a less than",
        "select star from t where a less",
        "select asterisk from t , u",
        "select a dot b comma c period",
        "left paren x right parenthesis",
        "OPEN Parenthesis star CLOSE PARENTHESIS",
        "greater",
        "not",
        "",
    ]

    def test_fuzzy_cases(self):
        for text in self.FUZZY:
            tokens = text.split()
            assert handle_splchars(tokens) == handle_splchars_oracle(tokens), text

    def test_seeded_heard_texts(self, employees_catalog):
        queries = QueryGenerator(employees_catalog, seed=7).generate(60)
        engine = make_custom_engine(
            [q.sql for q in QueryGenerator(employees_catalog, seed=1).generate(30)]
        )
        channel = AcousticChannel()
        texts = []
        for seed, query in enumerate(queries):
            # Heard words before decoding keep the spoken operator words
            # and their garbles; the decoder's n-best are what masking
            # sees in the pipeline.
            texts.append(channel.corrupt(verbalize_sql(query.sql),
                                         random.Random(seed)))
            result = engine.transcribe(query.sql, seed=seed, nbest=5)
            texts.extend(text.split() for text in result.alternatives)
        assert any(handle_splchars_oracle(t) != t for t in texts)
        for tokens in texts:
            assert handle_splchars(tokens) == handle_splchars_oracle(tokens), tokens


class TestMasking:
    def test_paper_running_example(self):
        # "select sales from employers wear name equals Jon"
        tokens = handle_splchars(
            "select sales from employers wear name equals Jon".split()
        )
        masked = mask_literals(tokens)
        assert " ".join(masked.masked) == "SELECT x FROM x x x = x"

    def test_spans_point_at_literals(self):
        masked = preprocess_transcription("select sales from employers")
        assert masked.literal_spans == (1, 3)
        assert masked.source[1] == "sales"

    def test_placeholder_count(self):
        masked = preprocess_transcription("select a b c from t")
        assert masked.placeholder_count == 4

    @given(
        st.lists(
            st.sampled_from(
                ["select", "from", "where", "=", "salary", "employees", "x1"]
            ),
            max_size=12,
        )
    )
    def test_masking_invariants(self, tokens):
        masked = mask_literals(tokens)
        assert len(masked.masked) == len(tokens)
        assert masked.placeholder_count == sum(
            1 for t in tokens if not (is_keyword(t) or is_splchar(t))
        )
        for position, token in zip(masked.literal_spans, range(len(tokens))):
            assert masked.masked[position] == LITERAL_PLACEHOLDER
