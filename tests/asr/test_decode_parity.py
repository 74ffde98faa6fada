"""The ASR decoder's fast path against its plain form.

The engine tries only the ``WORDS_TO_SPLCHAR`` phrases whose first word
is the heard word or one of its snap candidates, memoizes snap
candidates per engine, and memoizes ``LanguageModel.score`` per
(context, word) within each beam decode.  The oracle below keeps the
plain logic: a scan of the full phrase table at every heard word, a
snap lookup recomputed on every call, and scores computed from the
count tables on every call.  Every ``AsrResult`` must
be equal, for trained custom engines, hinted generic engines, heard
words built to snap onto phrase heads, and across a ``train()`` that
changes the vocabulary and the counts.
"""

from __future__ import annotations

import heapq
import math
import sys
import threading

import pytest

from repro.asr import engine as engine_mod
from repro.asr.channel import NOISELESS, AcousticChannel
from repro.asr.engine import (
    SimulatedAsrEngine,
    make_custom_engine,
    make_generic_engine,
)
from repro.asr.homophones import confusion_candidates
from repro.asr.verbalizer import WORDS_TO_SPLCHAR
from repro.dataset import build_employees_catalog
from repro.dataset.spoken import make_spoken_dataset
from repro.phonetics.metaphone import metaphone


def oracle_score(lm, prev: str, word: str) -> float:
    """``LanguageModel.score`` computed from the count tables."""
    prev, word = prev.lower(), word.lower()
    bigram = lm.bigrams.get((prev, word), 0.0)
    if bigram > 0.0:
        return math.log(bigram / lm._context_totals[prev])
    count = lm.unigrams.get(word, 0.0)
    return math.log(0.4) + math.log((count + 0.5) / (lm._total + 1.0))


def oracle_snaps(engine, word: str, limit: int = 4) -> list[str]:
    """The snap lookup, recomputed on every call."""
    code = metaphone(word)
    if not code:
        return []
    out = list(engine._phonetic_snap.get(code, [])[:limit])
    if len(out) >= limit:
        return out[:limit]
    seen_codes = {code}
    variants = []
    for i in range(len(code)):
        variants.append(code[:i] + code[i + 1 :])
        swapped = engine_mod._CONSONANT_SWAPS.get(code[i])
        if swapped:
            variants.append(code[:i] + swapped + code[i + 1 :])
    for variant in variants:
        if variant in seen_codes or not variant:
            continue
        seen_codes.add(variant)
        for snap in engine._phonetic_snap.get(variant, []):
            if snap not in out:
                out.append(snap)
                if len(out) >= limit:
                    return out
    return out


class OracleEngine(SimulatedAsrEngine):
    """The decoder with every lookup done the plain way."""

    def _splchar_unit(self, heard, i):
        for words, symbol in WORDS_TO_SPLCHAR:
            span = len(words)
            window = tuple(w.lower() for w in heard[i : i + span])
            if len(window) < span:
                continue
            if all(self._word_matches(h, w) for h, w in zip(window, words)):
                fid = self.splchar_fidelity
                return [
                    ([symbol], math.log(max(fid, 1e-6))),
                    (list(words), math.log(max(1.0 - fid, 1e-6))),
                ], span
        return None

    def _word_matches(self, heard, expected):
        if heard == expected:
            return True
        if self.lm.in_vocab(heard):
            return False
        return expected in oracle_snaps(self, heard)

    def _word_unit(self, word):
        candidates = []
        in_vocab = self.lm.in_vocab(word)
        keep = engine_mod._KEEP_LOGPROB
        candidates.append(([word], keep if in_vocab else keep - 1.8))
        seen = {word}
        for other in confusion_candidates(word)[1:]:
            if other in seen or not self.lm.in_vocab(other):
                continue
            seen.add(other)
            candidates.append(([other], engine_mod._SWAP_LOGPROB))
        if not in_vocab:
            for snap in oracle_snaps(self, word):
                if snap not in seen:
                    seen.add(snap)
                    candidates.append(([snap], engine_mod._SNAP_LOGPROB))
        return candidates

    def _beam_decode(self, units, nbest):
        beam = [(0.0, (), "<s>")]
        for unit in units:
            expanded = []
            for score, tokens, prev in beam:
                for cand_tokens, acoustic in unit:
                    lm_score = 0.0
                    context = prev
                    for token in cand_tokens:
                        lm_score += oracle_score(self.lm, context, token)
                        context = token
                    expanded.append((score + acoustic + 0.55 * lm_score,
                                     tokens + tuple(cand_tokens), context))
            beam = heapq.nlargest(engine_mod._BEAM_WIDTH, expanded,
                                  key=lambda e: e[0])
        out, seen = [], set()
        for _, tokens, _ in sorted(beam, key=lambda e: -e[0]):
            if tokens in seen:
                continue
            seen.add(tokens)
            out.append(list(tokens))
            if len(out) >= nbest:
                break
        return out


def oracle_of(engine: SimulatedAsrEngine) -> OracleEngine:
    """An oracle sharing ``engine``'s model, channel and verbalizer."""
    return OracleEngine(
        lm=engine.lm, channel=engine.channel, verbalizer=engine.verbalizer,
        splchar_fidelity=engine.splchar_fidelity, name="oracle",
    )


#: Heard words whose OOV forms snap onto phrase heads or phrase words
#: ("equels" snaps to "equals", "close" and "equal"; "glose" to "close"
#: and "less"), so the phrase filter must merge several heads in table
#: order.
SNAP_SEQUENCES = [
    "select count open barenthesis star close barenthesis from t".split(),
    "select a from t where b equels 5".split(),
    "select a from t where b equels parenthesis".split(),
    "select max open barenthesis a glose barenthesis from t".split(),
    "select a from t where b glose than 7 and c periot parenthesis".split(),
    "select a komma b komma c from t where d staar dott e".split(),
    "oben barenthesis equel equels glose equels".split(),
    ["equels"],
    ["glose", "barenthesis"],
]


@pytest.fixture(scope="module")
def catalog():
    return build_employees_catalog()


@pytest.fixture(scope="module")
def training(catalog):
    return [q.sql for q in
            make_spoken_dataset("train", catalog, 120, seed=7).queries]


@pytest.fixture(scope="module")
def dictations(catalog):
    return make_spoken_dataset("test", catalog, 60, seed=8).queries


def _engines(training):
    return [make_custom_engine(training), make_generic_engine()]


class TestOracleParity:
    @pytest.mark.parametrize("which", [0, 1], ids=["custom", "generic"])
    def test_seeded_dictations(self, training, dictations, which):
        engine = _engines(training)[which]
        oracle = oracle_of(engine)
        for query in dictations:
            fast = engine.transcribe(query.sql, seed=query.seed, nbest=5)
            slow = oracle.transcribe(query.sql, seed=query.seed, nbest=5)
            assert fast == slow, query.sql
        # Repeats are served from warm memos.
        for query in dictations[:10]:
            assert engine.transcribe(query.sql, seed=query.seed, nbest=5) == (
                oracle.transcribe(query.sql, seed=query.seed, nbest=5)
            )
        assert engine._snap_memo

    @pytest.mark.parametrize("which", [0, 1], ids=["custom", "generic"])
    def test_snaps_onto_phrase_heads(self, training, which):
        engine = _engines(training)[which]
        engine.channel = AcousticChannel(NOISELESS)
        oracle = oracle_of(engine)
        heads = {words[0] for words, _ in WORDS_TO_SPLCHAR}
        snapped_heads = set()
        for words in SNAP_SEQUENCES:
            for word in words:
                if not engine.lm.in_vocab(word):
                    snapped_heads |= heads & set(oracle_snaps(engine, word))
            for nbest in (1, 5):
                fast = engine.transcribe_words(words, seed=0, nbest=nbest)
                slow = oracle.transcribe_words(words, seed=0, nbest=nbest)
                assert fast == slow, words
        # The sequences really exercise OOV snaps onto several heads.
        assert {"equals", "close", "less"} <= snapped_heads

    def test_snap_candidates_stay_a_list(self, training):
        engine = make_generic_engine()
        for word in ("barenthesis", "equels", "12345", "barenthesis"):
            got = engine._snap_candidates(word)
            assert isinstance(got, list)
            assert got == oracle_snaps(engine, word)


class TestInvalidation:
    def test_train_between_transcriptions(self, training, dictations):
        engine = make_custom_engine(training[:40])
        oracle = oracle_of(engine)
        noiseless = AcousticChannel(NOISELESS)
        # "zalary" shares "salery"'s Metaphone code; "equels" becomes a
        # vocabulary word, so neither snaps as it did before training.
        probes = ["select salery from t where b equels 5".split(),
                  "select a from t where b equels parenthesis".split()]

        def check():
            # The oracle shares the model; its snap index follows it.
            oracle._rebuild_snap_index()
            for query in dictations[:20]:
                assert engine.transcribe(query.sql, seed=query.seed) == (
                    oracle.transcribe(query.sql, seed=query.seed)
                )
            for words in probes:
                assert engine.transcribe_words(
                    words, seed=0, channel=noiseless
                ) == oracle.transcribe_words(words, seed=0, channel=noiseless)

        check()
        before = (oracle_snaps(engine, "salery"),
                  engine.transcribe_words(probes[0], seed=0, channel=noiseless))
        extra = [["select", "zalary", "from", "t", "where", "b", "equels",
                  "5"]] * 40
        engine.train(extra)
        check()
        after = (oracle_snaps(engine, "salery"),
                 engine.transcribe_words(probes[0], seed=0, channel=noiseless))
        # The training really changed the snaps and the decode.
        assert before[0] != after[0]
        assert before[1] != after[1]
        engine.train_on_sql(training[40:80])
        check()

    def test_snap_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "SNAP_MEMO_SIZE", 8)
        engine = make_generic_engine()
        for i in range(50):
            word = f"zq{i}x"
            assert engine._snap_candidates(word) == oracle_snaps(engine, word)
            assert len(engine._snap_memo) <= 8


def test_threads_sharing_an_engine_agree_with_the_oracle(
    training, dictations, monkeypatch
):
    # Dispatch threads share one engine and its snap memo.  A tiny
    # bound makes the memo clear and refill constantly while the
    # threads race.
    monkeypatch.setattr(engine_mod, "SNAP_MEMO_SIZE", 4)
    engine = make_custom_engine(training)
    oracle = oracle_of(engine)
    words = [w for seq in SNAP_SEQUENCES for w in seq]
    expected = [oracle.transcribe(q.sql, seed=q.seed, nbest=5)
                for q in dictations[:20]]
    expected_words = oracle.transcribe_words(words, seed=1, nbest=5)
    failures = []

    def work(offset):
        for i in range(len(expected)):
            j = (i + offset) % len(expected)
            q = dictations[j]
            if engine.transcribe(q.sql, seed=q.seed, nbest=5) != expected[j]:
                failures.append(j)
            if engine.transcribe_words(words, seed=1, nbest=5) != (
                expected_words
            ):
                failures.append("words")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(7 * n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # A check-then-insert race can overshoot the bound by one entry per
    # thread, never more.
    assert len(engine._snap_memo) <= 4 + len(threads)
