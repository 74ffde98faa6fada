"""Simulated ASR engines: acoustic channel + language-model beam decoder.

``SimulatedAsrEngine`` plays the role of Azure Custom Speech / Google
Cloud Speech in the paper: it takes a dictated SQL query (text), renders
it to spoken words (the "audio"), corrupts them through the acoustic
channel, and decodes the heard words back into a transcription via beam
search over confusion candidates scored by a language model.  The result
carries an n-best list, mirroring the "top 5 outputs" evaluation of
paper Table 2.

Two factory functions build the paper's two engines:

- :func:`make_custom_engine` — trained on spoken SQL transcripts
  (ACS-like): vocabulary covers schema words and bigrams prefer SQL
  keyword sequences, so homophone errors are frequently corrected.
- :func:`make_generic_engine` — untrained dictation model with keyword
  "hints" (GCS-like, Appendix F.3): strong on special characters
  (hints), weak on keywords-vs-English homophones and schema literals.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from repro.asr.channel import PAUSE, AcousticChannel, ChannelProfile
from repro.asr.dates import MONTH_NAMES, is_date_word, words_to_date
from repro.asr.homophones import confusion_candidates
from repro.asr.language_model import LanguageModel
from repro.asr.numbers import is_number_word, words_to_number_groups
from repro.asr.verbalizer import SPLCHAR_WORDS, Verbalizer, WORDS_TO_SPLCHAR
from repro.grammar.vocabulary import tokenize_sql
from repro.phonetics.metaphone import metaphone

_KEEP_LOGPROB = -0.15  # acoustic credit for emitting the heard word itself
_SWAP_LOGPROB = -2.2  # acoustic cost of a confusion-candidate swap
_SNAP_LOGPROB = -1.1  # cost of snapping an OOV word to a vocab homophone
_BEAM_WIDTH = 12

#: Bound on each engine's snap-candidate memo (distinct OOV words seen):
#: a full memo is cleared and refilled, so a long-running daemon holds
#: at most this many entries.
SNAP_MEMO_SIZE = 4096

#: ``WORDS_TO_SPLCHAR`` indexed by first word: head word -> the phrases
#: starting with it, as ``(table position, words, symbol)`` in table order.
_SPLCHAR_BY_HEAD: dict[str, tuple[tuple[int, tuple[str, ...], str], ...]] = {}
for _position, (_words, _symbol) in enumerate(WORDS_TO_SPLCHAR):
    _SPLCHAR_BY_HEAD[_words[0]] = _SPLCHAR_BY_HEAD.get(_words[0], ()) + (
        (_position, _words, _symbol),
    )

#: Voiced/unvoiced pairs in Metaphone's code alphabet: a jittered
#: consonant usually lands on its counterpart.
_CONSONANT_SWAPS = {"B": "P", "P": "B", "T": "K", "K": "T", "F": "S", "S": "F"}


@dataclass(frozen=True)
class AsrResult:
    """Transcription output with an n-best list.

    ``text`` is the top hypothesis; ``alternatives`` contains the n-best
    hypotheses including ``text`` first.
    """

    text: str
    alternatives: tuple[str, ...]

    @property
    def tokens(self) -> list[str]:
        return self.text.split()


@dataclass
class SimulatedAsrEngine:
    """A complete simulated speech-to-text engine."""

    lm: LanguageModel
    channel: AcousticChannel = field(default_factory=AcousticChannel)
    verbalizer: Verbalizer = field(default_factory=Verbalizer)
    splchar_fidelity: float = 0.95
    name: str = "asr"
    _phonetic_snap: dict[str, list[str]] = field(default_factory=dict, repr=False)
    _snap_memo: dict[tuple[str, int], tuple[str, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._rebuild_snap_index()

    def _rebuild_snap_index(self) -> None:
        self._phonetic_snap = {}
        self._snap_memo.clear()
        for word in self.lm.vocabulary():
            code = metaphone(word)
            if code:
                self._phonetic_snap.setdefault(code, []).append(word)

    # -- public API -----------------------------------------------------------

    def train(self, transcripts: list[list[str]], weight: float = 50.0) -> None:
        """Train the engine's language model on token transcripts."""
        self.lm.train(transcripts, weight=weight)
        self._rebuild_snap_index()

    def train_on_sql(self, queries: list[str], weight: float = 50.0) -> None:
        """Train on SQL query texts (the paper's 750 training queries).

        Azure Custom Speech is trained on the *text* of the utterances;
        for SQL that text contains symbols and cased identifiers, so the
        language model learns transitions like ``sum -> (`` and acquires
        the schema vocabulary.
        """
        transcripts = [
            [token.lower() for token in tokenize_sql(query)] for query in queries
        ]
        self.train(transcripts, weight=weight)

    def transcribe(
        self,
        sql_text: str,
        seed: int,
        nbest: int = 5,
        channel: AcousticChannel | None = None,
        tracer=None,
        record=None,
    ) -> AsrResult:
        """Dictate ``sql_text`` and return its transcription.

        ``seed`` fixes the acoustic realization; ``channel`` optionally
        overrides the engine's acoustic channel (per-speaker voices).
        The decode itself is deterministic given the heard words.
        ``tracer`` (a :class:`repro.observability.trace.Tracer`) scopes
        the channel corruption in an ``asr.channel.corrupt`` span;
        ``record`` (a forensics ``QueryRecord``) captures the spoken and
        heard words plus every injected channel error event.
        """
        spoken = self.verbalizer.verbalize(sql_text)
        return self.transcribe_words(
            spoken,
            seed=seed,
            nbest=nbest,
            channel=channel,
            tracer=tracer,
            record=record,
        )

    def transcribe_words(
        self,
        spoken: list[str],
        seed: int,
        nbest: int = 5,
        channel: AcousticChannel | None = None,
        tracer=None,
        record=None,
    ) -> AsrResult:
        """Transcribe an explicit spoken word sequence."""
        rng = random.Random(seed)
        events = record.asr_events if record is not None else None
        heard = (channel or self.channel).corrupt(
            spoken, rng, tracer=tracer, events=events
        )
        if record is not None:
            record.spoken = tuple(spoken)
            record.heard = tuple(heard)
        units = self._segment(heard)
        hypotheses = self._beam_decode(units, nbest=nbest)
        texts = tuple(" ".join(tokens) for tokens in hypotheses)
        if not texts:
            texts = ("",)
        return AsrResult(text=texts[0], alternatives=texts)

    # -- segmentation -----------------------------------------------------------

    def _segment(self, heard: list[str]) -> list[list[tuple[list[str], float]]]:
        """Split heard words into decode units with candidate decodings.

        Each unit is a list of ``(tokens, acoustic_logprob)`` candidates.
        """
        units: list[list[tuple[list[str], float]]] = []
        i = 0
        n = len(heard)
        while i < n:
            word = heard[i]
            if word == PAUSE:
                i += 1
                continue
            lowered = word.lower()
            if lowered in MONTH_NAMES:
                unit, consumed = self._date_unit(heard, i)
                units.append(unit)
                i += consumed
                continue
            if is_number_word(lowered) and lowered not in ("and", "point"):
                unit, consumed = self._number_unit(heard, i)
                units.append(unit)
                i += consumed
                continue
            splchar = self._splchar_unit(heard, i)
            if splchar is not None:
                unit, consumed = splchar
                units.append(unit)
                i += consumed
                continue
            units.append(self._word_unit(lowered))
            i += 1
        return units

    def _date_unit(
        self, heard: list[str], i: int
    ) -> tuple[list[tuple[list[str], float]], int]:
        j = i + 1
        n = len(heard)
        while j < n and heard[j] != PAUSE and (
            is_date_word(heard[j]) or is_number_word(heard[j])
        ):
            j += 1
        run = [w for w in heard[i:j]]
        date = words_to_date(run)
        candidates: list[tuple[list[str], float]] = []
        if date is not None:
            candidates.append(([date.isoformat()], -0.1))
        # Fallback: raw decode (month word + regrouped numbers) — this is
        # the "may 07 90 91" behaviour of paper Table 1.
        raw = [run[0]] + words_to_number_groups(run[1:])
        candidates.append((raw, -0.2 if date is None else -2.5))
        return candidates, j - i

    def _number_unit(
        self, heard: list[str], i: int
    ) -> tuple[list[tuple[list[str], float]], int]:
        j = i
        n = len(heard)
        run: list[str] = []
        boundaries: list[int] = []
        while j < n and (heard[j] == PAUSE or is_number_word(heard[j])):
            if heard[j] == PAUSE:
                if not run:
                    break
                boundaries.append(len(run))
            else:
                if heard[j].lower() in ("and", "point") and not run:
                    break
                run.append(heard[j].lower())
            j += 1
        if not run:
            return self._word_unit(heard[i].lower()), 1
        tokens = words_to_number_groups(run, boundaries)
        return [(tokens, -0.1)], j - i

    def _splchar_unit(
        self, heard: list[str], i: int
    ) -> tuple[list[tuple[list[str], float]], int] | None:
        """The first ``WORDS_TO_SPLCHAR`` phrase heard at ``i``, if any.

        A phrase can match only if its first word is the heard word
        itself or, for an out-of-vocabulary heard word, one of that
        word's snap candidates; only those phrases are tried, in table
        order, so the first full match is the full table scan's.
        """
        import math

        head = heard[i].lower()
        phrases = _SPLCHAR_BY_HEAD.get(head, ())
        if not self.lm.in_vocab(head):
            for snap in self._snap_candidates(head):
                phrases += _SPLCHAR_BY_HEAD.get(snap, ())
            if len(phrases) > 1:
                phrases = tuple(sorted(phrases))
        for _, words, symbol in phrases:
            span = len(words)
            window = tuple(w.lower() for w in heard[i : i + span])
            if len(window) < span:
                continue
            if all(self._word_matches(h, w) for h, w in zip(window, words)):
                fid = self.splchar_fidelity
                candidates = [
                    ([symbol], math.log(max(fid, 1e-6))),
                    (list(words), math.log(max(1.0 - fid, 1e-6))),
                ]
                return candidates, span
        return None

    def _word_matches(self, heard: str, expected: str) -> bool:
        """Exact match, or a garbled OOV word that snaps to ``expected``."""
        if heard == expected:
            return True
        if self.lm.in_vocab(heard):
            return False
        return expected in self._snap_candidates(heard)

    def _word_unit(self, word: str) -> list[tuple[list[str], float]]:
        candidates: list[tuple[list[str], float]] = []
        seen: set[str] = set()
        in_vocab = self.lm.in_vocab(word)
        # Out-of-vocabulary words are strongly penalized: a real decoder
        # can only emit them through expensive subword paths, which is
        # why unseen schemas (the paper's Yelp split) transcribe worse.
        keep_cost = _KEEP_LOGPROB if in_vocab else _KEEP_LOGPROB - 1.8
        candidates.append(([word], keep_cost))
        seen.add(word)
        for other in confusion_candidates(word)[1:]:
            if other in seen or not self.lm.in_vocab(other):
                continue
            seen.add(other)
            candidates.append(([other], _SWAP_LOGPROB))
        if not in_vocab:
            for snap in self._snap_candidates(word):
                if snap not in seen:
                    seen.add(snap)
                    candidates.append(([snap], _SNAP_LOGPROB))
        return candidates

    def _snap_candidates(self, word: str, limit: int = 4) -> list[str]:
        """Vocab words phonetically close to an out-of-vocab word
        (:meth:`_lookup_snaps`), memoized per engine.

        The answer depends only on the snap index, so the memo is
        cleared whenever :meth:`_rebuild_snap_index` rebuilds it (on
        every :meth:`train`), and cleared when it holds
        :data:`SNAP_MEMO_SIZE` entries.  Threads sharing the engine
        need no lock: a racing lookup recomputes the same value, and a
        racing insert overshoots the bound by at most one entry.
        """
        key = (word, limit)
        memo = self._snap_memo
        snaps = memo.get(key)
        if snaps is None:
            snaps = tuple(self._lookup_snaps(word, limit))
            if len(memo) >= SNAP_MEMO_SIZE:
                memo.clear()
            memo[key] = snaps
        return list(snaps)

    def _lookup_snaps(self, word: str, limit: int) -> list[str]:
        """Looks up the exact Metaphone code, then near-miss variants (one
        deletion or one voiced/unvoiced consonant swap) — jittered audio
        frequently lands one consonant away from the dictionary word.
        """
        code = metaphone(word)
        if not code:
            return []
        out: list[str] = []
        seen_codes = {code}
        out.extend(self._phonetic_snap.get(code, [])[:limit])
        if len(out) >= limit:
            return out[:limit]
        variants: list[str] = []
        for i in range(len(code)):
            variants.append(code[:i] + code[i + 1 :])  # one deletion
            swapped = _CONSONANT_SWAPS.get(code[i])
            if swapped:
                variants.append(code[:i] + swapped + code[i + 1 :])
        for variant in variants:
            if variant in seen_codes or not variant:
                continue
            seen_codes.add(variant)
            for snap in self._phonetic_snap.get(variant, []):
                if snap not in out:
                    out.append(snap)
                    if len(out) >= limit:
                        return out
        return out

    # -- beam decode -------------------------------------------------------------

    def _beam_decode(
        self, units: list[list[tuple[list[str], float]]], nbest: int
    ) -> list[list[str]]:
        # Beam entries: (score, tokens tuple, last word for LM context)
        beam: list[tuple[float, tuple[str, ...], str]] = [(0.0, (), "<s>")]
        # The beam asks for the same few (context, word) scores hundreds
        # of times per decode.  The memo lives for one decode, so it can
        # never outlast a change to the model.
        scores: dict[tuple[str, str], float] = {}
        score_of = self.lm.score
        for unit in units:
            expanded: list[tuple[float, tuple[str, ...], str]] = []
            for score, tokens, prev in beam:
                for cand_tokens, acoustic in unit:
                    lm_score = 0.0
                    context = prev
                    for token in cand_tokens:
                        key = (context, token)
                        value = scores.get(key)
                        if value is None:
                            value = scores[key] = score_of(context, token)
                        lm_score += value
                        context = token
                    expanded.append(
                        (
                            score + acoustic + 0.55 * lm_score,
                            tokens + tuple(cand_tokens),
                            context,
                        )
                    )
            beam = heapq.nlargest(_BEAM_WIDTH, expanded, key=lambda e: e[0])
        ranked = sorted(beam, key=lambda e: -e[0])
        out: list[list[str]] = []
        seen: set[tuple[str, ...]] = set()
        for _, tokens, _ in ranked:
            if tokens in seen:
                continue
            seen.add(tokens)
            out.append(list(tokens))
            if len(out) >= nbest:
                break
        return out


def make_custom_engine(
    training_queries: list[str] | None = None,
    profile: ChannelProfile | None = None,
) -> SimulatedAsrEngine:
    """ACS-like engine: custom language model trained on SQL query text."""
    engine = SimulatedAsrEngine(
        lm=LanguageModel(),
        channel=AcousticChannel(profile or ChannelProfile()),
        splchar_fidelity=0.92,
        name="custom",
    )
    if training_queries:
        engine.train_on_sql(training_queries)
    return engine


def make_generic_engine(
    hints: list[str] | None = None,
    profile: ChannelProfile | None = None,
) -> SimulatedAsrEngine:
    """GCS-like engine: generic dictation model plus keyword hints.

    ``hints`` are boosted in the unigram table — the paper notes Google's
    API accepts SplChars and keywords as hints, which is why its SplChar
    precision is high despite no custom training (Appendix F.3).
    """
    lm = LanguageModel()
    hint_words = set(hints or [])
    for splchar_words in SPLCHAR_WORDS.values():
        hint_words.update(splchar_words)
    hint_words.update(
        w.lower()
        for w in (
            "select from where order group by natural join and or not "
            "limit between in sum count max avg min".split()
        )
    )
    for word in hint_words:
        lm.unigrams[word] = lm.unigrams.get(word, 0.0) + 60.0
        lm._total += 60.0
    return SimulatedAsrEngine(
        lm=lm,
        channel=AcousticChannel(profile or ChannelProfile()),
        splchar_fidelity=0.96,
        name="generic",
    )
