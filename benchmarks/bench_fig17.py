"""Figure 17 (Appendix F.7): character-level vs phonetic edit distance.

For every ground-truth literal, how far is the transcription's text from
it — measured on the raw strings vs on Metaphone codes?  Paper's shape:
the phonetic representation is more condensed, so the correct literal
sits within a smaller distance (and ~10% more tables/attributes are
exact matches phonetically).
"""

from benchmarks.conftest import record_report
from repro.grammar.categorizer import LiteralCategory
from repro.metrics.cdf import Cdf
from repro.metrics.report import format_table
from repro.phonetics.levenshtein import char_edit_distance
from repro.phonetics.metaphone import metaphone
from repro.structure.masking import preprocess_transcription


def _window_text(run, filled) -> str:
    source = preprocess_transcription(run.output.asr_text).source
    begin, end = filled.window
    return "".join(source[begin:end]).lower()


def test_fig17_phonetic_vs_raw_distance(state, benchmark):
    benchmark.extra_info["experiment"] = "fig17"
    benchmark(lambda: metaphone("DepartmentManager"))

    raw: dict[LiteralCategory, list[int]] = {c: [] for c in LiteralCategory}
    phonetic: dict[LiteralCategory, list[int]] = {c: [] for c in LiteralCategory}
    for run in state.test_runs:
        if run.output.literal_result is None:
            continue
        truths = run.query.record.literals
        categories = run.query.record.categories
        filled_list = run.output.literal_result.literals
        for truth, category, filled in zip(truths, categories, filled_list):
            window = _window_text(run, filled)
            raw[category].append(
                char_edit_distance(truth.lower().replace(" ", ""), window)
            )
            phonetic[category].append(
                char_edit_distance(metaphone(truth), metaphone(window))
            )

    rows = []
    for category, label in (
        (LiteralCategory.TABLE, "Table Name"),
        (LiteralCategory.ATTRIBUTE, "Attribute Name"),
        (LiteralCategory.VALUE, "Attribute Value"),
    ):
        raw_cdf = Cdf.of(raw[category])
        phon_cdf = Cdf.of(phonetic[category])
        rows.append(
            [
                label,
                raw_cdf.at(0),
                phon_cdf.at(0),
                raw_cdf.quantile(0.99),
                phon_cdf.quantile(0.99),
            ]
        )
    record_report(
        "Figure 17: character-level vs phonetic edit distance to the "
        "true literal",
        format_table(
            [
                "Literal type", "raw exact", "phonetic exact",
                "raw p99 dist", "phonetic p99 dist",
            ],
            rows,
        ),
    )

    # Paper-shape assertions: phonetic representation finds the literal
    # within a smaller distance and yields at least as many exact hits.
    all_raw = Cdf.of([d for v in raw.values() for d in v])
    all_phon = Cdf.of([d for v in phonetic.values() for d in v])
    assert all_phon.at(0) >= all_raw.at(0)
    assert all_phon.quantile(0.99) <= all_raw.quantile(0.99)

    # Encoder ablation: end-to-end literal recall with Metaphone (the
    # paper's choice) vs Soundex vs NYSIIS vs raw strings.
    _encoder_ablation(state)


def _identity_encoder(text: str) -> str:
    return "".join(ch for ch in text.upper() if ch.isalpha())


def _encoder_ablation(state):
    from benchmarks.analysis import recall_by_category
    from benchmarks.conftest import PipelineRun
    from repro.literal.determiner import LiteralDeterminer
    from repro.phonetics.dmetaphone import dmetaphone_primary
    from repro.phonetics.nysiis import nysiis
    from repro.phonetics.phonetic_index import PhoneticIndex
    from repro.phonetics.soundex import soundex

    encoders = {
        "Metaphone (paper)": metaphone,
        "Double Metaphone (primary)": dmetaphone_primary,
        "Soundex": soundex,
        "NYSIIS": nysiis,
        "raw string": _identity_encoder,
    }
    rows = []
    for name, encoder in encoders.items():
        determiner = LiteralDeterminer(
            catalog=state.employees_catalog,
            index=PhoneticIndex.from_catalog(
                state.employees_catalog, encoder=encoder
            ),
        )
        hits = total = 0
        for run in state.test_runs:
            if run.output.structure is None:
                continue
            source = list(
                preprocess_transcription(run.output.asr_text).source
            )
            literal_result = determiner.determine(
                source, run.output.structure.structure
            )
            shadow = PipelineRun(
                query=run.query,
                output=type(run.output)(
                    asr_text=run.output.asr_text,
                    asr_alternatives=run.output.asr_alternatives,
                    queries=run.output.queries,
                    structure=run.output.structure,
                    literal_result=literal_result,
                ),
            )
            for _category, (h, t) in recall_by_category(shadow).items():
                hits += h
                total += t
        rows.append([name, hits / max(total, 1)])
    record_report(
        "Figure 17 (extra): literal recall by phonetic encoder",
        format_table(["encoder", "overall literal recall"], rows),
    )
    by_name = dict((r[0], r[1]) for r in rows)
    # Metaphone should beat the raw-string baseline (the paper's claim).
    assert by_name["Metaphone (paper)"] >= by_name["raw string"] - 0.02
