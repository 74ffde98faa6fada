"""Shared analysis helpers for the benchmark suite."""

from __future__ import annotations

import re
from collections import Counter

from benchmarks.conftest import PipelineRun
from repro.grammar.categorizer import LiteralCategory
from repro.phonetics.levenshtein import char_edit_distance
from repro.phonetics.metaphone import metaphone
from repro.structure.edit_distance import UNIT_WEIGHTS, weighted_edit_distance

_NUMBER_RE = re.compile(r"^\d+(\.\d+)?$")
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


def structure_ted(run: PipelineRun) -> float:
    """TED between the ground-truth structure and the chosen structure."""
    truth = run.query.record.structure
    if run.output.structure is None:
        return float(len(truth))
    chosen = run.output.structure.structure
    return weighted_edit_distance(chosen, truth, UNIT_WEIGHTS)


def recall_by_category(run: PipelineRun) -> dict[LiteralCategory, tuple[int, int]]:
    """(hits, total) of ground-truth literals recovered, per category."""
    truth: dict[LiteralCategory, Counter] = {c: Counter() for c in LiteralCategory}
    for literal, category in zip(
        run.query.record.literals, run.query.record.categories
    ):
        truth[category][literal.lower()] += 1
    predicted: dict[LiteralCategory, Counter] = {
        c: Counter() for c in LiteralCategory
    }
    if run.output.literal_result is not None:
        for filled in run.output.literal_result.literals:
            predicted[filled.category][filled.text.lower()] += 1
    out: dict[LiteralCategory, tuple[int, int]] = {}
    for category in LiteralCategory:
        total = sum(truth[category].values())
        hits = sum((truth[category] & predicted[category]).values())
        out[category] = (hits, total)
    return out


def value_type_of(text: str) -> str:
    if _DATE_RE.match(text):
        return "date"
    if _NUMBER_RE.match(text):
        return "number"
    return "string"


def value_edit_distances(run: PipelineRun) -> list[tuple[str, int]]:
    """Per ground-truth attribute value: (type, edit distance to output).

    As in paper Figure 16B, strings compare phonetically and dates and
    numbers compare at the character level.  Values are aligned by
    placeholder order.
    """
    truths = [
        literal
        for literal, category in zip(
            run.query.record.literals, run.query.record.categories
        )
        if category is LiteralCategory.VALUE
    ]
    if run.output.literal_result is None:
        predictions = [""] * len(truths)
    else:
        predictions = [
            filled.text
            for filled in run.output.literal_result.literals
            if filled.category is LiteralCategory.VALUE
        ]
    predictions += [""] * (len(truths) - len(predictions))
    out = []
    for truth, predicted in zip(truths, predictions):
        kind = value_type_of(truth)
        if kind == "string":
            distance = char_edit_distance(metaphone(truth), metaphone(predicted))
        else:
            distance = char_edit_distance(truth, predicted)
        out.append((kind, distance))
    return out
