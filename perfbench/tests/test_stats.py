import json
from pathlib import Path

import pytest

from perfbench.stats import (
    OutcomeLedger,
    metric,
    percentile,
    self_time,
    span_self_times,
    union_length,
    valid_metric_name,
)

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles ---------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) is not None
    assert percentile([], 0.5) is None


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 3.0] * 10
    assert percentile(values, 0.5) == percentile(sorted(values), 0.5) == 3.0


def test_percentile_rejects_bad_quantile():
    with pytest.raises(ValueError):
        percentile([1.0] * 50, 1.0)


# -- self time -----------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0
    assert union_length([(4, 4), (1, 0)]) == 0.0


def test_self_time_subtracts_union_of_children():
    # Overlapping children are not subtracted twice.
    assert self_time(0, 10, [(1, 4), (3, 6)]) == pytest.approx(5.0)
    # A child overhanging the parent only counts inside it.
    assert self_time(0, 10, [(8, 12)]) == pytest.approx(8.0)
    assert self_time(0, 10, []) == pytest.approx(10.0)
    assert self_time(0, 10, [(0, 10), (0, 10)]) == 0.0


def test_span_self_times_use_direct_children_only():
    spans = [
        {"start": 1.0, "end": 2.0, "parent": 1},   # grandchild
        {"start": 0.5, "end": 3.0, "parent": 2},   # child
        {"start": 0.0, "end": 4.0, "parent": None},
        {"start": 5.0, "end": 6.0, "parent": None},
    ]
    assert span_self_times(spans) == pytest.approx([1.0, 1.5, 1.5, 1.0])


# -- outcome accounting --------------------------------------------------------


def test_ledger_accounts_every_request_once():
    ledger = OutcomeLedger()
    for request_id in range(6):
        ledger.send(request_id)
    for request_id, outcome in enumerate(
        ("served", "degraded", "timeout", "shed", "failed", "error")
    ):
        ledger.settle(request_id, outcome)
    assert ledger.check() == []
    assert ledger.attempted == 6
    assert ledger.answered == 2
    assert ledger.failed == 4
    assert sum(ledger.counts().values()) == ledger.attempted


def test_ledger_flags_accounting_violations():
    ledger = OutcomeLedger()
    ledger.send(1)
    ledger.send(1)
    ledger.settle(2, "served")
    ledger.send(3)
    ledger.settle(3, "served")
    ledger.settle(3, "served")
    ledger.settle(1, "bogus")
    ledger.send(4)
    problems = ledger.check()
    assert any("sent twice" in p for p in problems)
    assert any("unsent" in p for p in problems)
    assert any("settled twice" in p for p in problems)
    assert any("unknown outcome" in p for p in problems)
    assert any("never settled" in p for p in problems)
    # An unsettled request is a failure, never silently dropped.
    assert ledger.failed == 2


# -- names and values ----------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "literal.vote.self_ms",
                                  "serving.outcomes.shed", "9lives", "a-b"])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space",
                                  "slash/name", "x" * 65, "ünïcode"])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_benchmark_json_names_are_valid():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(name) for name in names)


def test_metric_rejects_non_finite_values():
    assert metric(1, "ms") == {"value": 1.0, "unit": "ms"}
    with pytest.raises(ValueError):
        metric(float("nan"), "ms")
