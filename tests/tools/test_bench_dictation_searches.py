"""Dictation-search benchmark: stage percentiles and the coverage gate."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_dictation_searches",
        REPO_ROOT / "benchmarks" / "bench_dictation_searches.py",
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def _report(cached=0.996, uncached=0.998):
    rows = [
        {
            "side": side,
            "searches_per_dictation": 1.5,
            "near_seeds_per_dictation": 0.5,
            "nodes_visited_per_dictation": 100.0,
            "search_ms_per_dictation": 2.0,
            "memo_hit_ratio": 0.5,
            "stage_coverage": coverage,
            "median_ms": 10.0,
            "iqr_ms": 0.5,
            "p95_ms": 20.0,
            "samples": 4,
            "stages": {"mask": {"p50_ms": 1.0, "p95_ms": 2.0}},
        }
        for side, coverage in (("cached", cached), ("uncached", uncached))
    ]
    return {"rows": rows, "distinct_masked_per_dictation": 1.5,
            "seeded_searches_verified": 3}


class TestStagePercentiles:
    def test_missing_stage_counts_as_zero(self):
        timings = [
            {"mask": 0.001, "runner_up": 0.004},
            {"mask": 0.003},
            {"mask": 0.002},
        ]
        summary = bench.stage_percentiles(timings)
        assert sorted(summary) == ["mask", "runner_up"]
        assert summary["mask"]["p50_ms"] == pytest.approx(2.0)
        assert summary["runner_up"]["p50_ms"] == 0.0
        assert summary["runner_up"]["p95_ms"] > 0.0

    def test_single_dictation(self):
        summary = bench.stage_percentiles([{"mask": 0.005}])
        assert summary["mask"] == {
            "p50_ms": pytest.approx(5.0), "p95_ms": pytest.approx(5.0),
        }


class TestCoverageGate:
    def test_names_each_side_below_the_gate(self):
        failures = bench.coverage_failures(_report(cached=0.90), 0.95)
        assert len(failures) == 1 and failures[0].startswith("cached:")

    def test_coverage_at_the_gate_passes(self):
        assert bench.coverage_failures(_report(0.95, 0.95), 0.95) == []

    @pytest.mark.parametrize(("coverage", "code"), [(0.996, 0), (0.90, 1)])
    def test_main_exit_code(self, monkeypatch, tmp_path, coverage, code):
        monkeypatch.setattr(bench, "run", lambda args: _report(cached=coverage))
        out = tmp_path / "ds.json"
        assert bench.main(["--out", str(out)]) == code
        assert out.is_file()
