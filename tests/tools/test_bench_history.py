"""Benchmark trajectory log: keying, regression gate, exit codes."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_bench_history():
    spec = importlib.util.spec_from_file_location(
        "bench_history", REPO_ROOT / "tools" / "bench_history.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench_history = _load_bench_history()


def _report(median_ms=5.0, max_tokens=15, speedup=4.0):
    return {
        "benchmark": "structure_search_kernels",
        "max_tokens": max_tokens,
        "primary_k": 3,
        "results": {
            "k=3": {
                "compiled": {
                    "queries": 60,
                    "median_ms": median_ms,
                    "p95_ms": median_ms * 2,
                },
                "median_speedup": speedup,
            }
        },
    }


class TestEntryFromReport:
    def test_extracts_primary_k_compiled_numbers(self):
        entry = bench_history.entry_from_report(_report(), "smoke.json")
        assert entry["key"] == "structure_search_kernels@max15"
        assert entry["median_ms"] == 5.0
        assert entry["p95_ms"] == 10.0
        assert entry["queries"] == 60
        assert entry["median_speedup"] == 4.0
        # Older reports carry no work counter, repeats or spread.
        assert entry["nodes_visited"] is None
        assert entry["levels_visited"] is None
        assert entry["repeats"] is None

    def test_keeps_kernel_work_and_spread(self):
        report = _report()
        report["repeats"] = 5
        report["results"]["k=3"]["compiled"].update(
            nodes_visited=302801, levels_visited=1924, iqr_ms=0.2
        )
        entry = bench_history.entry_from_report(report, "smoke.json")
        assert entry["nodes_visited"] == 302801
        assert entry["levels_visited"] == 1924
        assert entry["repeats"] == 5
        assert entry["iqr_ms"] == 0.2
        assert entry["source"] == "smoke.json"
        assert entry["recorded_at"].endswith("Z")

    def test_key_includes_workload_size(self):
        small = bench_history.entry_from_report(_report(max_tokens=15), "s")
        full = bench_history.entry_from_report(_report(max_tokens=20), "f")
        assert small["key"] != full["key"]

    def test_malformed_report_raises_key_error(self):
        with pytest.raises(KeyError):
            bench_history.entry_from_report({"benchmark": "x"}, "bad.json")


def _serving_report(median_ms=140.0, queries=40, deadline_ms=50.0,
                    timeouts=1):
    return {
        "benchmark": "serving_throughput",
        "queries": queries,
        "workers": 2,
        "deadline_ms": deadline_ms,
        "outcomes": {"served": queries - timeouts, "timeout": timeouts},
        "answered": queries - timeouts,
        "answered_fraction": (queries - timeouts) / queries,
        "throughput_qps": 11.5,
        "median_ms": median_ms,
        "p95_ms": median_ms * 2,
    }


class TestServingEntry:
    def test_serving_shape_extracts_throughput_numbers(self):
        entry = bench_history.entry_from_report(_serving_report(), "s.json")
        assert entry["key"] == "serving_throughput@q40ms50"
        assert entry["median_ms"] == 140.0
        assert entry["throughput_qps"] == 11.5
        assert entry["answered_fraction"] == 39 / 40
        assert entry["outcomes"]["timeout"] == 1
        assert "median_speedup" not in entry

    def test_key_includes_workload_and_deadline(self):
        tight = bench_history.entry_from_report(
            _serving_report(deadline_ms=1.0), "s"
        )
        loose = bench_history.entry_from_report(
            _serving_report(deadline_ms=None), "s"
        )
        assert tight["key"] == "serving_throughput@q40ms1"
        assert loose["key"] == "serving_throughput@q40ms0"
        assert tight["key"] != loose["key"]

    def test_regression_gate_applies_to_serving_entries(self):
        history = [
            bench_history.entry_from_report(_serving_report(100.0), "old")
        ]
        entry = bench_history.entry_from_report(_serving_report(200.0), "new")
        verdict = bench_history.check_regression(entry, history)
        assert verdict is not None and "slower" in verdict

    def test_main_appends_serving_entry(self, tmp_path):
        report_path = tmp_path / "serving.json"
        report_path.write_text(json.dumps(_serving_report(timeouts=0)))
        history_path = tmp_path / "history.jsonl"
        code = bench_history.main(
            [str(report_path), "--history", str(history_path)]
        )
        assert code == 0
        [entry] = bench_history.read_history(history_path)
        assert entry["benchmark"] == "serving_throughput"

    def test_single_reports_pass_through_unchanged(self):
        [entry] = bench_history.entries_from_report(_serving_report(), "s")
        assert entry == bench_history.entry_from_report(_serving_report(), "s")


def _literal_voting_report(queries=8, train=30):
    rows = [
        {"side": side, "median_ms": ms, "iqr_ms": 0.5, "repeat_ms": [ms],
         "query_p50_ms": ms, "query_p95_ms": 2 * ms,
         "speedup_vs_oracle": 80.0 / ms}
        for side, ms in (("oracle", 80.0), ("kernel", 8.0),
                         ("kernel_warm", 6.0))
    ]
    return {"benchmark": "literal_voting", "queries": queries,
            "repeats": 3, "train": train, "speedup": 10.0, "rows": rows}


class TestLiteralVotingEntries:
    def test_one_entry_per_side_with_distinct_keys(self):
        entries = bench_history.entries_from_report(
            _literal_voting_report(), "lv.json"
        )
        assert [e["key"] for e in entries] == [
            "literal_voting@q8t30-oracle",
            "literal_voting@q8t30-kernel",
            "literal_voting@q8t30-kernel_warm",
        ]
        assert [e["median_ms"] for e in entries] == [80.0, 8.0, 6.0]
        assert entries[1]["speedup_vs_oracle"] == 10.0

    def test_rejected_by_single_entry_path(self):
        with pytest.raises(KeyError, match="entries_from_report"):
            bench_history.entry_from_report(_literal_voting_report(), "s")

    def test_main_appends_every_side(self, tmp_path):
        report_path = tmp_path / "lv.json"
        report_path.write_text(json.dumps(_literal_voting_report()))
        history_path = tmp_path / "history.jsonl"
        code = bench_history.main(
            [str(report_path), "--history", str(history_path)]
        )
        assert code == 0
        assert len(bench_history.read_history(history_path)) == 3


def _dictation_searches_report(queries=20, train=30):
    rows = [
        {"side": side, "samples": 40, "median_ms": ms, "p95_ms": 2 * ms,
         "iqr_ms": 1.0, "repeat_p50_ms": [ms, ms],
         "searches_per_dictation": searches,
         "nodes_visited_per_dictation": nodes,
         "search_ms_per_dictation": ms / 2,
         "memo_hit_ratio": 0.6}
        for side, ms, searches, nodes in (("cached", 40.0, 1.8, 12000.0),
                                          ("uncached", 80.0, 5.0, 50000.0))
    ]
    return {"benchmark": "dictation_searches", "queries": queries,
            "repeats": 2, "train": train, "searches_per_dictation": 1.8,
            "rows": rows}


class TestDictationSearchesEntries:
    def test_one_entry_per_side_with_distinct_keys(self):
        entries = bench_history.entries_from_report(
            _dictation_searches_report(), "ds.json"
        )
        assert [e["key"] for e in entries] == [
            "dictation_searches@q20t30-cached",
            "dictation_searches@q20t30-uncached",
        ]
        assert [e["median_ms"] for e in entries] == [40.0, 80.0]
        assert [e["searches_per_dictation"] for e in entries] == [1.8, 5.0]
        assert [e["nodes_visited_per_dictation"] for e in entries] == [
            12000.0, 50000.0,
        ]
        assert [e["memo_hit_ratio"] for e in entries] == [0.6, 0.6]

    def test_reports_without_work_counters_still_append(self):
        report = _dictation_searches_report()
        for row in report["rows"]:
            del row["nodes_visited_per_dictation"], row["memo_hit_ratio"]
        entries = bench_history.entries_from_report(report, "old.json")
        assert [e["nodes_visited_per_dictation"] for e in entries] == [
            None, None,
        ]
        assert [e["memo_hit_ratio"] for e in entries] == [None, None]

    def test_rejected_by_single_entry_path(self):
        with pytest.raises(KeyError, match="entries_from_report"):
            bench_history.entry_from_report(_dictation_searches_report(), "s")

    def test_main_appends_every_side(self, tmp_path):
        report_path = tmp_path / "ds.json"
        report_path.write_text(json.dumps(_dictation_searches_report()))
        history_path = tmp_path / "history.jsonl"
        code = bench_history.main(
            [str(report_path), "--history", str(history_path)]
        )
        assert code == 0
        assert len(bench_history.read_history(history_path)) == 2


class TestAnsweredGate:
    @pytest.mark.parametrize(
        "make_report",
        [_serving_report],
        ids=["39-of-40-answered"],
    )
    def test_main_refuses_a_run_that_did_not_answer(
        self, tmp_path, capsys, make_report
    ):
        report = make_report()
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report))
        history_path = tmp_path / "history.jsonl"
        code = bench_history.main(
            [str(report_path), "--history", str(history_path)]
        )
        assert code == 1
        assert not history_path.exists()  # nothing recorded
        entries = bench_history.entries_from_report(report, "r")
        refused = [e["key"] for e in entries if e["answered_fraction"] < 0.99]
        err = capsys.readouterr().err
        assert refused and all(f"REFUSED: {key}" in err for key in refused)


class TestMachineStamp:
    def test_every_entry_shape_carries_nproc(self):
        nproc = bench_history.machine_stamp()["nproc"]
        single = bench_history.entry_from_report(_report(), "s")
        assert single["nproc"] == nproc
        for report in (_serving_report(), _literal_voting_report()):
            for entry in bench_history.entries_from_report(report, "s"):
                assert entry["nproc"] == nproc

    def test_cross_core_count_entries_never_compared(self):
        baseline = bench_history.entry_from_report(
            _report(median_ms=1.0), "old"
        )
        baseline["nproc"] = 16
        entry = bench_history.entry_from_report(_report(median_ms=50.0), "new")
        entry["nproc"] = 1
        # 50x slower, but recorded on a different machine class: skip.
        assert bench_history.check_regression(entry, [baseline]) is None

    def test_pre_stamp_entries_match_any_core_count(self):
        baseline = bench_history.entry_from_report(
            _report(median_ms=1.0), "old"
        )
        del baseline["nproc"]
        entry = bench_history.entry_from_report(_report(median_ms=50.0), "new")
        verdict = bench_history.check_regression(entry, [baseline])
        assert verdict is not None and "slower" in verdict

    def test_same_core_count_still_gates(self):
        baseline = bench_history.entry_from_report(
            _report(median_ms=1.0), "old"
        )
        entry = bench_history.entry_from_report(_report(median_ms=50.0), "new")
        verdict = bench_history.check_regression(entry, [baseline])
        assert verdict is not None and "slower" in verdict

    def test_stamp_records_the_hash_seed(self, monkeypatch):
        monkeypatch.setenv("PYTHONHASHSEED", "0")
        assert bench_history.machine_stamp()["pythonhashseed"] == "0"
        entry = bench_history.entry_from_report(_report(), "s")
        assert entry["pythonhashseed"] == "0"
        monkeypatch.delenv("PYTHONHASHSEED")
        assert bench_history.machine_stamp()["pythonhashseed"] == "random"

    def test_cross_hash_seed_entries_never_compared(self):
        baseline = bench_history.entry_from_report(
            _report(median_ms=1.0), "old"
        )
        baseline["pythonhashseed"] = "0"
        entry = bench_history.entry_from_report(_report(median_ms=50.0), "new")
        entry["pythonhashseed"] = "random"
        # 50x slower, but under a different hash seed: skip.
        assert bench_history.check_regression(entry, [baseline]) is None

    def test_pre_hash_seed_entries_match_any_seed(self):
        baseline = bench_history.entry_from_report(
            _report(median_ms=1.0), "old"
        )
        del baseline["pythonhashseed"]
        entry = bench_history.entry_from_report(_report(median_ms=50.0), "new")
        entry["pythonhashseed"] = "0"
        verdict = bench_history.check_regression(entry, [baseline])
        assert verdict is not None and "slower" in verdict


class TestCheckRegression:
    def test_first_run_for_key_passes(self):
        entry = bench_history.entry_from_report(_report(), "s")
        assert bench_history.check_regression(entry, []) is None

    def test_within_threshold_passes(self):
        history = [bench_history.entry_from_report(_report(median_ms=4.0), "s")]
        entry = bench_history.entry_from_report(_report(median_ms=5.0), "s")
        # 25% slower == the boundary: allowed.
        assert bench_history.check_regression(entry, history) is None

    def test_beyond_threshold_flags(self):
        history = [bench_history.entry_from_report(_report(median_ms=4.0), "s")]
        entry = bench_history.entry_from_report(_report(median_ms=5.1), "s")
        verdict = bench_history.check_regression(entry, history)
        assert verdict is not None
        assert "slower" in verdict

    def test_other_keys_never_compared(self):
        # A fast full-size entry must not gate a slow smoke run.
        history = [
            bench_history.entry_from_report(
                _report(median_ms=1.0, max_tokens=20), "full"
            )
        ]
        entry = bench_history.entry_from_report(
            _report(median_ms=50.0, max_tokens=15), "smoke"
        )
        assert bench_history.check_regression(entry, history) is None

    def test_compares_against_most_recent_same_key(self):
        history = [
            bench_history.entry_from_report(_report(median_ms=1.0), "old"),
            bench_history.entry_from_report(_report(median_ms=5.0), "new"),
        ]
        entry = bench_history.entry_from_report(_report(median_ms=5.5), "s")
        # vs the 5.0 baseline this is +10%: fine; vs 1.0 it would fail.
        assert bench_history.check_regression(entry, history) is None

    def test_zero_baseline_is_ignored(self):
        history = [bench_history.entry_from_report(_report(median_ms=0.0), "s")]
        entry = bench_history.entry_from_report(_report(median_ms=5.0), "s")
        assert bench_history.check_regression(entry, history) is None


class TestMain:
    def _run(self, tmp_path, report, history_name="history.jsonl"):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        history_path = tmp_path / history_name
        code = bench_history.main(
            [str(report_path), "--history", str(history_path)]
        )
        return code, bench_history.read_history(history_path)

    def test_first_run_appends_and_passes(self, tmp_path):
        code, history = self._run(tmp_path, _report())
        assert code == 0
        assert len(history) == 1
        assert history[0]["key"] == "structure_search_kernels@max15"

    def test_regression_appends_and_fails(self, tmp_path):
        report_path = tmp_path / "report.json"
        history_path = tmp_path / "history.jsonl"
        report_path.write_text(json.dumps(_report(median_ms=4.0)))
        assert bench_history.main(
            [str(report_path), "--history", str(history_path)]
        ) == 0
        report_path.write_text(json.dumps(_report(median_ms=6.0)))
        code = bench_history.main(
            [str(report_path), "--history", str(history_path)]
        )
        assert code == 1
        # Appended even on regression: the exit code is the gate, the
        # trajectory records every run.
        assert len(bench_history.read_history(history_path)) == 2

    def test_custom_threshold(self, tmp_path):
        report_path = tmp_path / "report.json"
        history_path = tmp_path / "history.jsonl"
        report_path.write_text(json.dumps(_report(median_ms=4.0)))
        bench_history.main([str(report_path), "--history", str(history_path)])
        report_path.write_text(json.dumps(_report(median_ms=6.0)))
        code = bench_history.main(
            [str(report_path), "--history", str(history_path),
             "--max-regression", "0.6"]
        )
        assert code == 0  # +50% allowed under a 60% threshold

    def test_missing_report_is_exit_2(self, tmp_path):
        code = bench_history.main(
            [str(tmp_path / "nope.json"),
             "--history", str(tmp_path / "h.jsonl")]
        )
        assert code == 2

    def test_malformed_report_is_exit_2(self, tmp_path):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps({"benchmark": "x"}))
        code = bench_history.main(
            [str(report_path), "--history", str(tmp_path / "h.jsonl")]
        )
        assert code == 2
        # Nothing appended for unusable input.
        assert bench_history.read_history(tmp_path / "h.jsonl") == []


def test_committed_history_is_valid_jsonl():
    """The seeded BENCH_history.jsonl must parse, and every entry must
    carry its full-size workload key (max20 kernels, q40 serving), so CI
    smoke runs (max15 / q12) never compare against it."""
    entries = bench_history.read_history(REPO_ROOT / "BENCH_history.jsonl")
    assert entries, "BENCH_history.jsonl must be seeded"
    for entry in entries:
        assert {"key", "median_ms"} <= set(entry)
        if entry["benchmark"] == "structure_search_kernels":
            assert "median_speedup" in entry
            assert "@max" in entry["key"]
        elif entry["benchmark"] == "serving_open_loop":
            assert "throughput_qps" in entry
            assert "b" in entry["key"].rpartition("r")[2]
        elif entry["benchmark"] == "telemetry_overhead":
            assert "throughput_qps" in entry
            assert "overhead_vs_off" in entry
            assert f"c{entry['config']}" in entry["key"]
            assert "@q32" in entry["key"]
        elif entry["benchmark"] == "literal_voting":
            assert "speedup_vs_oracle" in entry
            assert entry["key"].endswith(f"-{entry['side']}")
        elif entry["benchmark"] == "dictation_searches":
            assert "searches_per_dictation" in entry
            assert entry["key"].endswith(f"-{entry['side']}")
        else:
            assert entry["benchmark"] == "serving_shard_scaling"
            assert "throughput_qps" in entry
            assert "@q40" in entry["key"]
