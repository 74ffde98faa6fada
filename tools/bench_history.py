#!/usr/bin/env python3
"""Append a benchmark run to the trajectory log and gate on regression.

Reads a ``BENCH_*.json`` report (the output of
``benchmarks/bench_search_perf.py`` or ``benchmarks/bench_serving.py``),
appends one compact line to a JSON-lines history file, and exits
non-zero when the new run's primary median latency regressed by more
than the allowed fraction against the *previous* entry with the same
key.

The key includes the workload size (``structure_search_kernels@max15``,
``serving_throughput@q40ms50``), so a CI smoke run is only ever
compared against earlier smoke runs — never against the committed
full-size report.  A search-kernel entry keeps the compiled kernel's
work counters at the primary k (``nodes_visited``, and
``levels_visited``, the depths its level-synchronous passes took).  A ``telemetry_overhead`` report (the
``--telemetry-overhead`` pricing of the live telemetry plane) appends
one entry per observability configuration, keyed
``telemetry_overhead@q32cmetrics`` — each configuration tracks its own
trajectory.  A ``session`` report (``bench_session.py``)
appends one entry per phase — cold full decode vs warm correction
turn — keyed ``session@q32m18pcold`` / ``session@q32m18pwarm``.  A
``literal_voting`` report (``bench_literal_voting.py``) appends one
entry per replay side — DP oracle, memoized kernel, warm kernel —
keyed ``literal_voting@q80t750-oracle`` etc.  A ``dictation_searches``
report (``bench_dictation_searches.py``) appends one entry per side —
production result cache vs ``cache_results=False`` — keyed
``dictation_searches@q80t750-cached`` / ``-uncached``; besides
latency it keeps the work counters a kernel or memo change is judged
by: kernel ``nodes_visited`` per dictation, the near-seeded kernel
searches per dictation and the placeholder-memo hit ratio.

Every entry is stamped with the machine's core count (``nproc``) and
the run's ``PYTHONHASHSEED`` (``pythonhashseed``: the environment
value, or ``"random"`` when unset), and the regression gate only
compares entries with equal stamps: a run on a 1-core CI box is never
judged against a 16-core workstation's trajectory, nor a pinned-seed
run against a random-seed one (set iteration order, and with it tied
n-best alternatives, follows the hash seed).  Entries predating a
stamp compare against anything (there is nothing to disagree with).

A run that did not answer its load is refused, not recorded: when any
entry of a report has ``answered_fraction`` below 0.99, nothing is
appended and the tool exits 1 naming the key.  Its latency would
measure how fast the daemon returns timeouts or sheds, not how fast it
serves.

Exit status: 0 (appended, no regression or first run for the key),
1 (appended, regression beyond the threshold; or refused, too few
requests answered), 2 (unusable input).
Run from anywhere::

    python tools/bench_history.py BENCH_structure_search.json
    python tools/bench_history.py /tmp/bench_smoke.json \
        --history BENCH_history.jsonl --max-regression 0.25
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.jsonl"

#: Allowed fractional slowdown of the primary median before exit 1.
DEFAULT_MAX_REGRESSION = 0.25

#: Smallest answered fraction (served + degraded) a run may record.
MIN_ANSWERED_FRACTION = 0.99


#: Stamp fields the regression gate matches on (see :func:`check_regression`).
STAMP_KEYS = ("nproc", "pythonhashseed")


def machine_stamp() -> dict:
    """Run-environment facts every entry carries (compare like with like)."""
    return {
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def entry_from_report(report: dict, source: str) -> dict:
    """One history line from a bench report (raises KeyError when malformed).

    Two report shapes are understood: the search-kernel report of
    ``benchmarks/bench_search_perf.py`` (the default) and the serving
    throughput report of ``benchmarks/bench_serving.py``.  Both yield a
    ``median_ms``, which is what the regression gate compares.
    """
    if report.get("benchmark") in ("telemetry_overhead",
                                   "literal_voting",
                                   "dictation_searches"):
        raise KeyError(
            f"{report['benchmark']} reports expand to one entry per row; "
            "use entries_from_report"
        )
    if report.get("benchmark") == "serving_throughput":
        deadline_ms = report["deadline_ms"]
        return {
            "key": (
                f"{report['benchmark']}@q{report['queries']}"
                f"ms{deadline_ms if deadline_ms is not None else 0:g}"
            ),
            "benchmark": report["benchmark"],
            "queries": report["queries"],
            "deadline_ms": deadline_ms,
            "workers": report["workers"],
            "median_ms": report["median_ms"],
            "p95_ms": report["p95_ms"],
            "throughput_qps": report["throughput_qps"],
            "answered_fraction": report["answered_fraction"],
            "outcomes": report["outcomes"],
            "source": source,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **machine_stamp(),
        }
    primary_k = report["primary_k"]
    primary = report["results"][f"k={primary_k}"]
    return {
        "key": f"{report['benchmark']}@max{report['max_tokens']}",
        "benchmark": report["benchmark"],
        "max_tokens": report["max_tokens"],
        "primary_k": primary_k,
        "queries": primary["compiled"]["queries"],
        "median_ms": primary["compiled"]["median_ms"],
        "p95_ms": primary["compiled"]["p95_ms"],
        "median_speedup": primary["median_speedup"],
        # Work done and spread; absent from reports that predate them.
        "nodes_visited": primary["compiled"].get("nodes_visited"),
        "levels_visited": primary["compiled"].get("levels_visited"),
        "repeats": report.get("repeats"),
        "iqr_ms": primary["compiled"].get("iqr_ms"),
        "source": source,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **machine_stamp(),
    }


def entries_from_report(report: dict, source: str) -> list[dict]:
    """All history lines from a report — usually one, but the sweeps
    (``telemetry_overhead``, ``session``, ...) yield one
    per row."""
    benchmark = report.get("benchmark")
    recorded_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    stamp = machine_stamp()
    if benchmark == "telemetry_overhead":
        # One entry per observability configuration (off / metrics /
        # metrics+trace1pct), so each configuration's latency tracks
        # its own trajectory and the regression gate compares like
        # with like.
        base_key = f"{benchmark}@q{report['queries']}"
        return [
            {
                "key": f"{base_key}c{row['config']}",
                "benchmark": benchmark,
                "queries": report["queries"],
                "deadline_ms": report["deadline_ms"],
                "repeats": report["repeats"],
                "config": row["config"],
                "median_ms": row["median_ms"],
                "p95_ms": row["p95_ms"],
                "throughput_qps": row["throughput_qps"],
                "overhead_vs_off": row["overhead_vs_off"],
                "answered_fraction": row["answered_fraction"],
                "outcomes": row["outcomes"],
                "source": source,
                "recorded_at": recorded_at,
                **stamp,
            }
            for row in report["rows"]
        ]
    if benchmark == "session":
        # One entry per phase (cold full decode vs warm correction
        # turn), so each latency tracks its own trajectory and the
        # regression gate never compares a clause-sized search against
        # a query-sized one.
        base_key = f"{benchmark}@q{report['queries']}m{report['max_tokens']}"
        return [
            {
                "key": f"{base_key}p{row['phase']}",
                "benchmark": benchmark,
                "queries": report["queries"],
                "max_tokens": report["max_tokens"],
                "phase": row["phase"],
                "median_ms": row["median_ms"],
                "p95_ms": row["p95_ms"],
                "speedup_p50": report["speedup_p50"],
                "reused_span_fraction": row.get("reused_span_fraction"),
                "source": source,
                "recorded_at": recorded_at,
                **stamp,
            }
            for row in report["rows"]
        ]
    if benchmark == "literal_voting":
        # One entry per replay side, so the oracle's and the kernel's
        # per-query times each track their own trajectory.
        base_key = f"{benchmark}@q{report['queries']}t{report['train']}"
        return [
            {
                "key": f"{base_key}-{row['side']}",
                "benchmark": benchmark,
                "queries": report["queries"],
                "train": report["train"],
                "repeats": report["repeats"],
                "side": row["side"],
                "median_ms": row["median_ms"],
                "iqr_ms": row["iqr_ms"],
                "p95_ms": row["query_p95_ms"],
                "speedup_vs_oracle": row["speedup_vs_oracle"],
                "source": source,
                "recorded_at": recorded_at,
                **stamp,
            }
            for row in report["rows"]
        ]
    if benchmark == "dictation_searches":
        # One entry per side (result cache on / off), so the kernel
        # search count and latency of each track their own trajectory.
        base_key = f"{benchmark}@q{report['queries']}t{report['train']}"
        return [
            {
                "key": f"{base_key}-{row['side']}",
                "benchmark": benchmark,
                "queries": report["queries"],
                "train": report["train"],
                "repeats": report["repeats"],
                "side": row["side"],
                "samples": row["samples"],
                "median_ms": row["median_ms"],
                "iqr_ms": row["iqr_ms"],
                "p95_ms": row["p95_ms"],
                "searches_per_dictation": row["searches_per_dictation"],
                "search_ms_per_dictation": row["search_ms_per_dictation"],
                # Absent from reports that predate the counters.
                "nodes_visited_per_dictation": row.get(
                    "nodes_visited_per_dictation"
                ),
                "memo_hit_ratio": row.get("memo_hit_ratio"),
                "near_seeds_per_dictation": row.get(
                    "near_seeds_per_dictation"
                ),
                "source": source,
                "recorded_at": recorded_at,
                **stamp,
            }
            for row in report["rows"]
        ]
    return [entry_from_report(report, source)]


def read_history(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries


def append_entry(path: Path, entry: dict) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def check_regression(
    entry: dict,
    history: list[dict],
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> str | None:
    """A human-readable verdict when ``entry`` regressed, else ``None``.

    Compares against the most recent earlier entry sharing the key
    *and* every :data:`STAMP_KEYS` value — latency on a 1-core box is
    not a regression of a 16-core run, and a run under one hash seed is
    not judged against another's.  An entry predating a stamp field
    matches any value of it.
    """
    previous = next(
        (
            e
            for e in reversed(history)
            if e.get("key") == entry["key"]
            and all(
                e.get(stamp) is None or e.get(stamp) == entry.get(stamp)
                for stamp in STAMP_KEYS
            )
        ),
        None,
    )
    if previous is None:
        return None
    baseline = previous.get("median_ms")
    if not baseline or baseline <= 0:
        return None
    ratio = entry["median_ms"] / baseline
    if ratio > 1.0 + max_regression:
        return (
            f"{entry['key']}: median {entry['median_ms']:.2f} ms is "
            f"{(ratio - 1.0) * 100:.0f}% slower than the previous entry "
            f"({baseline:.2f} ms; allowed +{max_regression * 100:.0f}%)"
        )
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="BENCH_*.json report to append")
    parser.add_argument(
        "--history", default=str(DEFAULT_HISTORY),
        help="JSON-lines trajectory file (default: BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
        help="allowed fractional median slowdown vs the previous entry "
             "with the same key (default: 0.25)",
    )
    args = parser.parse_args(argv)

    report_path = Path(args.report)
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        entries = entries_from_report(report, source=report_path.name)
    except (OSError, ValueError, KeyError) as error:
        print(f"unusable bench report {args.report}: {error!r}",
              file=sys.stderr)
        return 2

    unanswered = [
        entry for entry in entries
        if entry.get("answered_fraction", 1.0) < MIN_ANSWERED_FRACTION
    ]
    for entry in unanswered:
        print(
            f"REFUSED: {entry['key']}: answered_fraction "
            f"{entry['answered_fraction']:.3f} < {MIN_ANSWERED_FRACTION}; "
            "re-run at a rate and deadline the system can answer",
            file=sys.stderr,
        )
    if unanswered:
        return 1

    history_path = Path(args.history)
    history = read_history(history_path)
    verdicts = []
    for entry in entries:
        verdict = check_regression(entry, history, args.max_regression)
        if verdict is not None:
            verdicts.append(verdict)
        # Append even on regression: the trajectory must record every
        # run, the exit code is the gate.
        append_entry(history_path, entry)
        if "median_speedup" in entry:
            extra = f"speedup {entry['median_speedup']:.2f}x"
        elif "throughput_qps" in entry:
            extra = f"throughput {entry['throughput_qps']:.1f} q/s"
        elif "speedup_vs_oracle" in entry:
            extra = f"speedup {entry['speedup_vs_oracle']:.1f}x vs oracle"
        elif "searches_per_dictation" in entry:
            extra = (f"{entry['searches_per_dictation']:.2f} kernel "
                     "searches/dictation")
        else:
            extra = f"speedup {entry['speedup_p50']:.1f}x cold/warm"
        print(
            f"appended {entry['key']} (median {entry['median_ms']:.2f} ms, "
            f"{extra}) to {history_path}"
        )
    for verdict in verdicts:
        print(f"REGRESSION: {verdict}", file=sys.stderr)
    return 1 if verdicts else 0


if __name__ == "__main__":
    raise SystemExit(main())
