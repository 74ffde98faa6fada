"""Literal-voting layer benchmark: production row vote vs per-pair oracle.

Dictates N seeded Employees test queries (n-best 5, runner-up
structures included) through the full pipeline once, recording every
``literal_assignment`` / ``score_assignment`` call the literal
determiner makes — the whole voting layer of paper Section 4.3.  The
determiner's placeholder memo is cleared before each dictation, so a
dictation records the votes of its own distinct placeholder windows
whatever ran before it.  The recorded calls are then replayed, in
interleaved repeats, three ways:

- ``oracle`` — the per-pair vote of ``tests/literal/oracle.py``: every
  (segment, candidate) distance computed on its own by the full-table
  DP;
- ``kernel`` — the production vote (distance rows from the packed
  bit-parallel kernel) with its row cache cleared before every query,
  so only one query's own re-scorings (n-best alternatives, both walks,
  runner-up structures) hit it;
- ``kernel_warm`` — the production vote with the row cache cleared
  once per repeat, as in a long-lived daemon that has seen the earlier
  queries.

Every replayed call must return an identical ``VoteOutcome`` on all
three sides, else the run aborts: a speedup can never come from a
divergent vote.  The primary figure is the median per-query replay time
of ``oracle`` over ``kernel``; the run exits 1 when it falls below
``--min-speedup``.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_literal_voting.py \\
        --queries 80 --repeats 5 --out BENCH_literal_voting.json \\
        --min-speedup 5
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))  # the oracle lives under tests/

from repro.asr import make_custom_engine  # noqa: E402
from repro.core import SpeakQL, SpeakQLArtifacts  # noqa: E402
from repro.dataset import build_employees_catalog  # noqa: E402
from repro.dataset.spoken import make_spoken_dataset  # noqa: E402
from repro.literal import determiner, voting  # noqa: E402
from tests.literal import oracle  # noqa: E402

SIDES = ("oracle", "kernel", "kernel_warm")
# As the repository benchmark's dictate workload: n-best 5 dictations of
# the paper's Employees test split (dataset seed 8).
NBEST = 5
SPLIT_SEED = 8


def record_calls(args: argparse.Namespace) -> list[list[tuple]]:
    """Per dictation, the voting calls the determiner made, in order."""
    catalog = build_employees_catalog()
    engine = None
    if args.train > 0:
        training = make_spoken_dataset("train", catalog, args.train, seed=7)
        engine = make_custom_engine([q.sql for q in training.queries])
    speakql = SpeakQL(catalog, artifacts=SpeakQLArtifacts.build(engine=engine))
    dictations = make_spoken_dataset(
        "test", catalog, args.queries, seed=SPLIT_SEED
    ).queries

    calls: list[tuple] = []

    def recorder(func):
        def wrapper(*a, **kw):
            calls.append((func, a, kw))
            return func(*a, **kw)
        return wrapper

    originals = (determiner.literal_assignment, determiner.score_assignment)
    determiner.literal_assignment = recorder(originals[0])
    determiner.score_assignment = recorder(originals[1])
    per_query: list[list[tuple]] = []
    try:
        for query in dictations:
            calls.clear()
            speakql._determiner.cache_clear()
            speakql.query_from_speech(query.sql, seed=query.seed, nbest=NBEST)
            per_query.append(list(calls))
    finally:
        determiner.literal_assignment, determiner.score_assignment = originals
    return per_query


def replay(per_query: list[list[tuple]], side: str) -> tuple[list[float], list]:
    """Per-query replay seconds and every outcome, for one side."""
    if side == "oracle":
        calls = [
            [(getattr(oracle, func.__name__), a, kw) for func, a, kw in query]
            for query in per_query
        ]
    else:
        calls = per_query
    voting.segment_rows.cache_clear()
    clock = time.perf_counter
    seconds: list[float] = []
    outcomes: list = []
    for query in calls:
        if side == "kernel":
            voting.segment_rows.cache_clear()
        start = clock()
        results = [func(*a, **kw) for func, a, kw in query]
        seconds.append(clock() - start)
        outcomes.extend(results)
    return seconds, outcomes


def work_per_query(per_query: list[list[tuple]]) -> dict[str, int]:
    """Medians per query: (segment, candidate) pairs the oracle scores
    one by one, row-cache lookups of the production vote, and the
    distinct rows among them (its misses from a cold cache)."""
    pairs = 0
    distance = oracle.char_edit_distance

    def counted(a: str, b: str) -> int:
        nonlocal pairs
        pairs += 1
        return distance(a, b)

    per_pair, lookups, distinct = [], [], []
    oracle.char_edit_distance = counted
    try:
        for query in per_query:
            pairs = 0
            for func, a, kw in query:
                getattr(oracle, func.__name__)(*a, **kw)
            per_pair.append(pairs)
            voting.segment_rows.cache_clear()
            for func, a, kw in query:
                func(*a, **kw)
            info = voting.segment_rows.cache_info()
            lookups.append(info.hits + info.misses)
            distinct.append(info.misses)
    finally:
        oracle.char_edit_distance = distance
    return {
        "oracle_pairs_p50": int(statistics.median(per_pair)),
        "row_lookups_p50": int(statistics.median(lookups)),
        "distinct_rows_p50": int(statistics.median(distinct)),
    }


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def run(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    per_query = record_calls(args)
    record_s = time.perf_counter() - t0
    work = work_per_query(per_query)

    # Per side: the mean per-query replay time of each repeat, and every
    # per-query time pooled over repeats.
    repeat_ms: dict[str, list[float]] = {side: [] for side in SIDES}
    query_ms: dict[str, list[float]] = {side: [] for side in SIDES}
    reference = None
    for repeat in range(args.repeats):
        # Interleave, rotating the order so drift hits every side.
        shift = repeat % len(SIDES)
        for side in SIDES[shift:] + SIDES[:shift]:
            seconds, outcomes = replay(per_query, side)
            if reference is None:
                reference = outcomes
            elif outcomes != reference:
                raise AssertionError(f"{side} vote diverged from the oracle")
            repeat_ms[side].append(1000 * sum(seconds) / len(seconds))
            query_ms[side].extend(1000 * s for s in seconds)

    rows = []
    for side in SIDES:
        q1, median, q3 = quartiles(repeat_ms[side])
        rows.append({
            "side": side,
            "median_ms": median,
            "iqr_ms": q3 - q1,
            "repeat_ms": repeat_ms[side],
            "query_p50_ms": statistics.median(query_ms[side]),
            "query_p95_ms": statistics.quantiles(
                query_ms[side], n=20, method="inclusive"
            )[18],
        })
    by_side = {row["side"]: row for row in rows}
    oracle_ms = by_side["oracle"]["median_ms"]
    for row in rows:
        row["speedup_vs_oracle"] = oracle_ms / row["median_ms"]
    return {
        "benchmark": "literal_voting",
        "queries": args.queries,
        "repeats": args.repeats,
        "train": args.train,
        "nbest": NBEST,
        "split_seed": SPLIT_SEED,
        "nproc": os.cpu_count(),
        "vote_calls": sum(len(calls) for calls in per_query),
        **work,
        "identical_outcomes": True,
        "speedup": by_side["kernel"]["speedup_vs_oracle"],
        "record_s": record_s,
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=80,
                        help="Employees test dictations to record (default 80)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved replays per side (default 5)")
    parser.add_argument("--train", type=int, default=750,
                        help="ASR training queries (default 750, as served)")
    parser.add_argument("--out", default="BENCH_literal_voting.json")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit 1 when oracle/kernel median falls below")
    args = parser.parse_args(argv)
    if args.queries < 1 or args.repeats < 1:
        parser.error("--queries and --repeats must be positive")

    report = run(args)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    for row in report["rows"]:
        print(f"{row['side']:>12}: {row['median_ms']:8.2f} ms/query "
              f"(IQR {row['iqr_ms']:.2f}), {row['speedup_vs_oracle']:.1f}x")
    print(f"per query p50: {report['oracle_pairs_p50']} oracle pairs, "
          f"{report['row_lookups_p50']} row lookups, "
          f"{report['distinct_rows_p50']} distinct rows; "
          f"outcomes identical; wrote {args.out}")
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {report['speedup']:.2f}x < "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
