"""Dictation search benchmark: one structure search per distinct masked text.

Dictates N seeded Employees test queries (n-best 5, runner-up
structures included) through the library pipeline, in interleaved
repeats, two ways:

- ``cached`` — the production engine.  Its result cache keeps one entry
  per masked string at the widest ``k`` searched, and the pipeline
  searches the rank-0 text once at ``top_k`` for both its own
  correction and the runner-up structures;
- ``uncached`` — the same pipeline with ``cache_results=False`` (the
  engine's oracle switch), so every search request runs the kernel.

Every dictation's output (query list, structure, literal result) must be
identical on both sides, and the cached side must never run more kernel
searches in a dictation than the dictation has distinct masked texts;
otherwise the run aborts.  Per side it reports kernel searches per
dictation, the kernel's ``nodes_visited`` per dictation (work done, not
milliseconds), structure-search milliseconds per dictation (time inside
``StructureSearchEngine.search``, cache hits included), the literal
determiner's placeholder-memo hit ratio, the share of dictation wall
time the output's stage timings account for, per-stage p50/p95 from
each output's ``ComponentTimings``, and end-to-end dictation latency
p50/p95 over every sample, with the sample count, ``nproc``, repeats
and the spread (IQR) of the per-repeat medians.  The run exits 1 when a
side's stage timings cover less than ``MIN_COVERAGE`` (0.95) of its
dictation wall time: time outside every stage is time no stage
span or ``speakql_stage_seconds`` series can show.  Each repeat
starts both sides from an empty result cache, placeholder memo,
distance-row cache and segment-code memo; within a repeat they stay
warm across dictations, as in a daemon.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_dictation_searches.py \\
        --queries 80 --repeats 5 --out BENCH_dictation_searches.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.asr import make_custom_engine
from repro.core import SpeakQL, SpeakQLArtifacts
from repro.core.stages import QueryContext
from repro.dataset import build_employees_catalog
from repro.dataset.spoken import make_spoken_dataset
from repro.literal.segmentation import segment_code
from repro.literal.voting import segment_rows

SIDES = ("cached", "uncached")
# As the repository benchmark's dictate workload: n-best 5 dictations of
# the paper's Employees test split (dataset seed 8).
NBEST = 5
SPLIT_SEED = 8
#: Share of dictation wall time the stage timings must cover.
MIN_COVERAGE = 0.95


class SearchProbe:
    """Counts kernel searches and their nodes, and times search calls,
    of one pipeline."""

    def __init__(self, speakql: SpeakQL) -> None:
        self.kernel_searches = 0
        self.nodes_visited = 0
        self.search_seconds = 0.0
        engine = speakql._searcher
        search, uncached = engine.search, engine._search_uncached
        clock = time.perf_counter

        def timed_search(masked, k=1):
            start = clock()
            try:
                return search(masked, k=k)
            finally:
                self.search_seconds += clock() - start

        def counted_uncached(masked, k):
            self.kernel_searches += 1
            results, stats = uncached(masked, k)
            self.nodes_visited += stats.nodes_visited
            return results, stats

        engine.search = timed_search
        engine._search_uncached = counted_uncached

    def take(self) -> tuple[int, int, float]:
        sample = (self.kernel_searches, self.nodes_visited, self.search_seconds)
        self.kernel_searches, self.nodes_visited = 0, 0
        self.search_seconds = 0.0
        return sample


def build(args: argparse.Namespace):
    catalog = build_employees_catalog()
    engine = None
    if args.train > 0:
        training = make_spoken_dataset("train", catalog, args.train, seed=7)
        engine = make_custom_engine([q.sql for q in training.queries])
    artifacts = SpeakQLArtifacts.build(engine=engine)
    pipelines = {side: SpeakQL(catalog, artifacts=artifacts) for side in SIDES}
    pipelines["uncached"]._searcher.cache_results = False
    dictations = make_spoken_dataset(
        "test", catalog, args.queries, seed=SPLIT_SEED
    ).queries
    return pipelines, dictations


def answer(output) -> tuple:
    """The parts of a ``SpeakQLOutput`` both sides must agree on."""
    return (tuple(output.queries), output.structure, output.literal_result)


def distinct_masked(speakql: SpeakQL, output) -> int:
    texts = (output.asr_text, *output.asr_alternatives)
    return len({
        speakql._mask_stage.run(text, QueryContext()).search_tokens
        for text in texts
    })


def p95(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def stage_percentiles(timings: list[dict[str, float]]) -> dict[str, dict]:
    """Per-stage p50/p95 milliseconds over dictations' stage timings.

    ``timings`` holds one ``ComponentTimings.stages`` mapping (seconds)
    per dictation; a stage a dictation never ran counts as 0 ms there.
    """
    names = sorted({name for stages in timings for name in stages})
    summary = {}
    for name in names:
        samples = [1000 * stages.get(name, 0.0) for stages in timings]
        summary[name] = {
            "p50_ms": statistics.median(samples),
            "p95_ms": p95(samples),
        }
    return summary


def coverage_failures(report: dict, min_coverage: float) -> list[str]:
    """One message per side whose stage coverage is below the gate."""
    return [
        f"{row['side']}: stage timings cover {row['stage_coverage']:.1%} "
        f"of dictation wall time (required {min_coverage:.1%})"
        for row in report["rows"]
        if row["stage_coverage"] < min_coverage
    ]


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q2, q3


def run(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    pipelines, dictations = build(args)
    setup_s = time.perf_counter() - t0
    probes = {side: SearchProbe(pipelines[side]) for side in SIDES}
    clock = time.perf_counter

    latency_ms = {side: [] for side in SIDES}
    repeat_p50_ms = {side: [] for side in SIDES}
    searches = {side: [] for side in SIDES}
    nodes = {side: [] for side in SIDES}
    search_ms = {side: [] for side in SIDES}
    # Placeholder-memo (hits, lookups) and (stage seconds, wall seconds).
    memo = {side: [0, 0] for side in SIDES}
    covered = {side: [0.0, 0.0] for side in SIDES}
    stage_timings = {side: [] for side in SIDES}
    distinct: list[int] = []
    reference: list[tuple] | None = None
    for repeat in range(args.repeats):
        # Interleave, rotating the order so drift hits both sides.
        shift = repeat % len(SIDES)
        for side in SIDES[shift:] + SIDES[:shift]:
            speakql, probe = pipelines[side], probes[side]
            determiner = speakql._determiner
            speakql._searcher._cache.clear()
            determiner.cache_clear()
            segment_rows.cache_clear()
            segment_code.cache_clear()
            answers, this_repeat = [], []
            for query in dictations:
                before = determiner.cache_info()
                start = clock()
                output = speakql.query_from_speech(
                    query.sql, seed=query.seed, nbest=NBEST
                )
                elapsed = clock() - start
                elapsed_ms = 1000 * elapsed
                after = determiner.cache_info()
                memo[side][0] += after.hits - before.hits
                memo[side][1] += (after.hits + after.misses
                                  - before.hits - before.misses)
                covered[side][0] += output.timings.total_seconds
                covered[side][1] += elapsed
                stage_timings[side].append(output.timings.stages)
                count, visited, seconds = probe.take()
                if reference is None:
                    distinct.append(distinct_masked(speakql, output))
                if side == "cached" and count > distinct[len(answers)]:
                    raise AssertionError(
                        f"dictation {len(answers)}: {count} kernel searches "
                        f"for {distinct[len(answers)]} distinct masked texts"
                    )
                answers.append(answer(output))
                this_repeat.append(elapsed_ms)
                searches[side].append(count)
                nodes[side].append(visited)
                search_ms[side].append(1000 * seconds)
            if reference is None:
                reference = answers
            elif answers != reference:
                raise AssertionError(f"{side} output diverged (repeat {repeat})")
            latency_ms[side].extend(this_repeat)
            repeat_p50_ms[side].append(statistics.median(this_repeat))

    rows = []
    for side in SIDES:
        q1, _, q3 = quartiles(repeat_p50_ms[side])
        samples = latency_ms[side]
        rows.append({
            "side": side,
            "samples": len(samples),
            "median_ms": statistics.median(samples),
            "p95_ms": p95(samples),
            "iqr_ms": q3 - q1,
            "repeat_p50_ms": repeat_p50_ms[side],
            "searches_per_dictation": statistics.fmean(searches[side]),
            "nodes_visited_per_dictation": statistics.fmean(nodes[side]),
            "search_ms_per_dictation": statistics.fmean(search_ms[side]),
            "memo_hit_ratio": memo[side][0] / max(memo[side][1], 1),
            "stage_coverage": covered[side][0] / covered[side][1],
            "stages": stage_percentiles(stage_timings[side]),
        })
    by_side = {row["side"]: row for row in rows}
    return {
        "benchmark": "dictation_searches",
        "queries": args.queries,
        "repeats": args.repeats,
        "train": args.train,
        "nbest": NBEST,
        "split_seed": SPLIT_SEED,
        "nproc": os.cpu_count(),
        "distinct_masked_per_dictation": statistics.fmean(distinct),
        "identical_outputs": True,
        "searches_per_dictation": by_side["cached"]["searches_per_dictation"],
        "setup_s": setup_s,
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=80,
                        help="Employees test dictations (default 80)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved runs per side (default 5)")
    parser.add_argument("--train", type=int, default=750,
                        help="ASR training queries (default 750, as served)")
    parser.add_argument("--out", default="BENCH_dictation_searches.json")
    args = parser.parse_args(argv)
    if args.queries < 1 or args.repeats < 1:
        parser.error("--queries and --repeats must be positive")

    report = run(args)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    for row in report["rows"]:
        print(f"{row['side']:>9}: {row['searches_per_dictation']:.2f} kernel "
              f"searches/dictation ({row['nodes_visited_per_dictation']:.0f} "
              f"nodes), {row['search_ms_per_dictation']:.1f} ms "
              f"searching, memo hits {row['memo_hit_ratio']:.2f}, stages "
              f"cover {row['stage_coverage']:.1%}; "
              f"e2e p50 {row['median_ms']:.1f} ms "
              f"(IQR {row['iqr_ms']:.1f}), p95 {row['p95_ms']:.1f} ms, "
              f"n={row['samples']}")
        for name, stage in row["stages"].items():
            print(f"{'':>11}{name}: p50 {stage['p50_ms']:.2f} ms, "
                  f"p95 {stage['p95_ms']:.2f} ms")
    print(f"distinct masked texts/dictation "
          f"{report['distinct_masked_per_dictation']:.2f}; outputs "
          f"identical; wrote {args.out}")
    failures = coverage_failures(report, MIN_COVERAGE)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
