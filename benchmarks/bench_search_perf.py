"""Structure-search kernel benchmark: the kernel vs the depth-first oracle.

Measures the level-synchronous search kernel (``compiled``) against the
node-object oracle (``reference``,
:func:`repro.structure.reference.reference_search`) on one shared index,
over perturbed real structures (the workload the online pipeline sees).
Every query is first parity-checked — the kernel must return results
bit-identical to the oracle's at default flags and with DAP, INV and
DAP + INV — so the speedup numbers can never come from a divergent
kernel.  Timing runs at default flags.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_search_perf.py \
        --max-tokens 20 --queries 100 --out BENCH_structure_search.json

Each side replays the query set ``--repeats`` times, interleaved
with the other so drift hits both.  Emits a JSON report per k
(queries/sec, median and p95 per-search latency over every sample, the
spread (IQR) of the per-repeat medians, and one pass's nodes visited,
DP cells, candidates scored and levels visited), plus index build and
compile time (``index_build_s``, ``compile_s``: the compile lowers the
structures into the level plan), ``nproc`` and repeats, and exits non-zero
when the kernel's median speedup at the pipeline's default k falls
below ``--min-speedup`` — which is how CI smoke-tests the fast path.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from functools import partial
from pathlib import Path

from repro.core.pipeline import SpeakQLConfig
from repro.grammar.generator import StructureGenerator
from repro.structure.indexer import StructureIndex
from repro.structure.reference import reference_search
from repro.structure.search import StructureSearchEngine

#: k values measured: the pipeline's default top-k (primary metric) and
#: the k=1 used by clause dictation and per-alternative rescoring.
DEFAULT_KS = (SpeakQLConfig().top_k, 1)

#: Flag sets the parity check covers: the timed defaults, DAP, INV and
#: DAP + INV.
PARITY_FLAGS = (
    {},
    {"use_dap": True},
    {"use_inv": True},
    {"use_dap": True, "use_inv": True},
)


def make_queries(index: StructureIndex, count: int, seed: int) -> list[tuple[str, ...]]:
    """Perturbed index sentences: pops and noise-token insertions."""
    sentences = index.structures
    rng = random.Random(seed)
    noise = ["x", "AND", ",", "WHERE"]
    queries = []
    for _ in range(count):
        tokens = list(rng.choice(sentences))
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5 and len(tokens) > 1:
                tokens.pop(rng.randrange(len(tokens)))
            else:
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(noise))
        queries.append(tuple(tokens))
    return queries


def check_parity(
    index: StructureIndex, queries: list[tuple[str, ...]], ks: tuple[int, ...]
) -> int:
    """Results bit-identical to the oracle's under every flag set of
    :data:`PARITY_FLAGS`; returns queries checked."""
    for flags in PARITY_FLAGS:
        engine = StructureSearchEngine(index, cache_results=False, **flags)
        for masked in queries:
            for k in ks:
                expected, _ = reference_search(index, masked, k, **flags)
                got, _ = engine.search(masked, k=k)
                if got != expected:
                    raise AssertionError(
                        f"kernel divergence at k={k} with {flags} for "
                        f"{' '.join(masked)!r}"
                    )
    return len(queries)


def measure(search, queries: list[tuple[str, ...]], k: int) -> tuple[list[float], dict]:
    """One pass of ``search(masked, k)`` over ``queries``: per-search
    seconds and work counters."""
    latencies = []
    work = {"nodes_visited": 0, "dp_cells": 0, "candidates_scored": 0,
            "levels_visited": 0}
    for masked in queries:
        start = time.perf_counter()
        _, stats = search(masked, k)
        latencies.append(time.perf_counter() - start)
        for name in work:
            work[name] += getattr(stats, name)
    return latencies, work


def summarize(passes: list[list[float]], work: dict) -> dict:
    """Pooled latency figures plus the spread of the per-pass medians."""
    pooled = sorted(s for latencies in passes for s in latencies)
    medians = [statistics.median(latencies) * 1e3 for latencies in passes]
    if len(medians) > 1:
        q1, _, q3 = statistics.quantiles(medians, n=4, method="inclusive")
    else:
        q1 = q3 = medians[0]
    total = sum(pooled)
    return {
        "queries": len(passes[0]),
        "queries_per_sec": len(pooled) / total,
        "median_ms": statistics.median(pooled) * 1e3,
        "p95_ms": pooled[min(len(pooled) - 1, int(len(pooled) * 0.95))] * 1e3,
        "iqr_ms": q3 - q1,
        "repeat_median_ms": medians,
        "total_s": total / len(passes),
        **work,
    }


def run(args: argparse.Namespace) -> dict:
    build_start = time.perf_counter()
    index = StructureIndex.build(StructureGenerator(max_tokens=args.max_tokens))
    build_s = time.perf_counter() - build_start

    compile_start = time.perf_counter()
    index.compiled()
    compile_s = time.perf_counter() - compile_start

    queries = make_queries(index, args.queries, args.seed)
    ks = tuple(dict.fromkeys(DEFAULT_KS))  # primary k first, deduplicated
    parity_checked = check_parity(index, queries, ks)

    report = {
        "benchmark": "structure_search_kernels",
        "max_tokens": args.max_tokens,
        "structures": len(index),
        "node_count": index.node_count(),
        "seed": args.seed,
        "repeats": args.repeats,
        "nproc": os.cpu_count(),
        "index_build_s": build_s,
        "compile_s": compile_s,
        "parity_checked_queries": parity_checked,
        "results": {},
    }
    primary_k = ks[0]
    searches = {
        "reference": partial(reference_search, index),
        "compiled": StructureSearchEngine(index, cache_results=False).search,
    }
    kernels = tuple(searches)
    for k in ks:
        for search in searches.values():
            for masked in queries[: min(10, len(queries))]:
                search(masked, k)  # warm-up
        passes = {kernel: [] for kernel in kernels}
        work = {}
        for repeat in range(args.repeats):
            # Interleave, rotating the order so drift hits both kernels.
            shift = repeat % len(kernels)
            for kernel in kernels[shift:] + kernels[:shift]:
                latencies, work[kernel] = measure(searches[kernel], queries, k)
                passes[kernel].append(latencies)
        per_k = {
            kernel: summarize(passes[kernel], work[kernel])
            for kernel in kernels
        }
        per_k["median_speedup"] = (
            per_k["reference"]["median_ms"] / per_k["compiled"]["median_ms"]
        )
        per_k["p95_speedup"] = (
            per_k["reference"]["p95_ms"] / per_k["compiled"]["p95_ms"]
        )
        report["results"][f"k={k}"] = per_k
    report["primary_k"] = primary_k
    report["primary_median_speedup"] = report["results"][f"k={primary_k}"][
        "median_speedup"
    ]
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-tokens", type=int, default=20,
                        help="structure-generator token cap (index size)")
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved passes per kernel (default 3)")
    parser.add_argument("--out", default="BENCH_structure_search.json")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if the primary median speedup "
                        "falls below this (CI gate)")
    args = parser.parse_args(argv)
    if args.queries < 1 or args.repeats < 1:
        parser.error("--queries and --repeats must be positive")

    report = run(args)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    for label, per_k in report["results"].items():
        ref, comp = per_k["reference"], per_k["compiled"]
        print(
            f"{label}: reference {ref['median_ms']:.2f}ms median / "
            f"{ref['p95_ms']:.2f}ms p95, compiled {comp['median_ms']:.2f}ms "
            f"median / {comp['p95_ms']:.2f}ms p95 -> "
            f"{per_k['median_speedup']:.2f}x median, "
            f"{per_k['p95_speedup']:.2f}x p95"
        )
    speedup = report["primary_median_speedup"]
    print(
        f"primary (k={report['primary_k']}): {speedup:.2f}x median speedup, "
        f"{report['parity_checked_queries']} queries parity-checked, "
        f"report written to {args.out}"
    )
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"FAIL: {speedup:.2f}x < required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
