"""Correction-turn latency: incremental sessions vs cold re-decode.

The tentpole claim of correction sessions is economic: once a query has
been dictated (turn 0), fixing one clause must cost a clause-sized
search, not a query-sized one.  This benchmark measures exactly that
gap on the serving runtime:

- **cold** — a full decode of the corrected query submitted without a
  session, which is what a client had to do before sessions existed:
  re-send the whole text and pay the whole-query structure search;
- **warm** — the same correction shipped as a session turn carrying a
  :class:`~repro.api.ClauseEdit`, so only the edited clause span is
  re-searched and the remaining spans are spliced from the session
  cache (bit-identical results, enforced by the parity suite).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_session.py \
        --queries 32 --max-tokens 18 --out BENCH_session.json

The report feeds ``tools/bench_history.py`` (one entry per phase, keys
``session@q<queries>m<max_tokens>p<phase>``).  ``--min-speedup`` turns
the cold/warm p50 ratio into a CI gate (the acceptance bar is 10x).
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

from repro.api import ClauseEdit, QueryRequest
from repro.core import SpeakQLArtifacts, SpeakQLService
from repro.dataset import build_employees_catalog
from repro.grammar.generator import StructureGenerator
from repro.serving import ServingRuntime
from repro.structure.indexer import StructureIndex

#: Base dictations and per-clause corrections, all over the employees
#: schema.  Every correction targets one clause so the session path can
#: reuse the others.
BASE_TEXTS = [
    "select first name from employees where gender equals m",
    "select salary from salaries where salary above 60000",
    "select first name from employees",
]

CLAUSE_TEXTS = {
    "SELECT": ["select last name", "select salary", "select first name"],
    "FROM": ["from employees", "from salaries"],
    "WHERE": ["where gender equals f", "where salary above 60000"],
    "LIMIT": ["limit 5"],
}


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def _phase_row(phase: str, samples_s: list[float], **extra) -> dict:
    return {
        "phase": phase,
        "samples": len(samples_s),
        "median_ms": statistics.median(samples_s) * 1e3,
        "p95_ms": percentile(samples_s, 0.95) * 1e3,
        **extra,
    }


def run_benchmark(args: argparse.Namespace) -> dict:
    catalog = build_employees_catalog()
    index = StructureIndex.build(
        StructureGenerator(max_tokens=args.max_tokens)
    )
    artifacts = SpeakQLArtifacts.build(
        structure_index=index,
        training_sql=[
            "SELECT FirstName FROM Employees",
            "SELECT salary FROM Salaries",
        ],
    )
    service = SpeakQLService(catalog, artifacts=artifacts)
    rng = random.Random(args.seed)
    runtime = ServingRuntime(service, session_limit=args.queries + 8)
    # Warm everything the clock must not see: the whole-query index
    # compilation (cold path) and the per-clause indexes + session
    # decoder (warm path).
    runtime.submit(QueryRequest(text=BASE_TEXTS[0]))
    runtime.submit(
        QueryRequest(text=BASE_TEXTS[0], session_id="warmup", turn=0)
    )
    runtime.submit(QueryRequest(
        text="", session_id="warmup", turn=1,
        edit=ClauseEdit("redictate", "WHERE", "where gender equals f"),
    ))

    cold_s: list[float] = []
    warm_s: list[float] = []
    reused_fractions: list[float] = []
    for trial in range(args.queries):
        session_id = f"bench-{trial}"
        base = rng.choice(BASE_TEXTS)
        turn0 = runtime.submit(
            QueryRequest(text=base, session_id=session_id, turn=0)
        )
        assert turn0.ok, turn0.error
        clause = rng.choice(sorted(CLAUSE_TEXTS))
        edit = ClauseEdit(
            rng.choice(("redictate", "token_patch")),
            clause,
            rng.choice(CLAUSE_TEXTS[clause]),
        )
        start = time.perf_counter()
        warm = runtime.submit(QueryRequest(
            text="", session_id=session_id, turn=1, edit=edit
        ))
        warm_s.append(time.perf_counter() - start)
        assert warm.ok, warm.error
        reused = len(warm.reused_spans)
        # The edited span was the one re-searched.
        reused_fractions.append(reused / (reused + 1))

        # The pre-session alternative: re-submit the whole corrected
        # query and pay the full-query structure search again.
        start = time.perf_counter()
        cold = runtime.submit(QueryRequest(text=warm.output.asr_text))
        cold_s.append(time.perf_counter() - start)
        assert cold.ok, cold.error

    cold_row = _phase_row("cold", cold_s)
    warm_row = _phase_row(
        "warm", warm_s,
        reused_span_fraction=statistics.mean(reused_fractions),
    )
    speedup = cold_row["median_ms"] / warm_row["median_ms"]
    return {
        "benchmark": "session",
        "queries": args.queries,
        "max_tokens": args.max_tokens,
        "seed": args.seed,
        "speedup_p50": speedup,
        "rows": [cold_row, warm_row],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=32,
                        help="correction trials (one session each)")
    parser.add_argument("--max-tokens", type=int, default=18,
                        help="structure index size (18 = the large index)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the JSON report here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless cold p50 / warm p50 is at least "
                             "this (the acceptance bar is 10)")
    args = parser.parse_args(argv)

    report = run_benchmark(args)
    cold, warm = report["rows"]
    print(f"cold p50 : {cold['median_ms']:8.2f} ms  "
          f"(p95 {cold['p95_ms']:.2f} ms)")
    print(f"warm p50 : {warm['median_ms']:8.2f} ms  "
          f"(p95 {warm['p95_ms']:.2f} ms, reused span fraction "
          f"{warm['reused_span_fraction']:.2f})")
    print(f"speedup  : {report['speedup_p50']:.1f}x")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    if (args.min_speedup is not None
            and report["speedup_p50"] < args.min_speedup):
        print(f"FAIL: speedup {report['speedup_p50']:.1f}x below the "
              f"--min-speedup gate {args.min_speedup:g}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
