"""Command-line interface: ``python -m repro`` or the ``speakql`` script.

Subcommands:

- ``dictate``  — simulate dictating a SQL query (verbalize, corrupt,
  decode, correct) against a built-in schema and print every stage.
- ``correct``  — run structure + literal determination on one or more
  raw transcription texts (``--workers N`` fans a batch over threads).
- ``schema``   — print a built-in schema (tables, columns, types).
- ``speak``    — show the spoken-word rendering of a SQL query.
- ``replay``   — re-execute queries from a replay bundle, asserting
  bit-identical output (non-zero exit on any drift).
- ``explain``  — render one recorded query as a human-readable
  forensic narrative (channel events, candidates, voting).
- ``execute``  — run SQL on a real execution backend (``--db sqlite``
  or ``--db duckdb``) loaded with the deterministic synthetic instance;
  with ``--gold`` also prints the execution-accuracy verdict
  (see ``docs/execution.md``).
- ``serve``    — run the resilient serving daemon: JSON-lines requests
  on stdin (and ``--port`` TCP), served concurrently, with per-request
  deadlines, load shedding, degraded-mode fallbacks, and HTTP health,
  readiness and telemetry endpoints — see ``docs/serving.md``.

``dictate`` and ``correct`` accept ``--trace-out FILE`` (JSON-lines
spans), ``--metrics-out FILE`` (Prometheus text for ``.prom``/``.txt``,
a human summary table otherwise), and ``--record-out FILE`` (a forensic
replay bundle for ``replay``/``explain``) — see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import QueryRequest
from repro.asr import make_custom_engine, verbalize_sql
from repro.core import SpeakQL, SpeakQLArtifacts, SpeakQLService
from repro.dataset import build_employees_catalog, build_yelp_catalog
from repro.dataset.spoken import make_spoken_dataset
from repro.observability import (
    MetricsRegistry,
    Recorder,
    ReplayBundle,
    ReplayError,
    Tracer,
    render_record,
    replay_bundle,
    write_metrics,
    write_trace_jsonl,
)
from repro.sqlengine.executor import execute
from repro.sqlengine.parser import parse_select

_CATALOGS = {
    "employees": build_employees_catalog,
    "yelp": build_yelp_catalog,
}

def _build_pipeline(schema: str, train: int) -> SpeakQL:
    catalog = _CATALOGS[schema]()
    engine = None
    if train > 0:
        training = make_spoken_dataset("train", catalog, train, seed=7)
        engine = make_custom_engine([q.sql for q in training.queries])
    artifacts = SpeakQLArtifacts.build(engine=engine)
    return SpeakQL(catalog, artifacts=artifacts)


def _observability(args: argparse.Namespace) -> tuple[Tracer, MetricsRegistry | None]:
    """Tracer/registry for a command, live only when an --out flag asks."""
    tracer = Tracer(enabled=bool(args.trace_out))
    metrics = MetricsRegistry() if args.metrics_out else None
    return tracer, metrics


def _export_observability(
    args: argparse.Namespace,
    tracer: Tracer,
    metrics: MetricsRegistry | None,
) -> None:
    if args.trace_out:
        count = write_trace_jsonl(tracer, args.trace_out)
        print(f"wrote {count} span(s) to {args.trace_out}", file=sys.stderr)
    if args.metrics_out and metrics is not None:
        write_metrics(metrics, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)


def _write_bundle(
    args: argparse.Namespace,
    pipeline: SpeakQL,
    recorder: Recorder | None,
    train: int,
) -> None:
    """Write the recorded queries as a replay bundle at ``--record-out``."""
    if recorder is None or not args.record_out:
        return
    service = SpeakQLService.from_pipeline(pipeline)
    service.write_replay_bundle(
        args.record_out,
        recorder,
        environment={"schema": args.schema, "train": train},
    )
    print(
        f"wrote {len(recorder)} record(s) to {args.record_out}",
        file=sys.stderr,
    )


def _deadline_seconds(args: argparse.Namespace) -> float | None:
    deadline_ms = getattr(args, "deadline_ms", None)
    return deadline_ms / 1000.0 if deadline_ms is not None else None


def _cmd_dictate(args: argparse.Namespace) -> int:
    pipeline = _build_pipeline(args.schema, args.train)
    tracer, metrics = _observability(args)
    recorder = Recorder() if args.record_out else None
    request = QueryRequest(
        text=args.sql, seed=args.seed, deadline=_deadline_seconds(args)
    )
    record = recorder.start_request(request) if recorder is not None else None
    from repro.serving import ServingRuntime

    runtime = ServingRuntime(
        SpeakQLService.from_pipeline(pipeline), tracer=tracer
    )
    response = runtime.submit(request, record=record, pipeline_metrics=metrics)
    if not response.ok:
        print(f"outcome: {response.outcome} ({response.error})",
              file=sys.stderr)
        _export_observability(args, tracer, metrics)
        return 1
    out = response.output
    print(f"spoken : {' '.join(verbalize_sql(args.sql))}")
    print(f"heard  : {out.asr_text}")
    print(f"output : {out.sql}")
    print(f"latency: {out.timings.total_seconds * 1000:.0f} ms")
    if response.outcome != "served":
        print(f"outcome: {response.outcome} (rung {response.rung})",
              file=sys.stderr)
    if args.execute:
        _execute(out.sql, pipeline)
    _export_observability(args, tracer, metrics)
    _write_bundle(args, pipeline, recorder, train=args.train)
    return 0


def _cmd_correct(args: argparse.Namespace) -> int:
    pipeline = _build_pipeline(args.schema, train=0)
    service = SpeakQLService.from_pipeline(pipeline)
    tracer, metrics = _observability(args)
    recorder = Recorder() if args.record_out else None
    requests = [
        QueryRequest(text=text, deadline=_deadline_seconds(args))
        for text in args.transcriptions
    ]
    outputs = service.run_batch(
        requests,
        workers=args.workers,
        tracer=tracer,
        metrics=metrics,
        recorder=recorder,
    )
    for out in outputs:
        print(out.sql)
        if args.execute:
            _execute(out.sql, pipeline)
    _export_observability(args, tracer, metrics)
    _write_bundle(args, pipeline, recorder, train=0)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.observability import RotatingTraceSink
    from repro.serving import (
        AsyncServingDaemon,
        ServingRuntime,
        run_async_daemon,
    )

    pipeline = _build_pipeline(args.schema, args.train)
    # The registry is always live: the telemetry plane scrapes it via
    # GET /metrics, independent of whether an exit dump was requested.
    metrics = MetricsRegistry()
    tracer = Tracer(enabled=bool(args.trace_out))
    trace_sink = (
        RotatingTraceSink(args.trace_out, max_bytes=args.trace_max_bytes)
        if args.trace_out
        else None
    )
    runtime = ServingRuntime(
        SpeakQLService.from_pipeline(pipeline),
        queue_limit=args.queue_limit,
        degrade_below=(
            args.degrade_below_ms / 1000.0
            if args.degrade_below_ms is not None
            else None
        ),
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        tracer=tracer,
        metrics=metrics,
        trace_sample_rate=args.trace_sample_rate,
        trace_sink=trace_sink,
        session_ttl=args.session_ttl,
        session_limit=args.session_limit,
    )
    daemon = AsyncServingDaemon(
        runtime,
        health_port=args.health_port,
        telemetry_port=args.telemetry_port,
        port=args.port,
        max_line_bytes=args.max_line_bytes,
    )
    try:
        # Returns on stdin EOF, SIGTERM or SIGINT, after the drain.
        code = run_async_daemon(daemon)
    finally:
        runtime.flush_traces()
        if args.metrics_out:
            write_metrics(metrics, args.metrics_out)
            print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
        if trace_sink is not None:
            trace_sink.close()
            print(f"wrote traces to {args.trace_out}", file=sys.stderr)
    return code


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        bundle = ReplayBundle.load(args.bundle)
    except (OSError, ValueError) as error:
        print(f"cannot load bundle: {error}", file=sys.stderr)
        return 1
    env = bundle.environment
    pipeline = _build_pipeline(
        env.get("schema", "employees"), int(env.get("train", 0))
    )
    try:
        results = replay_bundle(pipeline, bundle, index=args.index)
    except ReplayError as error:
        print(f"replay failed: {error}", file=sys.stderr)
        return 1
    drifted = 0
    for position, (record, output, mismatches) in enumerate(results):
        label = args.index if args.index is not None else position
        if mismatches:
            drifted += 1
            print(f"record {label}: DRIFT")
            for mismatch in mismatches:
                print(f"  {mismatch}")
        else:
            print(f"record {label}: OK  {output.sql}")
    print(f"{len(results) - drifted}/{len(results)} record(s) bit-identical")
    return 1 if drifted else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    try:
        bundle = ReplayBundle.load(args.bundle)
    except (OSError, ValueError) as error:
        print(f"cannot load bundle: {error}", file=sys.stderr)
        return 1
    if not bundle.records:
        print("bundle has no records", file=sys.stderr)
        return 1
    if not 0 <= args.index < len(bundle.records):
        print(
            f"record index {args.index} out of range (bundle has "
            f"{len(bundle.records)} record(s))",
            file=sys.stderr,
        )
        return 1
    print(render_record(bundle.records[args.index], gold_sql=args.gold))
    return 0


def _cmd_execute(args: argparse.Namespace) -> int:
    from repro.errors import BackendUnavailableError
    from repro.execution import (
        ExecutionScorer,
        available_backends,
        backend_for,
        build_instance_catalog,
    )

    tracer, metrics = _observability(args)
    try:
        backend = backend_for(args.db)
    except BackendUnavailableError as error:
        print(f"backend {args.db!r} unavailable: {error}", file=sys.stderr)
        print(f"available: {', '.join(available_backends())}",
              file=sys.stderr)
        return 1
    catalog = build_instance_catalog(args.schema, seed=args.seed)
    timeout = args.timeout_ms / 1000.0 if args.timeout_ms else None
    with ExecutionScorer(
        backend, catalog, timeout=timeout, tracer=tracer, metrics=metrics
    ) as scorer:
        if args.gold is not None:
            score = scorer.score(args.gold, args.sql)
            print(f"verdict     : {score.verdict}")
            print(f"string match: {score.string_match}")
            print(f"gold rows   : {score.gold_rows}")
            print(f"result rows : {score.predicted_rows}")
            if score.reason:
                print(f"why         : {score.reason}")
            _export_observability(args, tracer, metrics)
            return 0 if score.execution_match else 1
        try:
            result = backend.execute(args.sql, timeout=timeout)
        except Exception as error:  # BackendError subclasses
            print(f"execution failed: {error}", file=sys.stderr)
            _export_observability(args, tracer, metrics)
            return 1
        print(f"-- {len(result.rows)} row(s): {result.columns}")
        for row in result.rows[: args.limit]:
            print("  ", row)
        if len(result.rows) > args.limit:
            print(f"   ... ({len(result.rows) - args.limit} more)")
    _export_observability(args, tracer, metrics)
    return 0


def _cmd_schema(args: argparse.Namespace) -> int:
    catalog = _CATALOGS[args.schema]()
    for table_schema in catalog.schema():
        print(table_schema.name)
        for column in table_schema.columns:
            print(f"  {column.name}: {column.type_name}")
    return 0


def _cmd_speak(args: argparse.Namespace) -> int:
    print(" ".join(verbalize_sql(args.sql)))
    return 0


def _cmd_repl(args: argparse.Namespace) -> int:
    from repro.interface.repl import ReplSession

    pipeline = _build_pipeline(args.schema, args.train)
    metrics = MetricsRegistry() if args.metrics_out else None
    ReplSession(pipeline=pipeline, seed=args.seed, metrics=metrics).run()
    if args.metrics_out and metrics is not None:
        write_metrics(metrics, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
    return 0


def _execute(sql: str, pipeline: SpeakQL) -> None:
    try:
        result = execute(parse_select(sql), pipeline.catalog)
    except Exception as error:
        print(f"execution failed: {error}", file=sys.stderr)
        return
    print(f"-- {len(result.rows)} row(s): {result.columns}")
    for row in result.rows[:10]:
        print("  ", row)


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write hierarchical spans as JSON lines")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write collected metrics (.prom/.txt = "
                             "Prometheus text, else a summary table)")
    parser.add_argument("--record-out", metavar="FILE", default=None,
                        help="write forensic query records as a replay "
                             "bundle (see the replay/explain subcommands)")


def build_parser() -> argparse.ArgumentParser:
    from repro.serving.protocol import DEFAULT_MAX_LINE_BYTES

    parser = argparse.ArgumentParser(
        prog="speakql",
        description="SpeakQL reproduction: speech-driven SQL querying.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dictate = sub.add_parser("dictate", help="dictate a SQL query")
    dictate.add_argument("sql")
    dictate.add_argument("--schema", choices=_CATALOGS, default="employees")
    dictate.add_argument("--seed", type=int, default=42)
    dictate.add_argument("--train", type=int, default=100,
                         help="training queries for the custom ASR model")
    dictate.add_argument("--execute", action="store_true")
    dictate.add_argument("--deadline-ms", type=float, default=None,
                         help="latency budget; past-deadline queries stop "
                              "at the next stage boundary")
    _add_observability_args(dictate)
    dictate.set_defaults(func=_cmd_dictate)

    correct = sub.add_parser("correct", help="correct transcription(s)")
    correct.add_argument("transcriptions", nargs="+",
                         metavar="transcription")
    correct.add_argument("--schema", choices=_CATALOGS, default="employees")
    correct.add_argument("--execute", action="store_true")
    correct.add_argument("--workers", type=int, default=1,
                         help="worker threads for batch correction "
                              "(1 = serial, paper-faithful)")
    correct.add_argument("--deadline-ms", type=float, default=None,
                         help="per-request latency budget in milliseconds")
    _add_observability_args(correct)
    correct.set_defaults(func=_cmd_correct)

    serve = sub.add_parser(
        "serve", help="JSON-lines serving daemon (see docs/serving.md)"
    )
    serve.add_argument("--schema", choices=_CATALOGS, default="employees")
    serve.add_argument("--train", type=int, default=0,
                       help="training queries for the custom ASR model")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="max in-flight requests before shedding")
    serve.add_argument("--degrade-below-ms", type=float, default=None,
                       help="requests with a smaller deadline budget start "
                            "degraded (skip the requested config)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive failures that trip a rung's "
                            "circuit breaker")
    serve.add_argument("--breaker-cooldown", type=int, default=8,
                       help="requests a tripped rung sits out before its "
                            "half-open trial")
    serve.add_argument("--session-ttl", type=float, default=900.0,
                       metavar="SECONDS",
                       help="idle correction sessions expire after this "
                            "many seconds (default 900)")
    serve.add_argument("--session-limit", type=int, default=64,
                       metavar="N",
                       help="live correction sessions kept before LRU "
                            "eviction (default 64)")
    serve.add_argument("--health-port", type=int, default=None,
                       help="serve /healthz, /readyz, /metrics and "
                            "/statusz on this port (0 = ephemeral; omit to "
                            "disable)")
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="deprecated, does nothing: the daemon is "
                            "always the asyncio front end")
    serve.add_argument("--port", type=int, default=None,
                       help="also accept JSON-lines connections on this "
                            "TCP port (0 = ephemeral; stdin EOF still ends "
                            "the daemon)")
    serve.add_argument("--max-line-bytes", type=int,
                       default=DEFAULT_MAX_LINE_BYTES,
                       help="largest accepted request line; longer lines "
                            "get a structured invalid_request error")
    serve.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write serving metrics on exit")
    serve.add_argument("--telemetry-port", type=int, default=None,
                       help="serve the same endpoints as --health-port "
                            "on a second, dedicated port (0 = ephemeral)")
    serve.add_argument("--trace-out", metavar="FILE", default=None,
                       help="stream sampled request traces as JSON-lines "
                            "spans into a size-capped rotating file")
    serve.add_argument("--trace-sample-rate", type=float, default=1.0,
                       help="fraction of requests to trace when "
                            "--trace-out is set (0.0-1.0)")
    serve.add_argument("--trace-max-bytes", type=int, default=16 << 20,
                       help="rotate the --trace-out file before a write "
                            "would exceed this size")
    serve.set_defaults(func=_cmd_serve)

    execute = sub.add_parser(
        "execute",
        help="run SQL on a real execution backend (docs/execution.md)",
    )
    execute.add_argument("sql")
    execute.add_argument("--db", choices=("sqlite", "duckdb"),
                         default="sqlite",
                         help="execution backend (duckdb requires the "
                              "optional duckdb package)")
    execute.add_argument("--schema", choices=_CATALOGS, default="employees")
    execute.add_argument("--seed", type=int, default=None,
                         help="instance seed (default: the schema's "
                              "canonical seed)")
    execute.add_argument("--gold", default=None, metavar="SQL",
                         help="ground-truth SQL: print the execution-"
                              "accuracy verdict instead of rows (exit 0 "
                              "only on a match)")
    execute.add_argument("--timeout-ms", type=float, default=5000.0,
                         help="per-query execution timeout (0 disables)")
    execute.add_argument("--limit", type=int, default=10,
                         help="max rows to print")
    execute.add_argument("--trace-out", metavar="FILE", default=None,
                         help="write hierarchical spans as JSON lines")
    execute.add_argument("--metrics-out", metavar="FILE", default=None,
                         help="write collected metrics")
    execute.set_defaults(func=_cmd_execute)

    schema = sub.add_parser("schema", help="print a built-in schema")
    schema.add_argument("--schema", choices=_CATALOGS, default="employees")
    schema.set_defaults(func=_cmd_schema)

    speak = sub.add_parser("speak", help="spoken rendering of a query")
    speak.add_argument("sql")
    speak.set_defaults(func=_cmd_speak)

    replay = sub.add_parser(
        "replay", help="re-execute a replay bundle, asserting bit-identity"
    )
    replay.add_argument("bundle", help="replay bundle written by --record-out")
    replay.add_argument("--index", type=int, default=None,
                        help="replay only the record at this index")
    replay.set_defaults(func=_cmd_replay)

    explain = sub.add_parser(
        "explain", help="render one recorded query as a forensic narrative"
    )
    explain.add_argument("bundle", help="replay bundle written by --record-out")
    explain.add_argument("--index", type=int, default=0,
                         help="record to explain (default: 0)")
    explain.add_argument("--gold", default=None, metavar="SQL",
                         help="ground-truth SQL: adds a miss-attribution "
                              "verdict to the narrative")
    explain.set_defaults(func=_cmd_explain)

    repl = sub.add_parser("repl", help="interactive SpeakQL session")
    repl.add_argument("--schema", choices=_CATALOGS, default="employees")
    repl.add_argument("--train", type=int, default=100)
    repl.add_argument("--seed", type=int, default=1)
    repl.add_argument("--metrics-out", metavar="FILE", default=None,
                      help="write session metrics on exit (also prints a "
                           "summary table)")
    repl.set_defaults(func=_cmd_repl)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `speakql schema | head`) closed early:
        # standard Unix behaviour is to exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 141


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
