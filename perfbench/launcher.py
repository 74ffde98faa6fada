"""Traced launcher for ``repro serve``: per-layer spans without editing src.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launcher.py --spans-out FILE -- serve --async ...

Before the daemon starts, the launcher wraps the public entry point of
each layer (see ``LAYERS`` below) in a span recorder.  Spans live in
memory and are written to ``FILE`` as one JSON document when the daemon
exits (stdin EOF or SIGTERM).  Each span records its name, start, end
(``time.perf_counter``, the system-wide monotonic clock on Linux, so
the benchmark can line spans up with its own client timestamps), its
parent (the innermost open span on the same thread) and a small
layer-specific payload.  ``perfbench/ledger.py`` turns the file into
per-layer self times and counts.

A wrap target that no longer exists is skipped with a warning on
stderr; the ledger then reports that layer as zero.
"""

from __future__ import annotations

import json
import sys
import threading
import time

_T_START = time.perf_counter()


class SpanLog:
    """Thread-aware in-memory span store.

    A span record is ``[name, start, end, parent_record, payload,
    edit_distance_calls]``; parents are object references, turned into
    list indices only when the log is written.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.frontend: list[tuple[float, float, str | None]] = []
        self.enqueued: dict[str, float] = {}
        self.missing: list[str] = []
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def to_json(self, import_s: float) -> dict:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        spans = [
            [name, start, end,
             index.get(id(parent)) if parent is not None else None,
             payload, calls]
            for name, start, end, parent, payload, calls in self.spans
        ]
        return {
            "import_s": import_s,
            "spans": spans,
            "frontend": self.frontend,
            "missing": self.missing,
        }


LOG = SpanLog()


def _span_wrapper(func, name: str, payload=None):
    """``func`` wrapped in a span named ``name``; ``payload(args,
    result, start)`` (optional) returns the span's JSON-ready payload."""
    log = LOG
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        stack = log.stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, None, 0]
        stack.append(rec)
        rec[1] = clock()
        try:
            result = func(*args, **kwargs)
        finally:
            rec[2] = clock()
            stack.pop()
            log.spans.append(rec)
        if payload is not None:
            rec[4] = payload(args, result, rec[1])
        return result

    wrapper.__wrapped__ = func
    return wrapper


def _counted_edit_distance(func):
    """Counts calls into the innermost open span (no span of its own:
    it runs thousands of times per query; every call on the serving
    path happens inside a literal span)."""
    log = LOG

    def wrapper(a, b):
        stack = log.stack()
        if stack:
            stack[-1][5] += 1
        return func(a, b)

    wrapper.__wrapped__ = func
    return wrapper


def _resolve(path: str):
    """``(owner, attribute)`` for ``module:Class.attr`` or
    ``module:function``; ``None`` when the target does not exist."""
    import importlib

    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def _patch(path: str, make_wrapper) -> None:
    resolved = _resolve(path)
    if resolved is None:
        LOG.missing.append(path)
        print(f"launcher: wrap target {path} not found; layer skipped",
              file=sys.stderr, flush=True)
        return
    owner, attr = resolved
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make_wrapper(raw.__func__)))
    else:
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))


def _search_payload(args, result, start):
    stats = result[1]
    return [bool(getattr(stats, "result_cache_hit", False)),
            int(getattr(stats, "nodes_visited", 0))]


def _transcribe_payload(args, result, start):
    return len(result.alternatives)


def _session_payload(args, result, start):
    request = args[1]
    return [request.turn, len(result.reused_spans), result.spans_total]


def _batch_payload(args, result, start):
    # Batch size, and each request's wait from MicroBatcher.submit to
    # this dispatch.
    waits = []
    for request in args[1]:
        enqueued = LOG.enqueued.pop(getattr(request, "trace_id", None), None)
        if enqueued is not None:
            waits.append(start - enqueued)
    return [len(args[1]), waits]


#: Span name -> wrap targets (``module:Class.attr`` or
#: ``module:function``) and an optional payload extractor.  Names are
#: the ledger's layer keys.
LAYERS = {
    "asr.transcribe": (
        ["repro.asr.engine:SimulatedAsrEngine.transcribe"],
        _transcribe_payload),
    "structure.mask": (
        ["repro.core.stages:preprocess_transcription",
         "repro.core.clauses:preprocess_transcription",
         "repro.serving.sessions:preprocess_transcription"], None),
    "structure.search": (
        ["repro.structure.search:StructureSearchEngine.search"],
        _search_payload),
    "structure.search_span": (
        ["repro.structure.search:StructureSearchEngine.search_span"], None),
    "literal.determine": (
        ["repro.literal.determiner:LiteralDeterminer.determine"], None),
    "literal.vote": (
        ["repro.literal.determiner:literal_assignment",
         "repro.literal.determiner:score_assignment",
         "repro.literal.voting:literal_assignment"], None),
    "core.runner_up": (
        ["repro.core.pipeline:SpeakQL._structure_alternatives"], None),
    "core.pipeline": (
        ["repro.core.pipeline:SpeakQL.query_from_speech",
         "repro.core.pipeline:SpeakQL.correct_transcription"], None),
    "core.clauses.decode": (
        ["repro.core.clauses:ClauseSpeakQL.decode_clause"], None),
    "serving.sessions.decode": (
        ["repro.serving.sessions:SessionDecoder.decode"], _session_payload),
    "serving.protocol": (
        ["repro.serving.async_daemon:decode_request",
         "repro.serving.async_daemon:response_frames"], None),
    "serving.runtime": (
        ["repro.serving.runtime:ServingRuntime.submit_batch"],
        _batch_payload),
    "setup.structure_index": (
        ["repro.structure.indexer:StructureIndex.build"], None),
    "setup.compile": (
        ["repro.structure.compiled:CompiledStructureIndex.compile"], None),
    "setup.engine_train": (
        ["repro.cli:make_spoken_dataset", "repro.cli:make_custom_engine"],
        None),
    "setup.clause_index": (
        ["repro.core.artifacts:SpeakQLArtifacts.clause_index"], None),
}


def _wrap_frontend() -> None:
    """The asyncio front end: coroutine spans kept off the thread stack
    (coroutines interleave on the loop thread)."""
    log = LOG
    clock = time.perf_counter

    def frames_wrapper(func):
        async def handle_frames(self, line):
            start = clock()
            frames = await func(self, line)
            trace_id = frames[-1].get("trace_id") if frames else None
            log.frontend.append((start, clock(), trace_id))
            return frames
        return handle_frames

    def submit_wrapper(func):
        async def submit(self, request):
            if request.trace_id is not None:
                log.enqueued[request.trace_id] = clock()
            return await func(self, request)
        return submit

    _patch("repro.serving.async_daemon:AsyncServingDaemon.handle_frames",
           frames_wrapper)
    _patch("repro.serving.batcher:MicroBatcher.submit", submit_wrapper)


def install() -> None:
    """Wrap every layer entry point; call once per process."""
    for name, (targets, payload) in LAYERS.items():
        for target in targets:
            _patch(target, lambda f, n=name, p=payload: _span_wrapper(f, n, p))
    _patch("repro.literal.voting:char_edit_distance", _counted_edit_distance)
    _wrap_frontend()


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print("usage: launcher.py --spans-out FILE -- <repro cli args>",
              file=sys.stderr)
        return 2
    spans_out, cli_args = argv[1], argv[3:]
    import repro.cli
    import repro.serving  # noqa: F401 - timed as part of import cost

    import_s = time.perf_counter() - _T_START
    install()
    try:
        return repro.cli.main(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(LOG.to_json(import_s), handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
