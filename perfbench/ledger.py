"""Per-layer ledger: self times and counts from a launcher span file.

See ``perfbench/launcher.py`` for how spans are recorded.  A span's
self time is its duration minus the union of its children; times are
reported per request of the measured window unless the name says
otherwise.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.stats import span_self_times

#: Layers whose self time is reported as ``<name>.self_ms``.
SELF_TIME_LAYERS = (
    "literal.determine",
    "literal.vote",
    "core.runner_up",
    "structure.search",
    "structure.search_span",
    "structure.mask",
    "asr.transcribe",
    "core.pipeline",
    "core.clauses.decode",
    "serving.sessions.decode",
    "serving.protocol",
    "serving.runtime",
)

#: Set-up layers, reported as ``<name>_s`` (inclusive seconds spent
#: before the first measured request).
SETUP_LAYERS = (
    "setup.structure_index",
    "setup.compile",
    "setup.engine_train",
    "setup.clause_index",
)


def layer_metrics(doc: dict, window: tuple[float, float],
                  requests: int) -> dict[str, tuple[float, str]]:
    """Ledger entries ``name -> (value, unit)`` for spans starting in
    ``window`` (``time.perf_counter`` stamps), ``requests`` being the
    number of requests the client sent in it."""
    raw = doc["spans"]
    spans = [{"start": s[1], "end": s[2], "parent": s[3]} for s in raw]
    self_s = span_self_times(spans)
    start, end = window
    per = max(1, requests)

    self_total: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    payloads: dict[str, list] = defaultdict(list)
    edit_distance = 0
    for (name, s_start, s_end, _, payload, ed_calls), own in zip(raw, self_s):
        if not start <= s_start < end:
            continue
        self_total[name] += own
        inclusive[name] += s_end - s_start
        calls[name] += 1
        edit_distance += ed_calls
        if payload is not None:
            payloads[name].append(payload)

    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME_LAYERS:
        out[f"{name}.self_ms"] = (self_total[name] * 1000.0 / per, "ms")
    out["literal.determine.calls"] = (calls["literal.determine"] / per,
                                      "count")
    out["literal.edit_distance.calls"] = (edit_distance / per, "count")
    pipeline = inclusive["core.pipeline"]
    out["core.runner_up.share"] = (
        inclusive["core.runner_up"] / pipeline if pipeline else 0.0, "ratio"
    )

    searches = payloads["structure.search"]
    hits = sum(1 for hit, _ in searches if hit)
    out["structure.search.calls"] = (len(searches) / per, "count")
    out["structure.search.nodes_visited"] = (
        sum(nodes for hit, nodes in searches if not hit) / per, "count"
    )
    out["structure.search.cache_hit_ratio"] = (
        hits / len(searches) if searches else 0.0, "ratio"
    )

    alternatives = payloads["asr.transcribe"]
    out["asr.alternatives"] = (
        sum(alternatives) / len(alternatives) if alternatives else 0.0,
        "count",
    )

    edits = [p for p in payloads["serving.sessions.decode"] if p[0] >= 1]
    spans_total = sum(p[2] for p in edits)
    out["serving.sessions.reused_span_ratio"] = (
        sum(p[1] for p in edits) / spans_total if spans_total else 0.0,
        "ratio",
    )

    batches = payloads["serving.runtime"]
    waits = [w for _, batch_waits in batches for w in batch_waits]
    out["serving.batcher.wait_ms"] = (
        sum(waits) * 1000.0 / len(waits) if waits else 0.0, "ms"
    )
    out["serving.batcher.batch_size"] = (
        sum(size for size, _ in batches) / len(batches) if batches else 0.0,
        "count",
    )
    return out


def setup_metrics(doc: dict, setup_end: float) -> dict[str, tuple[float, str]]:
    """Where the traced cold start spent its time: import, each lazy or
    eager build before ``setup_end``, and the first served request."""
    inclusive: dict[str, float] = defaultdict(float)
    for name, s_start, s_end, *_ in doc["spans"]:
        if s_end <= setup_end:
            inclusive[name] += s_end - s_start
    out = {"setup.import_s": (doc["import_s"], "s")}
    for name in SETUP_LAYERS:
        out[f"{name}_s"] = (inclusive[name], "s")
    frontend = sorted(doc["frontend"])
    out["setup.first_query_s"] = (
        frontend[0][1] - frontend[0][0] if frontend else 0.0, "s"
    )
    return out


def coverage_ratio(doc: dict, latencies: dict[str, float]) -> float:
    """Share of client-seen request time the daemon's spans cover.

    ``latencies`` maps trace id -> client latency (seconds) for the
    measured requests.  Every layer span of a request nests inside its
    front-end span (``AsyncServingDaemon.handle_frames``), so the union
    per request is that span.
    """
    covered = seen = 0.0
    frontend = {trace_id: end - start
                for start, end, trace_id in doc["frontend"]}
    for trace_id, latency in latencies.items():
        seen += latency
        covered += min(latency, frontend.get(trace_id, 0.0))
    return covered / seen if seen else 0.0
