"""The canonical catalog of span names, metric names, and labels.

Every span the pipeline opens and every metric it registers MUST be
listed here, and every entry here MUST appear in
``docs/observability.md`` — both directions are enforced by
``tests/observability/test_docs_coverage.py``.  Adding instrumentation
therefore means: add the constant, emit it, document it.

The values are one-line descriptions (used when generating docs or
summaries); the keys are the wire names.
"""

from __future__ import annotations

# -- span names --------------------------------------------------------------

#: Prefix for the per-stage spans opened by ``run_stages``; the full
#: span name is ``stage.<PipelineStage.name>``.
STAGE_SPAN_PREFIX = "stage."

SPAN_NAMES: dict[str, str] = {
    "serve": "One ServingRuntime request end to end (admission through "
             "outcome).",
    "batch": "One SpeakQLService.run_batch call (whole-batch envelope).",
    "query": "One batch item end to end (child of `batch`).",
    "stage.transcribe": "Simulated ASR dictation of one query.",
    "stage.mask": "SplChar handling + literal masking of one transcription.",
    "stage.structure_search": "Similarity search over the structure index.",
    "stage.literal_determination": "Placeholder filling via phonetic voting.",
    "stage.runner_up": "Literal determination of the runner-up structures "
                       "that pad a speech query's candidate list.",
    "literal.determine": "The full LiteralFinder walk for one structure.",
    "literal.walk": "One pass of the walk (phase 1: category candidate "
                    "sets; phase 2: table-narrowed candidates).",
    "asr.channel.corrupt": "Acoustic-channel corruption of the spoken words.",
    "execution.run": "One (gold, predicted) pair scored against a real "
                     "execution backend: run both queries, compare the "
                     "normalized result sets.",
    "session.turn": "One correction-session turn served by the runtime's "
                    "incremental decoder (cold turn 0 or a clause edit).",
    "session.span": "One clause span searched by the session decoder "
                    "(reused spans open no span — reuse is free).",
}

#: Structured span attributes the pipeline sets (attribute -> meaning).
SPAN_ATTRIBUTES: dict[str, str] = {
    "queries": "`batch`: number of requests in the batch.",
    "workers": "`batch`: worker-thread count.",
    "mode": "`query`/`serve`: `speech` (dictation) or `transcription` "
            "(correction).",
    "outcome": "`serve`: the response outcome (`served`, `degraded`, "
               "`shed`, `timeout`, `failed`).",
    "rung": "`serve`: the degradation-ladder rung that answered "
            "(0 = requested config).",
    "attempts": "`serve`: ladder rungs actually attempted.",
    "placeholders": "`literal.determine`: placeholder count of the structure.",
    "narrowed": "`literal.determine`: whether pass 2 (table narrowing) ran.",
    "phase": "`literal.walk`: 1 for the category pass, 2 for the "
             "narrowed pass.",
    "words_in": "`asr.channel.corrupt`: spoken words entering the channel.",
    "words_out": "`asr.channel.corrupt`: heard words leaving the channel.",
    "session_id": "`session.turn`: the correction session the turn "
                  "belongs to (echoed on the wire reply).",
    "turn": "`session.turn`: the 0-based turn number within its session.",
    "clause": "`session.span`: the clause the span decodes (`SELECT`, "
              "`FROM`, `WHERE`, `GROUP BY`, `ORDER BY`, `LIMIT`).",
    "spans": "`session.turn`: clause spans in the turn's segmentation.",
    "reused": "`session.turn`: how many spans were spliced from the "
              "session cache instead of searched.",
    "engine": "`execution.run`: the backend that ran the pair "
              "(`sqlite`, `duckdb`); also a label on the "
              "`speakql_execution_*` metrics.",
    "verdict": "`execution.run`: the execution-scoring verdict "
               "(`match`, `mismatch`, `invalid_sql`, `timeout`, "
               "`gold_error`); also a label on "
               "`speakql_execution_verdicts_total`.",
    "trace_id": "Any span: the wire-level trace id of the request that "
                "opened it (present when the serving runtime sampled "
                "the request for tracing); the same id is echoed on the "
                "daemon's JSON-lines reply.",
    "kind": "`session.span`: the clause-grammar kind serving the span "
            "(`select`, `from`, `where`, `tail`).",
    "error": "Any span: `true` when an exception escaped it.",
    "exception_type": "Any failed span: class name of the escaping "
                      "exception.",
    "exception": "Any failed span: repr of the escaping exception.",
}

# -- metric names ------------------------------------------------------------

QUERIES_TOTAL = "speakql_queries_total"
STAGE_SECONDS = "speakql_stage_seconds"

BATCH_QUERIES_TOTAL = "speakql_batch_queries_total"
BATCH_SECONDS = "speakql_batch_seconds"
BATCH_WORKERS = "speakql_batch_workers"
BATCH_QUEUE_WAIT_SECONDS = "speakql_batch_queue_wait_seconds"
BATCH_EXECUTE_SECONDS = "speakql_batch_execute_seconds"

SEARCH_TOTAL = "speakql_search_total"
SEARCH_SECONDS = "speakql_search_seconds"
SEARCH_NODES_VISITED = "speakql_search_nodes_visited_total"
SEARCH_DP_CELLS = "speakql_search_dp_cells_total"
SEARCH_TRIES_SEARCHED = "speakql_search_tries_searched_total"
SEARCH_TRIES_SKIPPED = "speakql_search_tries_skipped_total"
SEARCH_CANDIDATES_SCORED = "speakql_search_candidates_scored_total"
SEARCH_LEVELS_VISITED = "speakql_search_levels_visited_total"
SEARCH_ROWS_PRUNED = "speakql_search_rows_pruned_total"
SEARCH_BEAM_BOUND_UPDATES = "speakql_search_beam_bound_updates_total"
SEARCH_NEAR_SEEDS = "speakql_search_near_seeds_total"
SEARCH_RESULT_CACHE_HITS = "speakql_search_result_cache_hits_total"

SERVING_REQUESTS_TOTAL = "speakql_serving_requests_total"
SERVING_OUTCOMES_TOTAL = "speakql_serving_outcomes_total"
SERVING_RUNG_TOTAL = "speakql_serving_ladder_rung_total"
SERVING_QUEUE_DEPTH = "speakql_serving_queue_depth"
SERVING_BREAKER_STATE = "speakql_serving_breaker_state"
SERVING_BREAKER_TRIPS_TOTAL = "speakql_serving_breaker_trips_total"
SERVING_SECONDS = "speakql_serving_seconds"
SERVING_E2E_WINDOW_SECONDS = "speakql_serving_e2e_window_seconds"

ATTRIBUTION_QUERIES_TOTAL = "speakql_attribution_queries_total"
ATTRIBUTION_MISSES_TOTAL = "speakql_attribution_misses_total"

EXECUTION_QUERIES_TOTAL = "speakql_execution_queries_total"
EXECUTION_VERDICTS_TOTAL = "speakql_execution_verdicts_total"
EXECUTION_SECONDS = "speakql_execution_seconds"

SESSION_TURNS_TOTAL = "speakql_session_turns_total"
SESSION_SPANS_DECODED_TOTAL = "speakql_session_spans_decoded_total"
SESSION_SPANS_REUSED_TOTAL = "speakql_session_spans_reused_total"
SESSION_LIVE = "speakql_session_live"
SESSION_EVICTIONS_TOTAL = "speakql_session_evictions_total"
SESSION_TURN_SECONDS = "speakql_session_turn_seconds"

INDEX_STRUCTURES = "speakql_index_structures"
INDEX_TRIES = "speakql_index_tries"
INDEX_TRIE_NODES = "speakql_index_trie_nodes"
INDEX_TOKENS = "speakql_index_tokens"

METRIC_NAMES: dict[str, str] = {
    QUERIES_TOTAL: "counter — queries processed, by `mode`.",
    STAGE_SECONDS: "histogram — wall seconds per pipeline stage, by "
                   "`stage` (every ASR alternative counts).",
    BATCH_QUERIES_TOTAL: "counter — batch items processed.",
    BATCH_SECONDS: "histogram — whole-batch wall seconds.",
    BATCH_WORKERS: "gauge — worker threads of the last batch (merge: max).",
    BATCH_QUEUE_WAIT_SECONDS: "histogram — seconds a request waited "
                              "between batch submit and execution start.",
    BATCH_EXECUTE_SECONDS: "histogram — seconds a request spent executing.",
    SEARCH_TOTAL: "counter — structure searches served.",
    SEARCH_SECONDS: "histogram — per-search wall seconds (benchmark use, "
                    "by `config`).",
    SEARCH_NODES_VISITED: "counter — trie nodes whose DP column was "
                          "computed (uncached searches).",
    SEARCH_DP_CELLS: "counter — DP cells computed.",
    SEARCH_TRIES_SEARCHED: "counter — per-length tries actually searched.",
    SEARCH_TRIES_SKIPPED: "counter — tries skipped by the BDB bound.",
    SEARCH_CANDIDATES_SCORED: "counter — terminal structures offered to "
                              "the top-k.",
    SEARCH_LEVELS_VISITED: "counter — depths of the search kernel's "
                           "one pass over every trie.",
    SEARCH_ROWS_PRUNED: "counter — node rows compacted away by the "
                        "search kernel's band/threshold prune.",
    SEARCH_BEAM_BOUND_UPDATES: "counter — beam-probe prune bounds seeded "
                               "by the search kernel.",
    SEARCH_NEAR_SEEDS: "counter — searches whose prune bound was seeded "
                       "from near structures (an n-best alternative "
                       "starting from the rank-0 top-k) instead of a beam "
                       "probe.",
    SEARCH_RESULT_CACHE_HITS: "counter — searches served from the LRU "
                              "result cache.",
    SERVING_REQUESTS_TOTAL: "counter — requests submitted to the serving "
                            "runtime (admitted or shed).",
    SERVING_OUTCOMES_TOTAL: "counter — responses by `outcome`; sums "
                            "exactly to the requests submitted.",
    SERVING_RUNG_TOTAL: "counter — answered requests by degradation-"
                        "ladder `rung` (0 = requested config).",
    SERVING_QUEUE_DEPTH: "gauge — requests in flight right now (merge: "
                         "max).",
    SERVING_BREAKER_STATE: "gauge — circuit-breaker state per ladder "
                           "`stage` (0 closed, 1 half-open, 2 open).",
    SERVING_BREAKER_TRIPS_TOTAL: "counter — breaker trips per ladder "
                                 "`stage`.",
    SERVING_SECONDS: "histogram — per-request serving wall seconds "
                     "(admission to outcome).",
    SERVING_E2E_WINDOW_SECONDS: "rolling histogram — the same per-request "
                                "end-to-end seconds as "
                                "`speakql_serving_seconds`, but over a "
                                "trailing window (default 60 s in 6 "
                                "sub-windows) so /metrics and /statusz "
                                "report *current* p50/p95/p99 rather "
                                "than since-start aggregates; exported "
                                "as a plain histogram of the live "
                                "window.",
    ATTRIBUTION_QUERIES_TOTAL: "counter — queries attributed against "
                               "ground truth by the forensics engine.",
    ATTRIBUTION_MISSES_TOTAL: "counter — attributed misses, by `cause`.",
    EXECUTION_QUERIES_TOTAL: "counter — (gold, predicted) pairs scored "
                             "against an execution backend, by `engine`.",
    EXECUTION_VERDICTS_TOTAL: "counter — execution-scoring verdicts, by "
                              "`verdict`; sums exactly to the pairs "
                              "scored.",
    EXECUTION_SECONDS: "histogram — wall seconds to score one pair "
                       "(gold + predicted execution and the result "
                       "compare), by `engine`.",
    SESSION_TURNS_TOTAL: "counter — correction-session turns served, by "
                         "turn `kind` (`cold`, `redictate`, "
                         "`token_patch`).",
    SESSION_SPANS_DECODED_TOTAL: "counter — clause spans actually "
                                 "searched by the session decoder "
                                 "(cache misses).",
    SESSION_SPANS_REUSED_TOTAL: "counter — clause spans spliced from the "
                                "session cache (no search ran).",
    SESSION_LIVE: "gauge — correction sessions currently held by the "
                  "store (merge: max).",
    SESSION_EVICTIONS_TOTAL: "counter — sessions dropped by the store, by "
                             "`reason` (`lru` = over the limit, `ttl` = "
                             "idle past the TTL).",
    SESSION_TURN_SECONDS: "histogram — wall seconds to decode one "
                          "session turn (cold and warm alike).",
    INDEX_STRUCTURES: "gauge — structures in the compiled index.",
    INDEX_TRIES: "gauge — per-length tries in the compiled index.",
    INDEX_TRIE_NODES: "gauge — total compiled trie nodes.",
    INDEX_TOKENS: "gauge — interned tokens in the compiled index.",
}

#: Label keys in use (label -> meaning).
METRIC_LABELS: dict[str, str] = {
    "mode": f"`{QUERIES_TOTAL}`: `speech` or `transcription`.",
    "stage": f"`{STAGE_SECONDS}`: the `PipelineStage.name` "
             "(`transcribe`, `mask`, `structure_search`, "
             "`literal_determination`, `runner_up`); "
             f"`{SERVING_BREAKER_STATE}` and "
             f"`{SERVING_BREAKER_TRIPS_TOTAL}`: the ladder-rung name "
             "the breaker guards.",
    "outcome": f"`{SERVING_OUTCOMES_TOTAL}`: the response outcome "
               "(`served`, `degraded`, `shed`, `timeout`, `failed`).",
    "reason": f"`{SESSION_EVICTIONS_TOTAL}`: why the store dropped the "
              "session (`lru` = over the limit, `ttl` = idle past the "
              "TTL).",
    "kind": f"`{SESSION_TURNS_TOTAL}`: the turn kind (`cold` = turn 0, "
            "`redictate`, `token_patch`).",
    "rung": f"`{SERVING_RUNG_TOTAL}`: degradation-ladder rung index "
            "(0 = requested config).",
    "config": f"`{SEARCH_SECONDS}` and benchmark counters: the ablation "
              "configuration being measured.",
    "cause": f"`{ATTRIBUTION_MISSES_TOTAL}`: the miss-taxonomy class "
             "(`asr_unrecoverable`, `structure_not_in_topk`, "
             "`structure_ranked_low`, `literal_category`, "
             "`literal_voting`, `invalid_sql`).",
    "engine": f"`{EXECUTION_QUERIES_TOTAL}` and `{EXECUTION_SECONDS}`: "
              "the execution backend that ran the pair (`sqlite`, "
              "`duckdb`).",
    "verdict": f"`{EXECUTION_VERDICTS_TOTAL}`: the execution-scoring "
               "verdict (`match`, `mismatch`, `invalid_sql`, "
               "`timeout`, `gold_error`).",
}
