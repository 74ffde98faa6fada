"""Figure 15: structure determination ablation study.

Configurations, as in Appendix F.5: SpeakQL Default (BDB on), Default
without BDB, Default + DAP, Default + INV, Default + DAP + INV — each
measured for accuracy (TED CDF vs the ground-truth structure) and
runtime.  A sixth row ablates the SQL-specific weighting (WK/WS/WL vs
uniform weights), a design choice DESIGN.md calls out.

Every configuration runs ``ROUNDS`` times, interleaved (the order
rotates each round, so drift hits every row alike); the table reports
the median time over all test dictations and the IQR of the rounds.
INV builds its keyword masks on the first INV search, inside round 1.

All instrumentation flows through one
:class:`~repro.observability.metrics.MetricsRegistry`: per-search wall
time lands in the ``speakql_search_seconds{config=...}`` histogram via
``registry.time`` and the work counters accumulate per configuration —
no hand-rolled timers.

Paper's shape: BDB is accuracy-preserving and ~2x faster; DAP is the
fastest but costs real accuracy (exact structures drop sharply); INV is
faster with only a minor accuracy drop.
"""

import statistics

from benchmarks.conftest import record_report
from repro.metrics.cdf import Cdf
from repro.metrics.report import format_table
from repro.observability import names as obs_names
from repro.observability.metrics import MetricsRegistry
from repro.structure.edit_distance import UNIT_WEIGHTS, weighted_edit_distance
from repro.structure.masking import preprocess_transcription
from repro.structure.search import StructureSearchEngine


#: Interleaved timed rounds per configuration.
ROUNDS = 5


def _evaluate(searcher, masked_inputs, truths, registry, config):
    """One round: the TED CDF, wall seconds and work of ``searcher``."""
    teds = []
    nodes = registry.counter(obs_names.SEARCH_NODES_VISITED, config=config)
    scored = registry.counter(obs_names.SEARCH_CANDIDATES_SCORED, config=config)
    seconds = registry.histogram(obs_names.SEARCH_SECONDS, config=config)
    before = (seconds.sum, nodes.value + scored.value)
    for masked, truth in zip(masked_inputs, truths):
        with registry.time(obs_names.SEARCH_SECONDS, config=config):
            results, stats = searcher.search(masked, k=1)
        nodes.inc(stats.nodes_visited)
        scored.inc(stats.candidates_scored)
        if results:
            teds.append(
                weighted_edit_distance(results[0].structure, truth, UNIT_WEIGHTS)
            )
        else:
            teds.append(float(len(truth)))
    # Scored candidates are counted on every path — a zero here would
    # mean broken instrumentation, not a fast configuration.
    assert scored.value > 0, "candidates_scored not incremented"
    return (
        Cdf.of(teds),
        seconds.sum - before[0],
        int(nodes.value + scored.value - before[1]),
    )


def test_fig15_ablation(state, benchmark):
    benchmark.extra_info["experiment"] = "fig15"
    index = state.pipeline.structure_index
    masked_inputs = [
        preprocess_transcription(run.output.asr_text).masked
        for run in state.test_runs
    ]
    truths = [run.query.record.structure for run in state.test_runs]
    registry = MetricsRegistry()

    configs = {
        "SpeakQL Default": dict(use_bdb=True),
        "Default - BDB": dict(use_bdb=False),
        "Default + DAP": dict(use_bdb=True, use_dap=True),
        "Default + INV": dict(use_bdb=True, use_inv=True),
        "Default + DAP + INV": dict(use_bdb=True, use_dap=True, use_inv=True),
        "Unweighted (WK=WS=WL)": dict(use_bdb=True, weights=UNIT_WEIGHTS),
    }

    def run_all():
        searchers = {
            name: StructureSearchEngine(
                index=index, cache_results=False, **kwargs
            )
            for name, kwargs in configs.items()
        }
        names = list(configs)
        runs = {name: [] for name in names}
        for round_ in range(ROUNDS):
            shift = round_ % len(names)
            for name in names[shift:] + names[:shift]:
                runs[name].append(
                    _evaluate(
                        searchers[name], masked_inputs, truths, registry, name
                    )
                )
        rows = {}
        for name, results in runs.items():
            # Every round returns the same structures and does the same
            # work; only the time varies.
            assert len({(cdf.mean, work) for cdf, _, work in results}) == 1
            cdf, _, work = results[0]
            times = [elapsed for _, elapsed, _ in results]
            q1, median, q3 = statistics.quantiles(
                times, n=4, method="inclusive"
            )
            rows[name] = (cdf, median, q3 - q1, work)
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    default_cdf, default_time, _, _ = rows["SpeakQL Default"]
    table_rows = []
    for name, (cdf, median, iqr, nodes) in rows.items():
        table_rows.append(
            [
                name,
                f"{cdf.at(0) * 100:.0f}%",
                cdf.mean,
                f"{median:.2f}s",
                f"{iqr:.2f}s",
                f"{default_time / max(median, 1e-9):.1f}x",
                nodes,
            ]
        )
    record_report(
        f"Figure 15: structure determination ablation (median of {ROUNDS} "
        "interleaved rounds)",
        format_table(
            ["config", "TED=0", "mean TED", "median time", "IQR",
             "speedup vs default", "nodes/candidates"],
            table_rows,
        ),
    )

    # The paper's abandoned alternative: error-correcting (probabilistic)
    # parsing.  Run on a subset — being much slower is the point.
    from repro.structure.earley import EarleyCorrector

    subset = min(30, len(masked_inputs))
    corrector = EarleyCorrector()
    parse_teds = []
    for masked, truth in zip(masked_inputs[:subset], truths[:subset]):
        with registry.time(obs_names.SEARCH_SECONDS, config="earley-parse"):
            parsed = corrector.correct(masked)
        if parsed is None:
            parse_teds.append(float(len(truth)))
        else:
            parse_teds.append(
                weighted_edit_distance(parsed[0], truth, UNIT_WEIGHTS)
            )
    parse_time = registry.histogram(
        obs_names.SEARCH_SECONDS, config="earley-parse"
    ).sum
    parse_cdf = Cdf.of(parse_teds)

    default_subset = StructureSearchEngine(index=index, cache_results=False)
    default_teds = []
    for masked, truth in zip(masked_inputs[:subset], truths[:subset]):
        with registry.time(obs_names.SEARCH_SECONDS, config="trie-subset"):
            results, _ = default_subset.search(masked, k=1)
        default_teds.append(
            weighted_edit_distance(results[0].structure, truth, UNIT_WEIGHTS)
            if results
            else float(len(truth))
        )
    default_subset_time = registry.histogram(
        obs_names.SEARCH_SECONDS, config="trie-subset"
    ).sum
    default_subset_cdf = Cdf.of(default_teds)

    record_report(
        "Figure 15 (extra): error-correcting parsing vs index search "
        f"({subset} queries)",
        format_table(
            ["approach", "TED=0", "mean TED", "time"],
            [
                [
                    "trie index search",
                    f"{default_subset_cdf.at(0) * 100:.0f}%",
                    default_subset_cdf.mean,
                    f"{default_subset_time:.2f}s",
                ],
                [
                    "error-correcting Earley",
                    f"{parse_cdf.at(0) * 100:.0f}%",
                    parse_cdf.mean,
                    f"{parse_time:.2f}s",
                ],
            ],
        )
        + "\n(the paper abandoned parsing because it was slower — "
        f"measured {parse_time / max(default_subset_time, 1e-9):.0f}x slower)",
    )
    # Parsing searches the unbounded language, so accuracy is comparable
    # or better; the trie index is the faster engineering choice.
    assert parse_time > default_subset_time

    no_bdb_cdf, _, _, no_bdb_nodes = rows["Default - BDB"]
    dap_cdf, _, _, dap_nodes = rows["Default + DAP"]
    inv_cdf, _, _, inv_nodes = rows["Default + INV"]
    _, _, _, default_nodes = rows["SpeakQL Default"]

    # Paper-shape assertions on *work done* (node visits are
    # deterministic; wall-clock comparisons with small margins flake
    # under machine load).
    # BDB preserves accuracy exactly and reduces work.
    assert no_bdb_cdf.mean == default_cdf.mean
    assert default_nodes < no_bdb_nodes
    # DAP trades accuracy for speed.
    assert dap_nodes < default_nodes
    assert dap_cdf.at(0) <= default_cdf.at(0)
    # INV reduces work with at most a minor accuracy drop.
    assert inv_nodes < default_nodes
    assert inv_cdf.at(0) >= dap_cdf.at(0) - 0.05
