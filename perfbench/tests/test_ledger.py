import pytest

from perfbench import launcher, ledger


def _doc(spans, frontend=(), import_s=0.25):
    return {"import_s": import_s, "spans": spans, "frontend": list(frontend),
            "missing": []}


def test_layer_metrics_report_self_time_per_request():
    spans = [
        # name, start, end, parent, payload, edit-distance calls
        ["literal.vote", 1.2, 1.5, 1, None, 40],          # 0
        ["literal.determine", 1.1, 1.6, 3, None, 2],       # 1
        ["structure.search", 1.0, 1.1, 3, [False, 500], 0],  # 2
        ["core.pipeline", 1.0, 2.0, 4, None, 0],           # 3
        ["serving.runtime", 0.9, 2.1, None, [2, [0.002, 0.004]], 0],  # 4
        ["structure.search", 3.0, 3.1, None, [True, 500], 0],  # 5
        ["literal.vote", 9.0, 9.5, None, None, 1000],      # outside window
    ]
    out = ledger.layer_metrics(_doc(spans), (0.5, 5.0), requests=2)
    assert out["literal.vote.self_ms"][0] == pytest.approx(150.0)
    assert out["literal.determine.self_ms"][0] == pytest.approx(100.0)
    assert out["core.pipeline.self_ms"][0] == pytest.approx(200.0)
    assert out["serving.runtime.self_ms"][0] == pytest.approx(100.0)
    assert out["literal.determine.calls"] == (0.5, "count")
    assert out["literal.edit_distance.calls"] == (21.0, "count")
    assert out["structure.search.calls"] == (1.0, "count")
    assert out["structure.search.nodes_visited"] == (250.0, "count")
    assert out["structure.search.cache_hit_ratio"] == (0.5, "ratio")
    assert out["serving.batcher.batch_size"] == (2.0, "count")
    assert out["serving.batcher.wait_ms"][0] == pytest.approx(3.0)
    assert out["core.runner_up.share"] == (0.0, "ratio")


def test_reused_span_ratio_counts_edit_turns_only():
    spans = [
        ["serving.sessions.decode", 1.0, 1.1, None, [0, 0, 3], 0],
        ["serving.sessions.decode", 2.0, 2.1, None, [1, 2, 3], 0],
        ["serving.sessions.decode", 3.0, 3.1, None, [2, 1, 3], 0],
    ]
    out = ledger.layer_metrics(_doc(spans), (0.0, 4.0), requests=3)
    assert out["serving.sessions.reused_span_ratio"] == (0.5, "ratio")


def test_setup_metrics_sum_builds_before_ready():
    spans = [
        ["setup.structure_index", 0.1, 1.1, None, None, 0],
        ["setup.compile", 1.1, 1.3, None, None, 0],
        ["setup.clause_index", 2.0, 2.5, None, None, 0],
        ["setup.clause_index", 9.0, 9.1, None, None, 0],  # after ready
    ]
    frontend = [(3.0, 3.4, "r2"), (1.5, 1.9, "r1")]
    out = ledger.setup_metrics(_doc(spans, frontend), setup_end=5.0)
    assert out["setup.import_s"] == (0.25, "s")
    assert out["setup.structure_index_s"][0] == pytest.approx(1.0)
    assert out["setup.clause_index_s"][0] == pytest.approx(0.5)
    assert out["setup.engine_train_s"] == (0.0, "s")
    assert out["setup.first_query_s"][0] == pytest.approx(0.4)


def test_coverage_ratio_clips_to_client_time():
    frontend = [(0.0, 0.9, "a"), (1.0, 3.0, "b")]
    ratio = ledger.coverage_ratio(_doc([], frontend),
                                  {"a": 1.0, "b": 1.0, "c": 2.0})
    assert ratio == pytest.approx((0.9 + 1.0) / 4.0)


def test_span_wrapper_nests_and_records_payload():
    log = launcher.LOG
    before = len(log.spans)

    def inner(x):
        return x + 1

    wrapped_inner = launcher._span_wrapper(inner, "t.inner")
    outer = launcher._span_wrapper(
        lambda x: wrapped_inner(x) * 2, "t.outer",
        payload=lambda args, result, start: [args[0], result],
    )
    assert outer(3) == 8
    inner_rec, outer_rec = log.spans[before:]
    assert inner_rec[0] == "t.inner" and inner_rec[3] is outer_rec
    assert outer_rec[3] is None and outer_rec[4] == [3, 8]
    assert outer_rec[1] <= inner_rec[1] <= inner_rec[2] <= outer_rec[2]
    doc = log.to_json(0.0)
    assert doc["spans"][before][3] == before + 1
    del log.spans[before:]


def test_patch_keeps_classmethods_bound():
    class Owner:
        @classmethod
        def build(cls, n):
            return (cls, n)

    import sys
    import types

    module = types.ModuleType("perfbench_fake_module")
    module.Owner = Owner
    sys.modules[module.__name__] = module
    try:
        launcher._patch("perfbench_fake_module:Owner.build",
                        lambda f: launcher._span_wrapper(f, "t.build"))
        assert Owner.build(4) == (Owner, 4)
        assert launcher.LOG.spans[-1][0] == "t.build"
        launcher.LOG.spans.pop()
    finally:
        del sys.modules[module.__name__]


def test_every_layer_target_exists_in_the_program():
    targets = [t for ts, _ in launcher.LAYERS.values() for t in ts]
    targets += ["repro.literal.voting:char_edit_distance",
                "repro.serving.async_daemon:AsyncServingDaemon.handle_frames",
                "repro.serving.batcher:MicroBatcher.submit"]
    missing = [t for t in targets if launcher._resolve(t) is None]
    assert missing == []
