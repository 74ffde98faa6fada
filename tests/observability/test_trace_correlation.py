"""Wire-level trace correlation on the Tracer: thread-bound trace ids
and the drain used by streaming sinks."""

from __future__ import annotations

import threading

from repro.observability.trace import NULL_TRACER, Tracer


class TestTraceIdBinding:
    def test_bound_id_stamps_every_span(self):
        tracer = Tracer()
        tracer.set_trace_id("t-1")
        with tracer.span("serve"):
            with tracer.span("stage.mask"):
                pass
        assert [s.attributes["trace_id"] for s in tracer.spans] == [
            "t-1", "t-1",
        ]

    def test_clearing_stops_stamping(self):
        tracer = Tracer()
        tracer.set_trace_id("t-1")
        with tracer.span("a"):
            pass
        tracer.set_trace_id(None)
        with tracer.span("b"):
            pass
        assert "trace_id" not in tracer.spans[1].attributes

    def test_explicit_attribute_wins_over_binding(self):
        tracer = Tracer()
        tracer.set_trace_id("bound")
        with tracer.span("a", trace_id="explicit"):
            pass
        assert tracer.spans[0].attributes["trace_id"] == "explicit"

    def test_binding_is_thread_local(self):
        tracer = Tracer()
        tracer.set_trace_id("main")
        seen = {}

        def work():
            seen["other"] = tracer.trace_id()
            tracer.set_trace_id("worker")
            with tracer.span("w"):
                pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert seen["other"] is None  # never saw the main thread's id
        assert tracer.trace_id() == "main"
        worker_span = next(s for s in tracer.spans if s.name == "w")
        assert worker_span.attributes["trace_id"] == "worker"

    def test_disabled_tracer_ignores_binding(self):
        NULL_TRACER.set_trace_id("t-1")
        assert NULL_TRACER.trace_id() is None


class TestDrain:
    def test_drain_takes_and_clears(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        drained = tracer.drain()
        assert [s.name for s in drained] == ["a"]
        assert tracer.spans == []
        assert tracer.drain() == []

    def test_spans_finished_after_a_drain_accumulate_again(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.drain()
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.spans] == ["b"]
