"""Tests for the resilient serving runtime.

The acceptance bar mirrors docs/serving.md: an unpressured runtime is
bit-identical to ``run_batch``; outcomes are deterministic for fixed
seeds; outcome counts sum to the requests submitted; and the
deadline / shedding / ladder / breaker behaviors are all reproducible
without wall-clock sleeps.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import QueryRequest
from repro.core import SpeakQLArtifacts, SpeakQLService
from repro.core.stages import QueryContext, run_stages
from repro.errors import DeadlineExceededError
from repro.observability import names as obs_names
from repro.observability.metrics import MetricsRegistry
from repro.serving import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEFAULT_LADDER,
    CircuitBreaker,
    Rung,
    ServingRuntime,
)

TRAINING = [
    "SELECT FirstName FROM Employees",
    "SELECT salary FROM Salaries",
    "SELECT AVG ( salary ) FROM Salaries",
]

SPEECH = [
    QueryRequest(text="SELECT FirstName FROM Employees", seed=7),
    QueryRequest(text="SELECT salary FROM Salaries", seed=11),
    QueryRequest(text="SELECT AVG ( salary ) FROM Salaries", seed=13),
]


@pytest.fixture(scope="module")
def artifacts(request):
    small_index = request.getfixturevalue("small_index")
    return SpeakQLArtifacts.build(
        structure_index=small_index, training_sql=TRAINING
    )


@pytest.fixture(scope="module")
def service(request, artifacts):
    small_catalog = request.getfixturevalue("small_catalog")
    return SpeakQLService(small_catalog, artifacts=artifacts)


def make_service(request, artifacts):
    """A fresh service (private pipeline instance) safe to monkeypatch."""
    small_catalog = request.getfixturevalue("small_catalog")
    return SpeakQLService(small_catalog, artifacts=artifacts)


# -- bit-identity ------------------------------------------------------------


class TestBitIdentity:
    def test_unpressured_runtime_matches_run_batch(self, service):
        runtime = ServingRuntime(service)
        responses = runtime.serve_batch(SPEECH, workers=2)
        batch = service.run_batch(SPEECH, workers=2)
        assert [r.outcome for r in responses] == ["served"] * len(SPEECH)
        assert [r.rung for r in responses] == [0] * len(SPEECH)
        for response, want in zip(responses, batch):
            assert response.output.asr_text == want.asr_text
            assert response.output.queries == want.queries
            assert response.output.structure == want.structure

    def test_rung_zero_uses_base_pipeline(self, service):
        runtime = ServingRuntime(service)
        request = QueryRequest(text=TRAINING[0], seed=7)
        assert runtime._pipeline_for(request, 0) is service.pipeline

    def test_request_overrides_build_derived_pipeline_once(self, service):
        runtime = ServingRuntime(service)
        request = QueryRequest(
            text=TRAINING[0], seed=7, overrides={"top_k": 1}
        )
        first = runtime._pipeline_for(request, 0)
        assert first is not service.pipeline
        assert first.config.top_k == 1
        assert first.artifacts is service.pipeline.artifacts
        assert runtime._pipeline_for(request, 0) is first

    def test_ladder_overrides_win_over_request_overrides(self, service):
        runtime = ServingRuntime(service)
        request = QueryRequest(
            text=TRAINING[0], seed=7, overrides={"top_k": 3}
        )
        # Rung 1 of the default ladder forces top_k=1.
        derived = runtime._pipeline_for(request, 1)
        assert derived.config.top_k == 1


# -- deadlines ---------------------------------------------------------------


class _Stage:
    """A minimal PipelineStage for boundary tests."""

    def __init__(self, name, fn=None):
        self.name = name
        self.fn = fn

    def run(self, value, ctx):
        if self.fn is not None:
            return self.fn(value, ctx)
        return value


class TestDeadlines:
    def test_expiry_stops_at_each_following_boundary(self):
        """A deadline that passes during stage N stops before stage N+1,
        whichever stage N is — the boundary names the stage that never
        ran."""
        names = ["transcribe", "mask", "structure", "literal"]
        for expire_during in range(len(names) - 1):
            ran = []

            def make(i, name):
                def fn(value, ctx):
                    ran.append(name)
                    if i == expire_during:
                        ctx.deadline = time.perf_counter() - 1.0
                    return value

                return fn

            stages = [_Stage(n, make(i, n)) for i, n in enumerate(names)]
            ctx = QueryContext(deadline=time.perf_counter() + 60.0)
            with pytest.raises(DeadlineExceededError) as excinfo:
                run_stages(stages, "value", ctx)
            assert excinfo.value.stage == names[expire_during + 1]
            assert ran == names[: expire_during + 1]

    def test_expired_deadline_stops_before_the_first_stage(self):
        ctx = QueryContext(deadline=time.perf_counter() - 1.0)
        stage = _Stage("transcribe")
        with pytest.raises(DeadlineExceededError) as excinfo:
            run_stages([stage], "value", ctx)
        assert excinfo.value.stage == "transcribe"

    def test_no_deadline_means_no_checks(self):
        ctx = QueryContext()
        assert run_stages([_Stage("mask")], "value", ctx) == "value"

    def test_pipeline_honors_expired_deadline(self, service):
        past = time.perf_counter() - 1.0
        with pytest.raises(DeadlineExceededError) as excinfo:
            service.pipeline.correct_transcription(
                "select salary from salaries", deadline=past
            )
        assert excinfo.value.stage

    def test_zero_budget_request_times_out(self, service):
        runtime = ServingRuntime(service)
        response = runtime.submit(
            QueryRequest(text=TRAINING[0], seed=7, deadline=0.0)
        )
        assert response.outcome == "timeout"
        assert response.attempts == 0
        assert not response.ok
        assert "deadline exceeded" in response.error

    def test_timeout_is_terminal_and_does_not_charge_breaker(self, service):
        runtime = ServingRuntime(service, breaker_threshold=1)
        for _ in range(3):
            response = runtime.submit(
                QueryRequest(text=TRAINING[0], seed=7, deadline=0.0)
            )
            assert response.outcome == "timeout"
        # Three timeouts in a row with threshold 1: still closed.
        assert runtime.breaker.state("requested") == BREAKER_CLOSED
        assert runtime.breaker.trips("requested") == 0


# -- admission control -------------------------------------------------------


class TestAdmission:
    def test_saturated_queue_sheds(self, request, artifacts):
        service = make_service(request, artifacts)
        runtime = ServingRuntime(service, queue_limit=1)
        pipeline = service.pipeline
        real = pipeline.correct_transcription
        started = threading.Event()
        release = threading.Event()

        def blocking(text, **kwargs):
            started.set()
            assert release.wait(timeout=10)
            return real(text, **kwargs)

        pipeline.correct_transcription = blocking
        try:
            slow = {}

            def occupy():
                slow["response"] = runtime.submit(
                    QueryRequest(text="select salary from salaries")
                )

            thread = threading.Thread(target=occupy)
            thread.start()
            assert started.wait(timeout=10)
            shed = runtime.submit(
                QueryRequest(text="select salary from salaries")
            )
            assert shed.outcome == "shed"
            assert shed.attempts == 0
            assert not shed.ok
            assert "queue full" in shed.error
        finally:
            release.set()
            thread.join(timeout=10)
            del pipeline.correct_transcription
        assert slow["response"].outcome == "served"
        assert runtime.health()["outcomes"]["shed"] == 1

    def test_queue_limit_validated(self, service):
        with pytest.raises(ValueError):
            ServingRuntime(service, queue_limit=0)

    def test_rung_zero_must_have_no_overrides(self, service):
        with pytest.raises(ValueError):
            ServingRuntime(
                service, ladder=(Rung("odd", {"top_k": 1}),)
            )
        with pytest.raises(ValueError):
            ServingRuntime(service, ladder=())


# -- the degradation ladder --------------------------------------------------


class TestLadderDeterminism:
    """Same seed + same pressure => same outcome, rung, and answer."""

    def test_pressure_starts_at_rung_one(self, service):
        runtime = ServingRuntime(service, degrade_below=10.0)
        request = QueryRequest(text=TRAINING[0], seed=7, deadline=5.0)
        response = runtime.submit(request)
        assert response.outcome == "degraded"
        assert response.rung == 1
        assert response.attempts == 1

    def test_degraded_answer_is_reproducible(self, service):
        request = QueryRequest(text=TRAINING[0], seed=7, deadline=5.0)
        runs = [
            ServingRuntime(service, degrade_below=10.0).submit(request)
            for _ in range(2)
        ]
        assert runs[0].outcome == runs[1].outcome == "degraded"
        assert runs[0].rung == runs[1].rung == 1
        assert runs[0].output.queries == runs[1].output.queries
        assert runs[0].sql == runs[1].sql

    def test_degraded_matches_explicit_rung_run(self, service):
        runtime = ServingRuntime(service, degrade_below=10.0)
        request = QueryRequest(text=TRAINING[0], seed=7, deadline=5.0)
        degraded = runtime.submit(request)
        explicit = runtime._pipeline_for(request, 1).query_from_speech(
            request.text, seed=request.seed
        )
        assert degraded.output.queries == explicit.queries

    def test_no_pressure_without_deadline(self, service):
        runtime = ServingRuntime(service, degrade_below=10.0)
        response = runtime.submit(QueryRequest(text=TRAINING[0], seed=7))
        assert response.outcome == "served"
        assert response.rung == 0

    def test_failed_rung_climbs_to_next(self, request, artifacts):
        service = make_service(request, artifacts)
        runtime = ServingRuntime(service)
        service.pipeline.query_from_speech = _raise_runtime_error
        try:
            response = runtime.submit(QueryRequest(text=TRAINING[0], seed=7))
        finally:
            del service.pipeline.query_from_speech
        assert response.outcome == "degraded"
        assert response.rung == 1
        assert response.attempts == 2
        assert response.ok

    def test_every_rung_failing_reports_failed(self, request, artifacts):
        service = make_service(request, artifacts)
        runtime = ServingRuntime(service, ladder=(Rung("requested"),))
        service.pipeline.query_from_speech = _raise_runtime_error
        try:
            response = runtime.submit(QueryRequest(text=TRAINING[0], seed=7))
        finally:
            del service.pipeline.query_from_speech
        assert response.outcome == "failed"
        assert response.attempts == 1
        assert "all 1 rung(s) failed" in response.error
        assert "rung poisoned" in response.error

    def test_default_ladder_shape(self):
        assert [rung.name for rung in DEFAULT_LADDER] == [
            "requested", "reduced_top_k", "bdb_only",
        ]
        assert DEFAULT_LADDER[0].overrides == ()
        assert DEFAULT_LADDER[1].overrides_dict() == {"top_k": 1}
        assert DEFAULT_LADDER[2].overrides_dict()["use_dap"] is False


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("rung poisoned")


# -- the circuit breaker -----------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_requests=2)
        assert breaker.record_failure("k") is False
        assert breaker.record_failure("k") is False
        assert breaker.state("k") == BREAKER_CLOSED
        assert breaker.record_failure("k") is True
        assert breaker.state("k") == BREAKER_OPEN
        assert breaker.trips("k") == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure("k")
        breaker.record_success("k")
        assert breaker.record_failure("k") is False
        assert breaker.state("k") == BREAKER_CLOSED

    def test_cooldown_counts_consults_then_half_opens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_requests=2)
        breaker.record_failure("k")
        assert breaker.state("k") == BREAKER_OPEN
        assert breaker.allow("k") is False  # consult 1 of the cooldown
        assert breaker.allow("k") is True  # consult 2: the trial
        assert breaker.state("k") == BREAKER_HALF_OPEN

    def test_half_open_admits_exactly_one_trial(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_requests=1)
        breaker.record_failure("k")
        assert breaker.allow("k") is True
        assert breaker.allow("k") is False  # concurrent trial refused

    def test_trial_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_requests=1)
        breaker.record_failure("k")
        assert breaker.allow("k") is True
        breaker.record_success("k")
        assert breaker.state("k") == BREAKER_CLOSED
        assert breaker.allow("k") is True

    def test_trial_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_requests=1)
        breaker.record_failure("k")
        assert breaker.allow("k") is True
        assert breaker.record_failure("k") is True
        assert breaker.state("k") == BREAKER_OPEN
        assert breaker.trips("k") == 2

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("a")
        assert breaker.state("a") == BREAKER_OPEN
        assert breaker.state("b") == BREAKER_CLOSED
        assert breaker.states() == {"a": BREAKER_OPEN}

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_requests=0)


class TestRuntimeBreakerIntegration:
    def test_trip_skip_half_open_recover(self, request, artifacts):
        """The full breaker lifecycle through the runtime: rung 0 fails
        twice (trips), is skipped during the cooldown, then heals
        through a half-open trial."""
        service = make_service(request, artifacts)
        runtime = ServingRuntime(
            service, breaker_threshold=2, breaker_cooldown=2
        )
        speech = QueryRequest(text=TRAINING[0], seed=7)
        service.pipeline.query_from_speech = _raise_runtime_error
        try:
            # Two failures trip the "requested" breaker; both requests
            # still answer via rung 1.
            for _ in range(2):
                response = runtime.submit(speech)
                assert response.outcome == "degraded"
                assert response.attempts == 2
            assert runtime.breaker.state("requested") == BREAKER_OPEN
            assert runtime.breaker.trips("requested") == 1
            # Cooldown consult 1: rung 0 skipped outright (one attempt).
            response = runtime.submit(speech)
            assert response.outcome == "degraded"
            assert response.attempts == 1
        finally:
            del service.pipeline.query_from_speech
        # Cooldown consult 2 becomes the half-open trial; the pipeline
        # is healed, so the trial succeeds and full fidelity returns.
        response = runtime.submit(speech)
        assert response.outcome == "served"
        assert response.rung == 0
        assert runtime.breaker.state("requested") == BREAKER_CLOSED
        # And it stays closed.
        assert runtime.submit(speech).outcome == "served"


# -- metrics & health --------------------------------------------------------


def _counter_values(registry, name):
    return {
        tuple(sorted(labels.items())): metric.value
        for metric_name, labels, metric in registry.collect()
        if metric_name == name
    }


class TestServingMetrics:
    def test_outcomes_total_sums_to_requests_total(self, request, artifacts):
        service = make_service(request, artifacts)
        registry = MetricsRegistry()
        runtime = ServingRuntime(
            service, ladder=(Rung("requested"),), metrics=registry
        )
        runtime.submit(QueryRequest(text=TRAINING[0], seed=7))  # served
        runtime.submit(
            QueryRequest(text=TRAINING[0], seed=7, deadline=0.0)
        )  # timeout
        service.pipeline.query_from_speech = _raise_runtime_error
        try:
            runtime.submit(QueryRequest(text=TRAINING[0], seed=7))  # failed
        finally:
            del service.pipeline.query_from_speech
        outcomes = _counter_values(
            registry, obs_names.SERVING_OUTCOMES_TOTAL
        )
        requests_total = _counter_values(
            registry, obs_names.SERVING_REQUESTS_TOTAL
        )
        assert sum(outcomes.values()) == sum(requests_total.values()) == 3
        assert outcomes[(("outcome", "served"),)] == 1
        assert outcomes[(("outcome", "timeout"),)] == 1
        assert outcomes[(("outcome", "failed"),)] == 1

    def test_health_snapshot_shape(self, service):
        runtime = ServingRuntime(service)
        runtime.submit(QueryRequest(text="select salary from salaries"))
        health = runtime.health()
        assert health["status"] == "ok"
        assert health["ready"] is True
        assert health["inflight"] == 0
        assert health["queue_limit"] == runtime.queue_limit
        assert health["outcomes"]["served"] == 1
        assert sum(health["outcomes"].values()) == 1
        assert health["ladder"] == [r.name for r in DEFAULT_LADDER]
