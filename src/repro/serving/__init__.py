"""Resilient serving: deadlines, admission control, degraded modes.

Layer 5 of the architecture: :class:`ServingRuntime` wraps the batch
:class:`~repro.core.service.SpeakQLService` with per-request service
levels (deadline budgets enforced at stage boundaries, load shedding
under saturation, a degradation ladder of cheaper configurations, and
per-rung circuit breakers); :class:`AsyncServingDaemon`
(``repro serve``) exposes it as an asyncio JSON-lines daemon over stdin
and TCP that hands each request straight to the runtime, with HTTP
health, readiness and telemetry endpoints.

The daemon speaks the versioned wire codec of
:mod:`repro.serving.protocol`, and correction sessions
(:mod:`repro.serving.sessions`) make the paper's clause-level
re-dictation loop incremental: a turn re-searches only the edited
clause span and splices cached decodes for the rest.
"""

from repro.serving.async_daemon import AsyncServingDaemon, run_async_daemon
from repro.serving.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    ERROR_KINDS,
    PROTOCOL_VERSION,
    decode_request,
    encode_response,
    ensure_trace_id,
)
from repro.serving.sessions import (
    SessionDecoder,
    SessionStore,
    TurnConflictError,
    UnknownSessionError,
)
from repro.serving.telemetry import (
    AsyncTelemetryServer,
    TelemetryPlane,
    telemetry_response,
)
from repro.serving.runtime import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEFAULT_LADDER,
    CircuitBreaker,
    Rung,
    ServingRuntime,
)

__all__ = [
    "AsyncServingDaemon",
    "AsyncTelemetryServer",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "DEFAULT_LADDER",
    "DEFAULT_MAX_LINE_BYTES",
    "ERROR_KINDS",
    "PROTOCOL_VERSION",
    "Rung",
    "ServingRuntime",
    "SessionDecoder",
    "SessionStore",
    "TelemetryPlane",
    "TurnConflictError",
    "UnknownSessionError",
    "decode_request",
    "encode_response",
    "ensure_trace_id",
    "run_async_daemon",
    "telemetry_response",
]
