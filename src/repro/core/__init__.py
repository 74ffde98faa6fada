"""SpeakQL core: artifacts (offline), stages (online), service (batch).

The end-to-end pipeline of Figure 2 is layered as shared immutable
:class:`~repro.core.artifacts.SpeakQLArtifacts`, composable per-query
stages (:mod:`repro.core.stages`), and the parallel batch
:class:`~repro.core.service.SpeakQLService`; :class:`SpeakQL` is the
backward-compatible facade over the first two.
"""

from repro.api import (
    OUTCOMES,
    BatchQueryError,
    QueryRequest,
    QueryResponse,
)
from repro.core.artifacts import SpeakQLArtifacts
from repro.core.pipeline import SpeakQL, SpeakQLConfig
from repro.core.result import (
    LITERAL_STAGE,
    MASK_STAGE,
    RUNNER_UP_STAGE,
    STRUCTURE_STAGE,
    TRANSCRIBE_STAGE,
    ComponentTimings,
    SpeakQLOutput,
)
from repro.core.service import BatchRequest, SpeakQLService
from repro.core.stages import PipelineStage, QueryContext, run_stages

__all__ = [
    "SpeakQL",
    "SpeakQLConfig",
    "SpeakQLOutput",
    "ComponentTimings",
    "SpeakQLArtifacts",
    "SpeakQLService",
    "BatchRequest",
    "BatchQueryError",
    "QueryRequest",
    "QueryResponse",
    "OUTCOMES",
    "PipelineStage",
    "QueryContext",
    "run_stages",
    "TRANSCRIBE_STAGE",
    "MASK_STAGE",
    "STRUCTURE_STAGE",
    "LITERAL_STAGE",
    "RUNNER_UP_STAGE",
]
