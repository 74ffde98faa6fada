"""Result types of the end-to-end pipeline."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.literal.determiner import LITERAL_STAGE, LiteralResult
from repro.structure.search import SearchResult, SearchStats

#: Canonical stage names (see :mod:`repro.core.stages`).
#: ``LITERAL_STAGE`` lives with the determiner, whose per-placeholder
#: deadline checks report it.
TRANSCRIBE_STAGE = "transcribe"
MASK_STAGE = "mask"
STRUCTURE_STAGE = "structure_search"
#: Literal determination of the runner-up structures that pad a speech
#: query's candidate list (see ``SpeakQL.process_asr_result``).
RUNNER_UP_STAGE = "runner_up"


class ComponentTimings:
    """Per-stage wall-clock latency in seconds.

    Timings are a mapping of stage name to seconds, accumulated by the
    pipeline's :class:`~repro.core.stages.QueryContext`.  The original
    two-field view (``structure_seconds`` / ``literal_seconds``) remains
    as properties over the canonical stage names, and the legacy
    two-argument constructor still works.
    """

    __slots__ = ("stages",)

    def __init__(
        self,
        structure_seconds: float = 0.0,
        literal_seconds: float = 0.0,
        *,
        stages: Mapping[str, float] | None = None,
    ) -> None:
        if stages is not None:
            self.stages: dict[str, float] = dict(stages)
        else:
            self.stages = {}
            if structure_seconds:
                self.stages[STRUCTURE_STAGE] = structure_seconds
            if literal_seconds:
                self.stages[LITERAL_STAGE] = literal_seconds

    def stage_seconds(self, name: str) -> float:
        """Seconds spent in stage ``name`` (0.0 when it never ran)."""
        return self.stages.get(name, 0.0)

    def __getitem__(self, name: str) -> float:
        return self.stage_seconds(name)

    @property
    def structure_seconds(self) -> float:
        return self.stage_seconds(STRUCTURE_STAGE)

    @property
    def literal_seconds(self) -> float:
        return self.stage_seconds(LITERAL_STAGE)

    @property
    def total_seconds(self) -> float:
        return sum(self.stages.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComponentTimings):
            return NotImplemented
        return self.stages == other.stages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:.6f}" for k, v in self.stages.items())
        return f"ComponentTimings({inner})"


@dataclass
class SpeakQLOutput:
    """End-to-end output for one dictated query.

    ``queries`` is the ranked list of candidate SQL strings (top-1 first);
    the interface displays ``queries[0]`` and offers the rest on demand.
    """

    asr_text: str
    asr_alternatives: tuple[str, ...]
    queries: list[str]
    structure: SearchResult | None
    literal_result: LiteralResult | None
    timings: ComponentTimings = field(default_factory=ComponentTimings)
    search_stats: SearchStats | None = None

    @property
    def sql(self) -> str:
        """The top-1 corrected SQL string."""
        return self.queries[0] if self.queries else ""

    def top(self, k: int) -> list[str]:
        return self.queries[:k]
