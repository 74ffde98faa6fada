"""Exception hierarchy for the SpeakQL reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SqlError(ReproError):
    """Base class for SQL engine errors."""


class SqlSyntaxError(SqlError):
    """The query text does not belong to the supported SQL subset."""


class SqlSemanticError(SqlError):
    """The query references unknown tables/columns or mistypes values."""


class ExecutionError(SqlError):
    """The query failed during evaluation."""


class DatasetError(ReproError):
    """Dataset generation was asked for something unsatisfiable."""


class AsrError(ReproError):
    """Simulated speech pipeline failure."""


class BackendError(ReproError):
    """Base class for query-execution backend errors."""


class BackendUnavailableError(BackendError):
    """The requested execution backend's driver is not installed.

    Raised by :class:`~repro.execution.DuckDBBackend` when the optional
    ``duckdb`` package is absent; callers that can should degrade to the
    always-available SQLite backend.
    """


class BackendExecutionError(BackendError):
    """A query failed inside an execution backend.

    Covers engine-side parse errors, semantic errors (unknown table or
    column), and resource-cap violations (oversized result sets).  The
    scoring layer maps this to the ``invalid_sql`` verdict rather than
    crashing the harness: mistranscribed queries are data, not bugs.
    """


class BackendTimeoutError(BackendExecutionError):
    """A query ran past its per-query execution timeout and was killed."""


class DeadlineExceededError(ReproError):
    """A query ran past its deadline and was stopped between stages.

    ``stage`` names the boundary where the expiry was detected — the
    stage that was about to run (and never started), or the literal
    stage when the determiner stopped between two placeholders.
    """

    def __init__(self, message: str, *, stage: str | None = None) -> None:
        super().__init__(message)
        self.stage = stage
