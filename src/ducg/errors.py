"""Exception taxonomy shared by the knowledge-base model, gateway, and engine.

Every exception carries a stable ``code`` string so CLI layers and tests can
match on behaviour instead of message text.
"""

from __future__ import annotations


class DucgError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


# --- knowledge-base file / structure errors ---------------------------------


class KBParseError(DucgError):
    """The knowledge-base document cannot be turned into a model object."""

    code = "PARSE_ERROR"


class KBSyntaxError(KBParseError):
    code = "SYNTAX_ERROR"


class DuplicateVariableError(KBParseError):
    code = "DUPLICATE_ID"

    def __init__(self, var_id: int):
        super().__init__(f"duplicate variable id {var_id}")
        self.var_id = var_id


class UnknownReferenceError(KBParseError):
    """Something (arc endpoint, condition, prior, subgraph) names an unknown id."""

    code = "UNKNOWN_REFERENCE"

    def __init__(self, message: str, ref: int | str | None = None):
        super().__init__(message)
        self.ref = ref


class ConflictingDefinitionError(DucgError):
    """Two subgraphs define the same variable or arc with different content."""

    code = "CONFLICTING_DEFINITION"

    def __init__(self, message: str, ids: tuple[int, ...] = ()):
        super().__init__(message)
        self.ids = ids


class InvalidKnowledgeBaseError(DucgError):
    """A knowledge base failed rule validation and cannot drive inference."""

    code = "INVALID_KB"

    def __init__(self, violations):
        lines = ", ".join(f"{v.code}{list(v.ids)}" for v in violations)
        super().__init__(f"knowledge base failed validation: {lines}")
        self.violations = list(violations)


# --- signal gateway errors ---------------------------------------------------


class MalformedLineError(DucgError):
    code = "MALFORMED_LINE"

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class UnknownMeasurePointError(DucgError):
    code = "UNKNOWN_MEASURE_POINT"

    def __init__(self, measure_point: str):
        super().__init__(f"unknown measure point {measure_point!r}")
        self.measure_point = measure_point


class OutOfRangeError(DucgError):
    code = "OUT_OF_RANGE"

    def __init__(self, message: str, measure_point: str | None = None):
        super().__init__(message)
        self.measure_point = measure_point


# --- inference errors --------------------------------------------------------


class NoAbnormalEvidenceError(DucgError):
    code = "NO_ABNORMAL_EVIDENCE"


class CycleLimitError(DucgError):
    code = "CYCLE_LIMIT"


class MissingParameterError(DucgError):
    code = "MISSING_PARAMETER"
