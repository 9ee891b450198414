"""Exception taxonomy shared by all layers: one class per boundary."""


class FinjetError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeMismatch(FinjetError):
    """A library call whose arguments do not fit: ends, stages or bases that
    do not agree, a square that does not commute, a missing property."""


class WorkspaceError(FinjetError):
    """Outside input that cannot be used; the message names its source line
    when there is one."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
