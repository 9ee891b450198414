"""Exception taxonomy shared by all layers: one class per boundary."""


class FinjetError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeMismatch(FinjetError):
    """A library call whose arguments do not fit: ends, stages or bases that
    do not agree, a square that does not commute, a missing property."""


class WorkspaceError(FinjetError):
    """Outside input that cannot be used; carries its source location."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line, self.col = line, col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
