"""Exception hierarchy shared by all spinhom modules.

Each class carries the exit code the CLI returns for it (spinhom.cli).
"""


class SpinhomError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class DimensionError(SpinhomError):
    """Boundary counts of composed diagrams or complexes do not match."""

    exit_code = 3


class AdmissibilityError(SpinhomError):
    """Spin-network vertex labels violate parity or the triangle condition."""

    exit_code = 3


class ArityError(SpinhomError):
    """An expression has free boundary where a closed network is required."""

    exit_code = 3


class ParseError(SpinhomError):
    """Syntax error in the network DSL, with position information."""

    exit_code = 2

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class DivergenceError(SpinhomError):
    """Projector sweeps failed to stabilize within the iteration cap."""

    exit_code = 4


class ResourceError(SpinhomError):
    """A configured resource cap (diagram count, object count) was exceeded."""

    exit_code = 5


class IntegrityError(SpinhomError):
    """Internal consistency violation: d*d != 0, cache corruption, etc."""

    exit_code = 6
