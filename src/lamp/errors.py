"""Exception hierarchy shared by all lamp modules."""


class LampError(Exception):
    """Base class for every error raised by this package."""


class LengthMismatch(LampError):
    """Two vectors of different coordinate counts were combined."""


class ZeroLength(LampError):
    """A vector with zero coordinates was requested."""


class ParseError(LampError):
    """Malformed textual input; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class WidthMismatch(LampError):
    """Vector widths disagree where a single width is required."""


class EmptyTable(LampError):
    """An associative table must contain at least one row."""


class ModeMismatch(LampError):
    """Query vector kind is incompatible with the table kind."""


class NotCompacted(LampError):
    """An operation required a prefix vector (all ones flushed left)."""


class InvalidRowIndex(LampError):
    """A sequencer addressed a row outside its loaded matrix."""


class PcOutOfRange(LampError):
    """Program counter left the command memory without a halt."""


class DeadlockDetected(LampError):
    """Every active cell is stalled on an exchange with no partner."""

    def __init__(self, message, cells=()):
        super().__init__(message)
        self.cells = tuple(cells)


class AsmSyntaxError(ParseError):
    """Assembly source error; carries 1-based line and column."""

    def __init__(self, message, line, column=1):
        super().__init__(f"col {column}: {message}", line=line)
        self.column = column


class UnknownMnemonic(AsmSyntaxError):
    pass


class DuplicateLabel(AsmSyntaxError):
    pass


class UnresolvedLabel(AsmSyntaxError):
    pass


class MalformedBinary(LampError):
    """A program binary is truncated or violates the format."""


# Each class below also derives from the built-in exception it replaced,
# so callers that catch that built-in keep working.


class InvalidArgument(LampError, ValueError):
    """An argument is outside the values the function accepts."""


class NotAVector(LampError, TypeError):
    """An argument that must be a vector is of another type."""


class NotBinary(LampError, ValueError):
    """A vector holding x was used where a binary vector is required."""


class EmptyIntersection(LampError, ValueError):
    """An intersection with an empty coordinate has no ternary form."""


class CoordinateOutOfRange(LampError, IndexError):
    """A coordinate lies outside its range: a vector's 1..n, or the grid's cells."""


class NotAnInstruction(LampError, TypeError):
    """A program, or an object in it, is not what the grid can execute."""


class SequencerHalted(LampError, RuntimeError):
    """A halted sequencer was stepped."""
