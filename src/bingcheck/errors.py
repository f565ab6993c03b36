"""Exception hierarchy.

The CLI maps these to exit codes: usage errors exit 1, input/admissibility
errors exit 2, internal invariant violations exit 3.
"""


class BingcheckError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BingcheckError):
    """Malformed textual input (polynomial or matrix syntax)."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class AdmissibilityError(BingcheckError):
    """Input is well-formed but violates a mathematical precondition."""


class SizeBoundError(BingcheckError):
    """A size parameter is above the bound the tool answers in seconds."""


class FormulaHypothesisError(BingcheckError):
    """A formula's nondegeneracy hypothesis failed for this input."""


class UnknownEntryError(BingcheckError):
    """Catalog lookup for a name that is not in the catalog."""


class InternalInvariantError(BingcheckError):
    """A certified internal invariant failed; indicates a bug, not bad input."""
