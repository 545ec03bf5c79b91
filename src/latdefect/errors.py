"""Exception taxonomy and process exit codes.

Every failure mode the library can report maps onto one of four nonzero exit
codes at the CLI boundary:

    1  usage or parse error (bad syntax, malformed files)
    2  mathematical precondition violated
    3  enumeration node budget exhausted
    4  verification suite found a counterexample
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_SUITE = 4


class ToolkitError(Exception):
    """Base class; subclasses override exit_code where the default is wrong."""

    exit_code = EXIT_PRECONDITION


class NotSymmetricError(ToolkitError):
    """Gram matrix input is not symmetric.

    Carries the offending (row, column) pair so file parsers can point at it.
    """

    exit_code = EXIT_USAGE

    def __init__(self, row: int, col: int, value, mirror) -> None:
        self.row, self.col = row, col
        self.value, self.mirror = value, mirror
        super().__init__(
            f"gram matrix not symmetric: entry at row {row}, column {col} "
            f"is {value} but entry at row {col}, column {row} is {mirror}"
        )


class FormatError(ToolkitError):
    """Malformed input file or value syntax."""

    exit_code = EXIT_USAGE


class NotIntegerError(ToolkitError):
    """An entry that must be an integer is not: a float, a string, or a
    Fraction whose denominator is not 1. Such entries are rejected rather
    than truncated by int()."""

    exit_code = EXIT_USAGE


class NotDefiniteError(ToolkitError):
    """Neither the matrix nor its negation is positive definite."""

    def __init__(self, index: int, minor) -> None:
        self.index, self.minor = index, minor
        super().__init__(
            f"matrix is not definite: leading principal minor {index} is {minor}"
        )


class NotPositiveDefiniteError(ToolkitError):
    """pivot_index is the first non-positive leading principal minor of the
    form, and minor its value, when an elimination found them."""

    def __init__(
        self, pivot_index: int | None = None, message: str | None = None, minor=None
    ) -> None:
        self.pivot_index, self.minor = pivot_index, minor
        super().__init__(
            message
            or f"form is not positive definite: pivot {pivot_index} is not positive"
        )


class NotNegativeDefiniteError(ToolkitError):
    pass


class NotBimodularError(ToolkitError):
    """Operation needs |det| = 2."""


class UnsupportedDeterminantError(ToolkitError):
    pass


class NotCharacteristicError(ToolkitError):
    pass


class CongruenceViolationError(ToolkitError):
    """A characteristic square missed its mod-8 residue class."""


class RadiusEmptyError(ToolkitError):
    """No coset point within the requested radius."""


class GlueFailureError(ToolkitError):
    pass


class ExpressionParseError(ToolkitError):
    """Syntax error in a Seifert or connected-sum expression."""

    exit_code = EXIT_USAGE

    def __init__(self, message: str, position: int) -> None:
        self.position = position
        super().__init__(f"{message} (at position {position})")


class ZeroLegFramingError(ToolkitError):
    pass


class NotRationalHomologySphereError(ToolkitError):
    pass


class TooManyBadVerticesError(ToolkitError):
    pass


class LabellingViolationError(ToolkitError):
    pass


class ResidueViolationError(ToolkitError):
    pass


class UnsupportedExpressionError(ToolkitError):
    """Connected sum shape the d-invariant bookkeeping does not cover."""


class BudgetExhaustedError(ToolkitError):
    exit_code = EXIT_BUDGET

    def __init__(self, nodes: int, budget: int) -> None:
        self.nodes, self.budget = nodes, budget
        super().__init__(f"enumeration stopped: {nodes} nodes exceed budget {budget}")


class SuiteFailureError(ToolkitError):
    exit_code = EXIT_SUITE

    def __init__(self, name: str, violations: list[str]) -> None:
        self.name = name
        self.violations = violations
        head = violations[0] if violations else "unknown"
        super().__init__(
            f"suite {name!r}: {len(violations)} violation(s), first: {head}"
        )
