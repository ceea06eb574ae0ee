"""Common error types and source locations used across the toolchain.

Every stage of the pipeline (lexing, parsing, compile checks, interpretation,
verification) reports problems through the exception hierarchy defined here so
callers can distinguish "the input program is malformed" from "the candidate
program misbehaves at runtime" from "the verifier ran out of resources".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    """A position in a C source snippet (1-based line and column)."""

    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ReproError(Exception):
    """Base class for every error raised by the repro toolchain."""


class LexError(ReproError):
    """A token could not be formed from the input text."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location or SourceLocation()
        super().__init__(f"{self.location}: {message}")


class ParseError(ReproError):
    """The token stream does not form a valid program in the C subset."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location or SourceLocation()
        super().__init__(f"{self.location}: {message}")


class CompileError(ReproError):
    """A candidate program was rejected before execution.

    This is the analogue of a C compiler diagnostic: unknown identifiers,
    unknown intrinsics, arity mismatches, and so on.  The checksum tester
    classifies candidates that raise :class:`CompileError` as
    ``CANNOT_COMPILE``, matching the paper's Table 2 row.
    """


class InterpreterError(ReproError):
    """The interpreter could not continue executing a program."""


class UndefinedBehaviorError(InterpreterError):
    """Execution hit undefined behaviour that the memory model refuses to mask.

    An access past the guard zone or before it, an access to an unknown
    region and a negative array size raise this error.
    """

    def __init__(self, message: str, kind: str = "generic"):
        self.kind = kind
        super().__init__(message)


class ResourceBudgetExceeded(ReproError):
    """A solver or verifier exceeded its configured budget.

    Callers convert this into an ``INCONCLUSIVE`` verdict; it mirrors
    Alive2/Z3 timeouts and memory-outs in the paper.
    """

    def __init__(self, message: str, resource: str = "steps"):
        self.resource = resource
        super().__init__(message)
