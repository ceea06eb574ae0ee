"""Static candidate vetting: a rule-based vector-code linter.

The verifier pipeline (interpret → symbolically execute → solve) proves
candidates wrong one counterexample at a time; this package screens them
first with rules that prove whole *classes* of candidates wrong at a
glance — use of an uninitialized accumulator, an intrinsic the target
doesn't have, a loop stepping one element while moving eight-lane
vectors.  ``check_candidate`` runs every rule pass over one candidate and
returns a ``StaticReport``; the campaign engine consumes it in advisory
mode (reports attached, verdicts untouched) or screen mode (error-severity
candidates fast-rejected before any execution).

Run it standalone with ``python -m repro.staticcheck file.c --target avx2``.
"""

from repro.staticcheck.checker import check_candidate
from repro.staticcheck.diagnostics import Diagnostic, Severity, StaticReport

__all__ = [
    "Diagnostic",
    "Severity",
    "StaticReport",
    "check_candidate",
]
