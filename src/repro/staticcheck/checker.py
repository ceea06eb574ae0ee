"""The static vetting entry point: parse once, run every rule pass.

:func:`check_candidate` is the one function the rest of the system calls.
It takes the candidate's AST from the shared parse cache — the same tree
the tester and verifier see, with ``line:col`` locations for every
diagnostic — resolves the (target, dtype) pair the rules should judge it
against, and runs the five rule families — definite-assignment / intrinsic
dataflow (typeflow), loop shape, dead masks, predicate governance, and
operator drift — collecting everything into one
:class:`~repro.staticcheck.diagnostics.StaticReport`.

Results are memoized: repair loops re-check near-identical candidates and
campaigns re-check identical accepted code across stages, so the memo is
keyed on the exact ``(source, target, dtype, epilogue, scalar)`` tuple.
"""

from __future__ import annotations

from repro.cfront import ast_nodes as ast
from repro.errors import ReproError
from repro.lanetypes import LaneType, get_lane_type
from repro.memo import Memo
from repro.staticcheck.deadmask import run_deadmask
from repro.staticcheck.diagnostics import Diagnostic, Severity, StaticReport
from repro.staticcheck.drift import run_drift
from repro.staticcheck.loopshape import run_loopshape
from repro.staticcheck.predicates import run_predicates
from repro.staticcheck.typeflow import run_typeflow
from repro.targets import TargetISA, detect_target, get_target
from repro.vectorizer.plancache import cached_parse

_REPORTS = Memo(512)


def _parse_scalar(scalar_source: str) -> ast.FunctionDef | None:
    """Parse the scalar reference, tolerating failure (drift just skips)."""
    try:
        return cached_parse(scalar_source)
    except ReproError:
        return None


def _resolve_dtype(dtype: LaneType | str | None,
                   func: ast.FunctionDef) -> LaneType:
    if dtype is not None:
        return get_lane_type(dtype)
    try:
        return ast.kernel_dtype(func)
    except ReproError:
        return get_lane_type(None)


def check_candidate(source: str, *,
                    target: TargetISA | str | None = None,
                    dtype: LaneType | str | None = None,
                    epilogue: str | None = None,
                    scalar_source: str | None = None) -> StaticReport:
    """Statically vet one candidate; never raises on bad candidate code.

    ``target``/``dtype`` default to what the source itself implies
    (intrinsic spellings / sized integer declarations).  ``epilogue`` is
    the declared tail strategy, checked against the actual structure.
    ``scalar_source`` enables the operator-drift rule.
    """
    target_key = target.name if isinstance(target, TargetISA) else target
    dtype_key = dtype.name if isinstance(dtype, LaneType) else dtype
    key = (source, target_key, dtype_key, epilogue, scalar_source)
    cached: StaticReport | None = _REPORTS.get(key)
    if cached is not None:
        return cached

    try:
        func = cached_parse(source)
    except ReproError as exc:
        location = getattr(exc, "location", None)
        span = (location.line, location.column) if location else (0, 0)
        isa = detect_target(source, default=target)
        report = StaticReport(target=isa.name,
                              dtype=get_lane_type(dtype).name, checked=False)
        report.diagnostics.append(Diagnostic(
            rule_id="parse-error", severity=Severity.ERROR,
            message=f"candidate does not parse: {exc}", node_span=span))
    else:
        isa = get_target(target) if target is not None \
            else detect_target(source)
        lane_type = _resolve_dtype(dtype, func)
        report = StaticReport(target=isa.name, dtype=lane_type.name)
        run_typeflow(func, isa, lane_type, report)
        run_loopshape(func, isa, lane_type, report, epilogue=epilogue)
        run_deadmask(func, isa, lane_type, report)
        run_predicates(func, isa, lane_type, report)
        if scalar_source:
            run_drift(func, isa, lane_type, report,
                      scalar_func=_parse_scalar(scalar_source))
    return _REPORTS.put(key, report)
