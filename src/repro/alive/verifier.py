"""The bounded translation validator (Alive2 substitute).

:class:`AliveVerifier` implements the three checking methods of the paper's
Algorithm 1 on top of the symbolic executor and the SMT substrate:

``check_with_alive_unroll``
    the out-of-the-box method: symbolically execute both functions with a
    vector-width-aligned trip count (loop alignment is implicit because both
    sides run to completion over the same bound — the paper's
    ``(end - start) % m == 0`` assumption is realized by choosing such a
    bound), then check refinement with a tight resource budget;

``check_with_c_unroll``
    first applies the C-level unrolling transform (Section 3.2) to the scalar
    program, removing per-iteration termination checks, and re-checks with a
    larger budget and a smaller bound;

``check_with_spatial_splitting``
    for kernels passing the conservative no-loop-carried-dependence check
    (Section 3.3), issues one equivalence query per written array index
    instead of a single monolithic query.

Every method returns the equivalence checker's own
:class:`~repro.smt.equiv.EquivalenceResult`, whose verdict is EQUIVALENT,
NOT_EQUIVALENT or INCONCLUSIVE.  Refinement additionally refutes candidates
that introduce undefined behaviour (out of bounds accesses, stored poison)
absent from the scalar program — that is the mechanism by which
checksum-surviving bugs like the paper's s124 example are caught.  A result
the verifier decides itself carries an empty ``method`` and says why in
``detail``: one decided before any query (a parse failure, a failed
precondition, new undefined behaviour), or spatial splitting's EQUIVALENT
after every per-index query was discharged.

Every array parameter of the scalar program is observable.  An array the
candidate does not take keeps its initial contents, as it does under
checksum testing, where the interpreter allocates every input array.
"""

from __future__ import annotations

from repro.analysis.accesses import collect_accesses
from repro.analysis.loops import find_main_loop
from repro.cfront import ast_nodes as ast
from repro.errors import CompileError, ParseError, ReproError
from repro.alive.symexec import SymbolicExecutionError, SymbolicState, SymRegion, execute_symbolically
from repro.intrinsics.registry import INTRINSIC_REGISTRY, registry_for_dtype
from repro.lanetypes import INT32, LaneType
from repro.memo import IdentityMemo
from repro.smt.equiv import EquivalenceChecker, EquivalenceResult, SolverBudget
from repro.smt.terms import Term, contains_poison
from repro.targets import DEFAULT_TARGET
from repro.transforms.c_unroll import CUnrollError, unroll_scalar_function
from repro.transforms.spatial import spatial_access_summary
from repro.verdict import Verdict


#: The bound of alive-unroll.  It must be a multiple of the vectorization
#: width (the paper's epilogue-elimination assumption).
TRIP_COUNT = 16
#: The smaller bound of C-unroll and spatial splitting.
C_UNROLL_TRIP_COUNT = 8
#: The value of every scalar parameter other than ``n``.
DEFAULT_SCALAR_VALUE = 3
#: Each stage's solver budget; ``sat_bitwidth`` is the reduced width of its
#: SAT check.
ALIVE_BUDGET = SolverBudget(max_term_nodes=900, random_samples=24, sat_bitwidth=6,
                            sat_conflict_budget=2_500, sat_propagation_budget=120_000)
C_UNROLL_BUDGET = SolverBudget(max_term_nodes=2600, random_samples=32, sat_bitwidth=6,
                               sat_conflict_budget=8_000, sat_propagation_budget=400_000)
SPLITTING_BUDGET = SolverBudget(max_term_nodes=1400, random_samples=32, sat_bitwidth=6,
                                sat_conflict_budget=8_000, sat_propagation_budget=400_000)


class AliveVerifier:
    """Checks a (scalar, vectorized) pair for refinement.

    ``trip_count`` is alive-unroll's bound (default :data:`TRIP_COUNT`).
    """

    def __init__(self, *, trip_count: int = TRIP_COUNT):
        self.trip_count = trip_count

    # -- public methods, mirroring Algorithm 1 ----------------------------------------

    def check_with_alive_unroll(self, scalar_code: str | ast.FunctionDef,
                                vectorized_code: str | ast.FunctionDef) -> EquivalenceResult:
        """Out-of-the-box bounded translation validation."""
        return self._check(scalar_code, vectorized_code,
                           trip_count=self.trip_count,
                           budget=ALIVE_BUDGET,
                           transform_scalar=False,
                           split=False)

    def check_with_c_unroll(self, scalar_code: str | ast.FunctionDef,
                            vectorized_code: str | ast.FunctionDef) -> EquivalenceResult:
        """C-level unrolling of the scalar side before validation (Section 3.2)."""
        return self._check(scalar_code, vectorized_code,
                           trip_count=C_UNROLL_TRIP_COUNT,
                           budget=C_UNROLL_BUDGET,
                           transform_scalar=True,
                           split=False)

    def check_with_spatial_splitting(self, scalar_code: str | ast.FunctionDef,
                                     vectorized_code: str | ast.FunctionDef) -> EquivalenceResult:
        """Per-index equivalence queries for dependence-free kernels (Section 3.3)."""
        return self._check(scalar_code, vectorized_code,
                           trip_count=C_UNROLL_TRIP_COUNT,
                           budget=SPLITTING_BUDGET,
                           transform_scalar=False,
                           split=True)

    # -- the shared machinery --------------------------------------------------------------

    def _check(self, scalar_code, vectorized_code, trip_count: int, budget: SolverBudget,
               transform_scalar: bool, split: bool) -> EquivalenceResult:
        try:
            scalar_func = self._as_function(scalar_code)
            vector_func = self._as_function(vectorized_code)
        except (ParseError, ReproError) as exc:
            return EquivalenceResult(Verdict.INCONCLUSIVE, detail=f"parse failure: {exc}")

        if split:
            summary = spatial_access_summary(scalar_func, vector_func)
            if not summary.splittable:
                return EquivalenceResult(
                    Verdict.INCONCLUSIVE,
                    detail=f"splitting precondition failed: {summary.reason}")

        # Both sides must model the same lane element type: refinement over
        # terms at two different widths is meaningless.
        try:
            scalar_dtype = ast.kernel_dtype(scalar_func)
            vector_dtype = ast.kernel_dtype(vector_func)
        except CompileError as exc:
            return EquivalenceResult(Verdict.INCONCLUSIVE, detail=f"element type inference failed: {exc}")
        if scalar_dtype is not vector_dtype:
            return EquivalenceResult(
                Verdict.INCONCLUSIVE,
                detail=f"element type mismatch: scalar models {scalar_dtype.name}, "
                       f"candidate models {vector_dtype.name}")
        dtype = vector_dtype

        # The unroll factor (and therefore the minimum trip count) follows the
        # candidate's vector width: an SSE4 candidate needs 4-way alignment,
        # an AVX-512 one 16-way.  Candidates without intrinsics (blocked
        # scalar rewrites) fall back to the default AVX2 width.
        lanes = _candidate_lanes(vector_func, dtype)
        trip_count = max(trip_count, lanes)

        executable_scalar = scalar_func
        if transform_scalar:
            try:
                executable_scalar = _cached_unroll(scalar_func, lanes)
            except CUnrollError as exc:
                return EquivalenceResult(Verdict.INCONCLUSIVE, detail=f"C-level unrolling failed: {exc}")

        array_sizes = self._array_sizes(scalar_func, trip_count)
        scalar_values = self._scalar_values(scalar_func, trip_count)
        vec_scalar_values = self._scalar_values(vector_func, trip_count)

        try:
            scalar_state = _cached_scalar_symexec(executable_scalar, array_sizes, scalar_values)
            vector_state = execute_symbolically(vector_func, array_sizes, vec_scalar_values)
        except SymbolicExecutionError as exc:
            return EquivalenceResult(Verdict.INCONCLUSIVE, detail=f"symbolic execution failed: {exc}")

        # Refinement part 1: the target must not introduce UB.
        new_ub = [event for event in vector_state.ub_events if event not in scalar_state.ub_events]
        if new_ub:
            return EquivalenceResult(
                Verdict.NOT_EQUIVALENT,
                detail="the vectorized code introduces undefined behaviour: " + "; ".join(new_ub[:3]),
            )

        # Refinement part 2: every observable array cell must agree.
        pairs = _output_pairs(scalar_state, vector_state, scalar_func)
        poisoned = {name for name, (src, _tgt) in pairs.items() if contains_poison(src)}
        comparable = [(src, tgt) for name, (src, tgt) in pairs.items() if name not in poisoned]
        target_poison = [name for name, (src, tgt) in pairs.items()
                         if name not in poisoned and contains_poison(tgt)]
        if target_poison:
            return EquivalenceResult(
                Verdict.NOT_EQUIVALENT,
                detail="the vectorized code stores poison where the scalar code stores a value: "
                + ", ".join(target_poison[:4]),
            )

        checker = EquivalenceChecker(budget=budget, model_bits=dtype.bits)
        if not split:
            return checker.check_pairs(comparable)
        worst: EquivalenceResult | None = None
        for source, target in comparable:
            result = checker.check_pair(source, target)
            if result.outcome is Verdict.NOT_EQUIVALENT:
                return result
            if result.outcome is Verdict.INCONCLUSIVE and worst is None:
                worst = result
        return worst or EquivalenceResult(Verdict.EQUIVALENT,
                                          detail="all per-index queries discharged")

    # -- helpers -------------------------------------------------------------------------------

    @staticmethod
    def _as_function(code: str | ast.FunctionDef) -> ast.FunctionDef:
        if isinstance(code, ast.FunctionDef):
            return code
        # Shared-AST cache: the same scalar/candidate pair flows through
        # every verification stage, and the unroller deep-copies before it
        # mutates — so one parse per distinct source text suffices.
        from repro.vectorizer.plancache import cached_parse

        return cached_parse(code)

    def _array_sizes(self, scalar_func: ast.FunctionDef, trip_count: int) -> dict[str, int]:
        """Tight array sizes: trip count plus the scalar program's own overhang.

        Sizing regions by what the *scalar* program may legally touch gives
        the refinement check the power to catch vectorized code that reads or
        writes beyond that extent.
        """
        overhang = 0
        loop = find_main_loop(scalar_func)
        if loop is not None and loop.iterator is not None:
            for access in collect_accesses(loop.body, loop.iterator):
                affine = access.affine
                if affine.is_iterator_affine and affine.coefficient == 1 and affine.offset > overhang:
                    overhang = affine.offset
        size = trip_count + overhang
        return {p.name: size for p in scalar_func.params if p.param_type.is_pointer}

    def _scalar_values(self, func: ast.FunctionDef, trip_count: int) -> dict[str, int]:
        values: dict[str, int] = {}
        for param in func.params:
            if param.param_type.is_pointer:
                continue
            if param.name == "n":
                values[param.name] = trip_count
            else:
                values[param.name] = DEFAULT_SCALAR_VALUE
        return values


#: Unrolling the scalar side is deterministic in (function, factor), and the
#: c-unroll method re-runs for every candidate attempt against the *same*
#: (cache-shared) scalar reference.  The unrolled tree is only ever walked
#: read-only (symbolic execution).
_UNROLL_MEMO = IdentityMemo(256)


def _cached_unroll(scalar_func: ast.FunctionDef, lanes: int) -> ast.FunctionDef:
    return _UNROLL_MEMO.get_or_compute(
        scalar_func, lambda: unroll_scalar_function(scalar_func, factor=lanes),
        salt=lanes)


#: Scalar-side symbolic states repeat the same way: one kernel is verified
#: against several candidate attempts, and each attempt re-executes the same
#: scalar (or unrolled-scalar) tree over the same sizes and values.  States
#: are read downstream (output pairs, UB events) but never mutated, and the
#: hash-consed term graph makes sharing them cheap.
_SYMEXEC_MEMO = IdentityMemo(256)


def _cached_scalar_symexec(func: ast.FunctionDef, array_sizes: dict[str, int],
                           scalar_values: dict[str, int]) -> SymbolicState:
    return _SYMEXEC_MEMO.get_or_compute(
        func, lambda: execute_symbolically(func, array_sizes, scalar_values),
        salt=(tuple(sorted(array_sizes.items())), tuple(sorted(scalar_values.items()))))


_LANES_MEMO = IdentityMemo(512)


def _candidate_lanes(vector_func: ast.FunctionDef, dtype: LaneType = INT32) -> int:
    """Vector width of a candidate, inferred from the intrinsics it calls."""
    return _LANES_MEMO.get_or_compute(
        vector_func, lambda: _candidate_lanes_uncached(vector_func, dtype),
        salt=dtype.name)


def _candidate_lanes_uncached(vector_func: ast.FunctionDef, dtype: LaneType) -> int:
    merged = registry_for_dtype(dtype)
    lanes = 0
    for node in ast.walk(vector_func):
        if isinstance(node, ast.Call):
            spec = merged.get(node.func) or INTRINSIC_REGISTRY.get(node.func)
            if spec is not None:
                lanes = max(lanes, spec.lanes)
    return lanes or DEFAULT_TARGET.lanes


def _output_pairs(scalar_state: SymbolicState, vector_state: SymbolicState,
                  scalar_func: ast.FunctionDef) -> dict[str, tuple[Term, Term]]:
    """The (scalar, candidate) final term of every observable array cell."""
    arrays = {param.name for param in scalar_func.params if param.param_type.is_pointer}
    pairs: dict[str, tuple[Term, Term]] = {}
    for name, region in scalar_state.regions.items():
        vector_region = vector_state.regions.get(name)
        if vector_region is None:
            if name not in arrays:
                continue  # a local array of the scalar program
            vector_region = SymRegion(name, region.size)
        for index in range(region.size):
            pairs[f"{name}[{index}]"] = (region.cell(index), vector_region.cell(index))
    return pairs
