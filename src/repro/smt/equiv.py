"""Equivalence checking of bitvector terms.

The checker discharges "is term S equal to term T for all inputs?" queries in
three stages (cheapest first):

1. **Algebraic normalization** — wraparound add/sub/mul form a commutative
   ring, so both terms are rewritten into a canonical polynomial form (atoms
   such as comparisons or selects become opaque variables whose arguments are
   normalized recursively).  Structural equality of the normal forms is a
   sound proof of equivalence at full width.
2. **Randomized refutation** — concrete evaluation at the modeled width
   over ``SolverBudget.random_samples`` seeded boundary, small and random
   assignments; any difference is a genuine counterexample.  All samples
   are drawn first, and one :func:`~repro.smt.terms.evaluate_many` walk
   evaluates each node of the query once for all of them, the way
   combinational equivalence checkers simulate random patterns (Mishchenko,
   Chatterjee, Brayton & Eén, ICCAD 2006).  The first differing sample, in
   sample order, is the counterexample.
3. **Bit-blasting + CDCL SAT at reduced width** — an UNSAT answer proves
   equivalence *modulo bitwidth reduction* (the documented soundness trade of
   this reproduction); a SAT answer is re-checked at the modeled width before
   being reported as a refutation; budget exhaustion is Inconclusive,
   mirroring Alive2/Z3 timeouts in the paper.

Every query answers with one :class:`EquivalenceResult`: a
:class:`~repro.verdict.Verdict` (``EQUIVALENT``, ``NOT_EQUIVALENT`` or
``INCONCLUSIVE``) plus the ``method`` that decided it (``normalization``,
``concrete``, ``budget``, ``bitblast``, ``sat-model``, ``sat-budget``,
``sat-width-artifact`` or ``sat-unsat@<bits>bit``).  The verifier's stages
return this record as their own result.  ``check_pair`` is ``check_pairs`` on
a one-pair list, so the two entry points agree.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass

from repro.memo import Memo
from repro.smt.bitblast import BitBlaster, UnsupportedTerm
from repro.smt.sat import CDCLSolver, SATResult, SATStatistics
from repro.smt.terms import (
    Term,
    TermKind,
    WORD_BITS,
    active_bits,
    bv_const,
    bv_var,
    collect_variables,
    evaluate,
    evaluate_many,
    mk,
    modeled_bits,
    term_size,
    to_unsigned,
)
from repro.verdict import Verdict

_RING_OPS = {TermKind.ADD, TermKind.SUB, TermKind.MUL, TermKind.NEG}


def _modulus() -> int:
    """Ring modulus at the active modeled width (2**bits)."""
    return 1 << active_bits()

#: Polynomial expansion is worst-case exponential (a product of n sums has
#: 2^n monomials); past this many monomials normalization abandons the ring
#: expansion and falls back to a structural form.  The fallback only means a
#: cheap equality proof is not attempted — the concrete and SAT stages still
#: decide the query.
_MAX_MONOMIALS = 4096


class _PolynomialBlowup(Exception):
    """Raised when ring expansion would exceed the monomial cap."""


@dataclass(frozen=True)
class SolverBudget:
    """Resource limits; exhausting any of them yields Inconclusive."""

    max_term_nodes: int = 6000
    random_samples: int = 48
    sat_bitwidth: int = 6
    sat_conflict_budget: int = 30_000
    sat_propagation_budget: int = 1_500_000


@dataclass
class EquivalenceResult:
    """The answer to one equivalence query, and to one verification stage."""

    outcome: Verdict
    method: str = ""
    counterexample: dict[str, int] | None = None
    detail: str = ""
    #: Statistics of the SAT stage that produced this result — None when the
    #: query was decided before bit-blasting.  A solve-cache hit carries the
    #: statistics recorded when the batch was first solved.
    sat_stats: SATStatistics | None = None


# ---------------------------------------------------------------------------
# stage 1: algebraic normalization
# ---------------------------------------------------------------------------


def _polynomial(term: Term, atoms: dict[Term, str],
                memo: dict[Term, dict] | None = None) -> dict[tuple[str, ...], int]:
    """Multivariate polynomial (monomial -> coefficient mod 2^32) of ``term``.

    Non-ring sub-terms become atom variables; their *normalized* form is used
    as the atom key so equal-modulo-arithmetic atoms coincide.  ``memo``
    (per top-level expansion) keeps shared DAG nodes from being re-expanded
    once per path — unrolled kernels share almost every subterm.  Returned
    dicts may be shared through the memo, so callers must not mutate them.
    """
    if memo is None:
        memo = {}
    cached = memo.get(term)
    if cached is not None:
        return cached
    kind = term.kind
    if kind is TermKind.CONST:
        result = {(): term.value % _modulus()} if term.value % _modulus() else {}
    elif kind is TermKind.VAR:
        result = {(term.name,): 1}
    elif kind is TermKind.ADD:
        result = _poly_add(_polynomial(term.args[0], atoms, memo),
                           _polynomial(term.args[1], atoms, memo), 1)
    elif kind is TermKind.SUB:
        result = _poly_add(_polynomial(term.args[0], atoms, memo),
                           _polynomial(term.args[1], atoms, memo), -1)
    elif kind is TermKind.NEG:
        result = _poly_scale(_polynomial(term.args[0], atoms, memo), -1)
    elif kind is TermKind.MUL:
        result = _poly_mul(_polynomial(term.args[0], atoms, memo),
                           _polynomial(term.args[1], atoms, memo))
    else:
        # Non-ring operation: normalize it recursively, treat it as an atom.
        normalized = normalize_term(term)
        if normalized.kind in _RING_OPS or normalized.kind in (TermKind.CONST, TermKind.VAR):
            result = _polynomial(normalized, atoms, memo)
        else:
            name = atoms.setdefault(normalized, f"__atom{len(atoms)}")
            result = {(name,): 1}
    memo[term] = result
    return result


def _poly_add(left: dict, right: dict, sign: int) -> dict:
    modulus = _modulus()
    result = dict(left)
    for monomial, coefficient in right.items():
        result[monomial] = (result.get(monomial, 0) + sign * coefficient) % modulus
        if result[monomial] == 0:
            del result[monomial]
    return result


def _poly_scale(poly: dict, factor: int) -> dict:
    modulus = _modulus()
    result = {}
    for monomial, coefficient in poly.items():
        scaled = (coefficient * factor) % modulus
        if scaled:
            result[monomial] = scaled
    return result


def _poly_mul(left: dict, right: dict) -> dict:
    if len(left) * len(right) > _MAX_MONOMIALS:
        raise _PolynomialBlowup()
    modulus = _modulus()
    result: dict[tuple[str, ...], int] = {}
    for mono_l, coeff_l in left.items():
        for mono_r, coeff_r in right.items():
            monomial = tuple(sorted(mono_l + mono_r))
            coefficient = (result.get(monomial, 0) + coeff_l * coeff_r) % modulus
            if coefficient:
                result[monomial] = coefficient
            elif monomial in result:
                del result[monomial]
    return result


def _poly_to_term(poly: dict, atom_terms: dict[str, Term]) -> Term:
    if not poly:
        return bv_const(0)
    terms: list[Term] = []
    for monomial in sorted(poly):
        coefficient = poly[monomial]
        factors: list[Term] = []
        for name in monomial:
            factors.append(atom_terms.get(name, bv_var(name)))
        product: Term = bv_const(coefficient)
        if factors:
            product = factors[0]
            for factor in factors[1:]:
                product = Term(TermKind.MUL, (product, factor))
            if coefficient != 1:
                product = Term(TermKind.MUL, (bv_const(coefficient), product))
        terms.append(product)
    result = terms[0]
    for term in terms[1:]:
        result = Term(TermKind.ADD, (result, term))
    return result


#: Associative-commutative operators flattened and sorted during normalization.
_AC_OPS = {TermKind.MAX, TermKind.MIN, TermKind.AND, TermKind.OR, TermKind.XOR}


def _flatten_ac(term: Term, kind: TermKind, out: list[Term]) -> None:
    if term.kind is kind:
        for arg in term.args:
            _flatten_ac(arg, kind, out)
    else:
        out.append(term)


def normalize_term(term: Term) -> Term:
    """Canonical form: polynomial normal form with recursively-normalized atoms.

    Memoized at every node, not just the root: the unrolled lane terms of one
    kernel share almost all of their subterms, and without subterm
    memoization the recursion re-normalizes each shared node once per path —
    which used to dominate the whole solve stage.

    Besides the ring normalization, two more canonicalizations are applied so
    that scalar and vectorized programs converge to the same shape:

    * associative-commutative chains (min/max/and/or/xor) are flattened and
      their operands sorted, so a left-deep scalar reduction matches a
      lane-then-combine vector reduction;
    * ``ite(c, t, e)`` is rewritten into the additive form ``e + ite(c, t-e, 0)``,
      so a conditionally-accumulated scalar (``ite(c, s+x, s)``) matches the
      masked vector accumulation (``s + ite(c, x, 0)``).
    """
    key = (active_bits(), term)
    cached = _NORMALIZE_CACHE.get(key)
    if cached is None:
        cached = _NORMALIZE_CACHE.put(key, _normalize_node(term))
    return cached


def _normalize_node(term: Term) -> Term:
    if term.kind in (TermKind.CONST, TermKind.VAR, TermKind.POISON):
        return term
    if term.kind in _RING_OPS:
        atoms: dict[Term, str] = {}
        try:
            poly = _polynomial(term, atoms)
        except _PolynomialBlowup:
            # Too large to expand: canonicalize the operands only.
            return mk(term.kind, *(normalize_term(a) for a in term.args))
        atom_terms = {name: atom for atom, name in atoms.items()}
        return _poly_to_term(poly, atom_terms)
    if term.kind in _AC_OPS:
        operands: list[Term] = []
        _flatten_ac(term, term.kind, operands)
        normalized = sorted((normalize_term(o) for o in operands), key=_ordering_key)
        if term.kind is not TermKind.XOR:
            # min/max/and/or are idempotent: duplicate operands collapse.
            deduped: list[Term] = []
            for operand in normalized:
                if not deduped or deduped[-1] != operand:
                    deduped.append(operand)
            normalized = deduped
        result = normalized[0]
        for operand in normalized[1:]:
            result = Term(term.kind, (result, operand))
        return result
    if term.kind is TermKind.ITE:
        cond = normalize_term(term.args[0])
        then = normalize_term(term.args[1])
        otherwise = normalize_term(term.args[2])
        if then == otherwise:
            return then
        difference = normalize_term(Term(TermKind.SUB, (then, otherwise)))
        selected = mk(TermKind.ITE, cond, difference, bv_const(0))
        if otherwise == bv_const(0):
            return selected
        return normalize_term(Term(TermKind.ADD, (otherwise, selected)))
    normalized_args = tuple(normalize_term(a) for a in term.args)
    return mk(term.kind, *normalized_args)


_ORDERING_KEY_CACHE = Memo(200_000)


def _ordering_key(term: Term) -> tuple:
    # A structural tuple, not a repr string: nesting repr re-escapes the
    # quotes of inner keys, which makes key size exponential in term depth.
    # Tuples share the child keys by reference and compare lazily.
    key = _ORDERING_KEY_CACHE.get(term)
    if key is None:
        key = _ORDERING_KEY_CACHE.put(term, (
            term.kind.value,
            term.value if term.value is not None else 0,
            term.name or "",
            tuple(_ordering_key(a) for a in term.args),
        ))
    return key


_NORMALIZE_CACHE = Memo(200_000)


def terms_structurally_equal(left: Term, right: Term) -> bool:
    """Equality after canonical normalization (a sound full-width proof).

    A term too deep for the recursive normalizer is not proven here, and
    the pair goes on to concrete refutation and the SAT stage.
    """
    if left == right:
        return True
    try:
        return normalize_term(left) == normalize_term(right)
    except RecursionError:
        return False


# ---------------------------------------------------------------------------
# stage 2: randomized refutation; stage 3: bit-blasting
# ---------------------------------------------------------------------------


def _boundary_values(bits: int) -> list[int]:
    """Boundary probe values at one modeled width (INT_MAX/INT_MIN/-1/-2)."""
    top = 1 << bits
    return [0, 1, 2, 7, 8, top // 2 - 1, top // 2, top - 1, top - 2]


_BOUNDARY_VALUES = _boundary_values(WORD_BITS)


def _alpha_canonical_pair(source: Term, target: Term) -> tuple[Term, Term, dict[str, str]]:
    """Rename the pair's variables to first-occurrence order (``v0``, ``v1``...).

    Two pairs that differ only in variable names — the lane/unroll copies of
    one kernel, ``b_0*b_0+a_0`` vs ``b_7*b_7+a_7`` — map to the same
    canonical pair, so one SAT verdict transfers to all of them.  Returns
    the renamed terms plus the original→canonical variable map (used to
    translate SAT models back).  Node-memoized so shared DAG subterms are
    renamed once per pair, not once per path.
    """
    var_map: dict[str, str] = {}
    node_memo: dict[int, Term] = {}

    def rename(term: Term) -> Term:
        done = node_memo.get(id(term))
        if done is not None:
            return done
        if term.kind is TermKind.VAR:
            canon = var_map.get(term.name)
            if canon is None:
                canon = f"v{len(var_map)}"
                var_map[term.name] = canon
            renamed = bv_var(canon)
        elif not term.args:
            renamed = term
        else:
            renamed = Term(term.kind, tuple(rename(a) for a in term.args))
        node_memo[id(term)] = renamed
        return renamed

    return rename(source), rename(target), var_map


class EquivalenceChecker:
    """Checks pairs of terms for equivalence under a resource budget."""

    def __init__(self, budget: SolverBudget | None = None, seed: int = 7,
                 model_bits: int = WORD_BITS):
        self.budget = budget or SolverBudget()
        self.seed = seed
        #: The modeled lane element width: normalization, concrete sampling
        #: and full-width confirmation all run at this width (the SAT stage
        #: still blasts at the reduced ``sat_bitwidth``).
        self.model_bits = model_bits
        self._boundaries = _boundary_values(model_bits)

    # -- public ------------------------------------------------------------------

    def check_pair(self, source: Term, target: Term) -> EquivalenceResult:
        """Is ``source == target`` for all variable assignments?"""
        with modeled_bits(self.model_bits):
            return self._check_pairs([(source, target)])

    def check_pairs(self, pairs: list[tuple[Term, Term]]) -> EquivalenceResult:
        """All pairs must be equivalent; the first refutation / inconclusive wins.

        Pairs are first filtered through normalization (cheap proofs), then a
        single batched random-refutation pass runs over the survivors before
        any of them is handed to the SAT stage.
        """
        with modeled_bits(self.model_bits):
            return self._check_pairs(pairs)

    def _check_pairs(self, pairs: list[tuple[Term, Term]]) -> EquivalenceResult:
        unproven = [(source, target) for source, target in pairs
                    if not terms_structurally_equal(source, target)]
        if not unproven:
            return EquivalenceResult(Verdict.EQUIVALENT, method="normalization")

        counterexample = self._batched_random_refute(unproven)
        if counterexample is not None:
            return EquivalenceResult(
                Verdict.NOT_EQUIVALENT, method="concrete", counterexample=counterexample
            )

        oversized: EquivalenceResult | None = None
        sat_pairs: list[tuple[Term, Term]] = []
        for source, target in sorted(unproven, key=lambda p: term_size(p[0]) + term_size(p[1])):
            total_nodes = term_size(source) + term_size(target)
            if total_nodes > self.budget.max_term_nodes:
                oversized = EquivalenceResult(
                    Verdict.INCONCLUSIVE, method="budget",
                    detail=f"term too large for the SAT stage ({total_nodes} nodes)",
                )
            else:
                sat_pairs.append((source, target))
        if oversized is None:
            return self._sat_check_batch(sat_pairs)
        if sat_pairs:
            batch = self._sat_check_batch(sat_pairs)
            if batch.outcome is Verdict.NOT_EQUIVALENT:
                return batch
            oversized.sat_stats = batch.sat_stats
        return oversized

    def _batched_random_refute(self, pairs: list[tuple[Term, Term]]) -> dict[str, int] | None:
        """The first sampled assignment on which some pair's sides differ, or None.

        Every sample is drawn first, in the order a per-sample loop draws
        them, and one :func:`evaluate_many` walk evaluates every side of
        every pair under all of them.
        """
        variables: set[str] = set()
        for source, target in pairs:
            variables |= collect_variables(source) | collect_variables(target)
        ordered = sorted(variables)
        rng = random.Random(self.seed)
        bits = self.model_bits
        assignments: list[dict[str, int]] = []
        for sample in range(self.budget.random_samples):
            assignment: dict[str, int] = {}
            for name in ordered:
                if sample < len(self._boundaries):
                    assignment[name] = to_unsigned(
                        self._boundaries[sample] + rng.randint(-2, 2), bits)
                elif sample % 3 == 0:
                    assignment[name] = to_unsigned(rng.randint(-10, 10), bits)
                else:
                    assignment[name] = rng.getrandbits(bits)
            assignments.append(assignment)
        sides = evaluate_many([side for pair in pairs for side in pair], assignments, bits)
        for assignment, row in zip(assignments, zip(*sides)):
            if row[0::2] != row[1::2]:
                return assignment
        return None

    # -- internals ------------------------------------------------------------------

    def _sat_check_batch(self, pairs: list[tuple[Term, Term]]) -> EquivalenceResult:
        """Solve every pair in one incremental solver; aggregate the verdicts.

        Each pair's difference clause is guarded by a fresh selector literal
        and solved under that assumption, so the bit-blasted gate structure
        and learned clauses are shared across the near-identical lane/unroll
        copies instead of rebuilt per pair; retiring the selector keeps
        earlier queries from constraining later ones.  Per-pair budgets are
        unchanged: every ``solve`` call gets the full conflict/propagation
        allowance as a fresh delta.

        The aggregated result is cached content-addressed on the ordered
        pair digests plus solver parameters (:mod:`repro.smt.solvecache`) —
        everything the computation depends on, so a hit is bit-identical to
        a fresh solve under any campaign scheduling.

        Within one batch, pairs that are alpha-equivalent — identical up to
        variable renaming, which is what the lane/unroll copies of one
        kernel are (``..._0`` vs ``..._15``) — are solved once: the verdict
        of the canonical representative transfers to every copy, with SAT
        models renamed back through each copy's own variable map before the
        full-width confirmation.
        """
        from repro.smt import solvecache

        budget = self.budget
        key = solvecache.query_key(pairs, budget.sat_bitwidth,
                                   budget.sat_conflict_budget,
                                   budget.sat_propagation_budget,
                                   model_bits=self.model_bits)
        record = solvecache.lookup(key)
        if record is not None:
            return self._result_from_record(record)

        solver = CDCLSolver(
            propagation_budget=budget.sat_propagation_budget,
            conflict_budget=budget.sat_conflict_budget,
        )
        blaster = BitBlaster(solver, bits=budget.sat_bitwidth, model_bits=self.model_bits)
        alpha_memo: dict[tuple[Term, Term], tuple[SATResult, dict[str, int] | None]] = {}
        worst: EquivalenceResult | None = None
        refutation: EquivalenceResult | None = None
        for source, target in pairs:
            try:
                canon_source, canon_target, var_map = _alpha_canonical_pair(source, target)
                memo_key = (canon_source, canon_target)
                cached = alpha_memo.get(memo_key)
                if cached is not None:
                    result, canon_assignment = cached
                    assignment = None
                    if canon_assignment is not None:
                        assignment = {name: canon_assignment[canon]
                                      for name, canon in var_map.items()
                                      if canon in canon_assignment}
                else:
                    left_bits = blaster.blast(source)
                    right_bits = blaster.blast(target)
                    difference = [blaster._xor_gate(a, b)
                                  for a, b in zip(left_bits, right_bits)]
                    selector = solver.new_var()
                    solver.add_clause([-selector] + difference)
                    result, model = solver.solve([selector])
                    solver.add_clause([-selector])  # retire this query's guard
                    assignment = None
                    if result is SATResult.SAT:
                        # SAT at reduced width: extract an assignment for the
                        # full-width confirmation below.
                        assignment = self._model_to_assignment(blaster, model)
                    canon_assignment = None
                    if assignment is not None:
                        canon_assignment = {canon: assignment[name]
                                            for name, canon in var_map.items()
                                            if name in assignment}
                    alpha_memo[memo_key] = (result, canon_assignment)
            except (UnsupportedTerm, RecursionError) as exc:
                if worst is None:
                    worst = EquivalenceResult(
                        Verdict.INCONCLUSIVE, method="bitblast", detail=str(exc)
                    )
                continue
            if result is SATResult.UNSAT:
                continue
            if result is SATResult.UNKNOWN:
                if worst is None:
                    worst = EquivalenceResult(
                        Verdict.INCONCLUSIVE, method="sat-budget",
                        detail="solver budget exhausted",
                    )
                continue
            with contextlib.suppress(KeyError):
                if assignment is not None and \
                        evaluate(source, assignment, self.model_bits) != \
                        evaluate(target, assignment, self.model_bits):
                    refutation = EquivalenceResult(
                        Verdict.NOT_EQUIVALENT, method="sat-model",
                        counterexample=assignment,
                    )
                    break
            if worst is None:
                worst = EquivalenceResult(
                    Verdict.INCONCLUSIVE,
                    method="sat-width-artifact",
                    detail="reduced-width counterexample did not reproduce at full width",
                )
        final = refutation or worst or EquivalenceResult(
            Verdict.EQUIVALENT,
            method=f"sat-unsat@{budget.sat_bitwidth}bit",
            detail="equivalent modulo bitwidth reduction",
        )
        final.sat_stats = solver.stats
        solvecache.stats.add_solver(solver.stats)
        solvecache.store(key, self._record_from_result(final))
        return final

    @staticmethod
    def _record_from_result(result: EquivalenceResult) -> dict:
        return {
            "outcome": result.outcome.value,
            "method": result.method,
            "counterexample": result.counterexample,
            "detail": result.detail,
            "stats": result.sat_stats.as_dict() if result.sat_stats else None,
        }

    @staticmethod
    def _result_from_record(record: dict) -> EquivalenceResult:
        stats = record.get("stats")
        return EquivalenceResult(
            Verdict(record["outcome"]),
            method=record.get("method", ""),
            counterexample=record.get("counterexample"),
            detail=record.get("detail", ""),
            sat_stats=SATStatistics(**stats) if stats else None,
        )

    def _model_to_assignment(self, blaster: BitBlaster, model: dict[int, bool]) -> dict[str, int]:
        assignment: dict[str, int] = {}
        for name, bits in blaster._var_bits.items():
            value = 0
            for position, literal in enumerate(bits):
                if model.get(abs(literal), False) == (literal > 0):
                    value |= 1 << position
            # Sign-extend the reduced-width value into the modeled width so
            # boundary behaviour (negative numbers) is preserved.
            if value & (1 << (blaster.bits - 1)):
                value |= ((1 << (self.model_bits - blaster.bits)) - 1) << blaster.bits
            assignment[name] = value
        return assignment
