"""Tests for the SMT substrate: terms, the SAT solver, bit-blasting and equivalence."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.bitblast import BitBlaster, assert_words_differ
from repro.smt.equiv import (
    EquivalenceChecker,
    SolverBudget,
    normalize_term,
    terms_structurally_equal,
)
from repro.smt.sat import CDCLSolver, SATResult
from repro.smt.terms import (
    Term, TermKind, bv_const, bv_var, evaluate, evaluate_many, mk, poison, to_signed,
)
from repro.verdict import Verdict


class TestTerms:
    def test_constant_folding(self):
        assert mk(TermKind.ADD, bv_const(2), bv_const(3)) == bv_const(5)
        assert mk(TermKind.MUL, bv_const(1 << 20), bv_const(1 << 20)) == bv_const((1 << 40) % (1 << 32))

    def test_identity_simplifications(self):
        x = bv_var("x")
        assert mk(TermKind.ADD, x, bv_const(0)) is x
        assert mk(TermKind.MUL, x, bv_const(1)) is x
        assert mk(TermKind.SUB, x, x) == bv_const(0)

    def test_comparisons_canonicalized_to_lt_le(self):
        a, b = bv_var("a"), bv_var("b")
        assert mk(TermKind.GT, a, b).kind is TermKind.LT
        assert mk(TermKind.GE, a, b).kind is TermKind.LE

    def test_mask_algebra_folds_blend_conditions(self):
        a, b = bv_var("a"), bv_var("b")
        mask = mk(TermKind.ITE, mk(TermKind.GT, a, b), bv_const(-1), bv_const(0))
        cond = mk(TermKind.NE, mask, bv_const(0))
        assert cond.kind is TermKind.LT  # gt(a,b) canonicalized to lt(b,a)

    def test_division_is_exact_at_64_bits(self):
        # ``int(a / b)`` through a float gives 2**62 and 257 here.
        x, y = bv_var("x"), bv_var("y")
        big, mask = 2**62 + 1, 2**64 - 1

        def run(kind, a, b):
            return to_signed(evaluate(mk(kind, x, y), {"x": a & mask, "y": b & mask}, bits=64), 64)

        assert run(TermKind.DIV, big, 1) == big
        assert run(TermKind.REM, big, 3) == 2
        assert run(TermKind.DIV, -big, 3) == -(big // 3)
        assert run(TermKind.REM, -big, 3) == -2
        assert run(TermKind.REM, big, -7) == big % 7

    def test_minmax_recognition(self):
        a, b = bv_var("a"), bv_var("b")
        selected = mk(TermKind.ITE, mk(TermKind.GT, a, b), a, b)
        assert selected.kind is TermKind.MAX

    def test_evaluate_signed_semantics(self):
        a = bv_var("a")
        expr = mk(TermKind.LT, a, bv_const(0))
        assert evaluate(expr, {"a": (1 << 32) - 5}) == 1  # -5 < 0
        assert evaluate(expr, {"a": 5}) == 0

    def test_evaluate_division_truncates_toward_zero(self):
        a, b = bv_var("a"), bv_var("b")
        expr = mk(TermKind.DIV, a, b)
        assert to_signed(evaluate(expr, {"a": (1 << 32) - 7, "b": 2})) == -3

    @given(st.integers(-2**31, 2**31 - 1), st.integers(-2**31, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_matches_python_wraparound_arithmetic(self, x, y):
        a, b = bv_var("a"), bv_var("b")
        assignment = {"a": x & 0xFFFFFFFF, "b": y & 0xFFFFFFFF}
        add = evaluate(mk(TermKind.ADD, a, b), assignment)
        assert to_signed(add) == to_signed((x + y) & 0xFFFFFFFF)
        mul = evaluate(mk(TermKind.MUL, a, b), assignment)
        assert to_signed(mul) == to_signed((x * y) & 0xFFFFFFFF)

    def test_evaluate_many_is_evaluate_at_each_term_and_assignment(self):
        a, b = bv_var("a"), bv_var("b")
        shared = mk(TermKind.MUL, a, mk(TermKind.SUB, b, bv_const(3)))
        terms = [shared, mk(TermKind.ADD, shared, a), mk(TermKind.DIV, b, shared),
                 mk(TermKind.ITE, mk(TermKind.LT, a, b), shared, poison()), bv_const(-1)]
        assignments = [{"a": a_value, "b": b_value}
                       for a_value in (0, 1, 7, 2**31, 2**32 - 1) for b_value in (0, 3, 2**32 - 2)]
        for bits in (16, 32):
            values = evaluate_many(terms, assignments, bits)
            assert values == [[evaluate(term, assignment, bits) for assignment in assignments]
                              for term in terms]
        assert evaluate_many(terms, [], 32) == [[] for _ in terms]
        with pytest.raises(KeyError, match="unassigned variable 'b'"):
            evaluate_many(terms, assignments + [{"a": 1}])


class TestNormalization:
    def test_commutativity_and_distributivity(self):
        a, b, c = bv_var("a"), bv_var("b"), bv_var("c")
        left = mk(TermKind.MUL, mk(TermKind.ADD, a, b), c)
        right = mk(TermKind.ADD, mk(TermKind.MUL, c, b), mk(TermKind.MUL, a, c))
        assert terms_structurally_equal(left, right)

    def test_conditional_accumulation_forms_coincide(self):
        s, x = bv_var("s"), bv_var("x")
        cond = mk(TermKind.GT, x, bv_const(0))
        scalar = mk(TermKind.ITE, cond, mk(TermKind.ADD, s, x), s)
        vector = mk(TermKind.ADD, s, mk(TermKind.ITE, cond, x, bv_const(0)))
        assert terms_structurally_equal(scalar, vector)

    def test_max_chains_flatten_and_dedupe(self):
        a, b, c = bv_var("a"), bv_var("b"), bv_var("c")
        left = mk(TermKind.MAX, mk(TermKind.MAX, a, b), mk(TermKind.MAX, c, a))
        right = mk(TermKind.MAX, c, mk(TermKind.MAX, b, a))
        assert normalize_term(left) == normalize_term(right)

    def test_inequivalent_terms_do_not_normalize_equal(self):
        a, b = bv_var("a"), bv_var("b")
        assert not terms_structurally_equal(mk(TermKind.ADD, a, b), mk(TermKind.SUB, a, b))

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_sum_reassociation_is_always_proved(self, values):
        variables = [bv_var(f"v{i}") for i in range(len(values))]
        left = variables[0]
        for v in variables[1:]:
            left = mk(TermKind.ADD, left, v)
        right = variables[-1]
        for v in reversed(variables[:-1]):
            right = mk(TermKind.ADD, right, v)
        assert terms_structurally_equal(left, right)


class TestSATSolver:
    def test_simple_sat(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        result, model = solver.solve()
        assert result is SATResult.SAT
        assert model[2] is True

    def test_simple_unsat(self):
        solver = CDCLSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve()[0] is SATResult.UNSAT

    def test_requires_conflict_analysis(self):
        # (x1 or x2) & (x1 or -x2) & (-x1 or x3) & (-x1 or -x3) is UNSAT.
        solver = CDCLSolver()
        for clause in ([1, 2], [1, -2], [-1, 3], [-1, -3]):
            solver.add_clause(list(clause))
        assert solver.solve()[0] is SATResult.UNSAT

    def test_pigeonhole_3_into_2_is_unsat(self):
        # Variables p[i][j]: pigeon i in hole j (i in 0..2, j in 0..1).
        solver = CDCLSolver()
        def var(i, j):
            return i * 2 + j + 1
        for i in range(3):
            solver.add_clause([var(i, 0), var(i, 1)])
        for j in range(2):
            for i in range(3):
                for k in range(i + 1, 3):
                    solver.add_clause([-var(i, j), -var(k, j)])
        assert solver.solve()[0] is SATResult.UNSAT

    def test_model_satisfies_all_clauses(self):
        solver = CDCLSolver()
        clauses = [[1, -2, 3], [-1, 2], [2, 3], [-3, -1, 2]]
        for clause in clauses:
            solver.add_clause(list(clause))
        result, model = solver.solve()
        assert result is SATResult.SAT
        for clause in clauses:
            assert any((lit > 0) == model.get(abs(lit), False) for lit in clause)


class TestBitBlastAndEquivalence:
    def test_blasted_equal_expressions_are_unsat(self):
        solver = CDCLSolver()
        blaster = BitBlaster(solver, bits=5)
        a, b = bv_var("a"), bv_var("b")
        left = blaster.blast(mk(TermKind.ADD, a, b))
        right = blaster.blast(mk(TermKind.ADD, b, a))
        assert_words_differ(blaster, left, right)
        assert solver.solve()[0] is SATResult.UNSAT

    def test_checker_proves_ite_max_equivalence(self):
        a, b = bv_var("a"), bv_var("b")
        checker = EquivalenceChecker(SolverBudget(sat_bitwidth=5))
        left = mk(TermKind.ITE, mk(TermKind.GT, a, b), a, b)
        right = mk(TermKind.MAX, a, b)
        assert checker.check_pair(left, right).outcome is Verdict.EQUIVALENT

    def test_checker_refutes_with_counterexample(self):
        a, b = bv_var("a"), bv_var("b")
        checker = EquivalenceChecker()
        result = checker.check_pair(mk(TermKind.ADD, a, b), mk(TermKind.ADD, a, a))
        assert result.outcome is Verdict.NOT_EQUIVALENT
        assignment = result.counterexample
        assert evaluate(mk(TermKind.ADD, a, b), assignment) != evaluate(mk(TermKind.ADD, a, a), assignment)

    def test_budget_exhaustion_is_inconclusive(self):
        a = bv_var("a")
        big = a
        for i in range(40):
            big = mk(TermKind.MUL, big, mk(TermKind.ADD, a, bv_const(i + 1)))
        other = mk(TermKind.XOR, big, bv_const(1))
        checker = EquivalenceChecker(SolverBudget(max_term_nodes=10, random_samples=2))
        result = checker.check_pair(big, other)
        assert result.outcome in (Verdict.INCONCLUSIVE, Verdict.NOT_EQUIVALENT)

    def test_check_pairs_all_equal(self):
        a, b = bv_var("a"), bv_var("b")
        checker = EquivalenceChecker()
        pairs = [(mk(TermKind.ADD, a, b), mk(TermKind.ADD, b, a)),
                 (mk(TermKind.MUL, a, b), mk(TermKind.MUL, b, a))]
        assert checker.check_pairs(pairs).outcome is Verdict.EQUIVALENT

    @pytest.mark.parametrize("kind", [TermKind.SHL, TermKind.LSHR, TermKind.ASHR],
                             ids=lambda kind: kind.value)
    def test_shift_past_the_blasting_width_shifts_every_bit_out(self, kind):
        # At 32 modeled bits, ``x << 8`` blasted at 6 bits is 0, not ``x << 2``.
        solver = CDCLSolver()
        blaster = BitBlaster(solver, bits=6)
        x = bv_var("x")
        word = blaster.blast(mk(kind, x, bv_const(8)))
        x_bits = blaster.variable_bits("x")
        if kind is TermKind.ASHR:
            assert word == [x_bits[-1]] * 6
        else:
            assert word == [blaster.false_literal()] * 6

    def test_shift_amount_is_reduced_modulo_the_modeled_width(self):
        solver = CDCLSolver()
        blaster = BitBlaster(solver, bits=6, model_bits=32)
        x = bv_var("x")
        x_bits = blaster.variable_bits("x")
        # 34 mod 32 = 2; mod the blasting width it would be 4.
        word = blaster.blast(mk(TermKind.SHL, x, bv_const(34)))
        assert word == [blaster.false_literal()] * 2 + x_bits[:4]

    def test_reduced_width_shift_does_not_prove_a_false_equivalence(self):
        # The sides differ only at x = 12345 (3,160,320 against 49,380); a
        # 6-bit blast that read ``<< 8`` as ``<< 2`` proved them EQUIVALENT.
        x = bv_var("x")
        guard = mk(TermKind.EQ, x, bv_const(12345))
        left = mk(TermKind.ITE, guard, mk(TermKind.SHL, x, bv_const(8)), bv_const(0))
        right = mk(TermKind.ITE, guard, mk(TermKind.SHL, x, bv_const(2)), bv_const(0))
        assert evaluate(left, {"x": 12345}) == 3_160_320
        assert evaluate(right, {"x": 12345}) == 49_380
        result = EquivalenceChecker().check_pair(left, right)
        assert result.outcome is not Verdict.EQUIVALENT, result
        shifted = EquivalenceChecker().check_pair(mk(TermKind.SHL, x, bv_const(3)),
                                                  mk(TermKind.MUL, x, bv_const(8)))
        assert shifted.outcome is Verdict.EQUIVALENT


def _chain(kind: TermKind, depth: int, interned: bool = True):
    """A chain of ``depth`` nested ``kind`` nodes over eight shared leaves.

    ``interned=False`` builds raw ``Term(...)`` nodes, which ``mk`` does not
    hash-cons, so two such chains are equal but not identical.
    """
    def build(*args):
        return mk(kind, *args) if interned else Term(kind, args)

    x = bv_var("x")
    leaves = [bv_var(f"y{i}") for i in range(7)]
    conditions = [mk(TermKind.LT, leaf, x) for leaf in leaves]
    term = x
    for level in range(depth):
        if kind is TermKind.ITE:
            term = build(conditions[level % 7], term, leaves[level % 7])
        else:
            term = build(term, leaves[level % 7])
    return term


class TestDeepTerms:
    """A deep term is decided, never a ``RecursionError`` out of the checker."""

    CHAIN_KINDS = [TermKind.XOR, TermKind.ADD, TermKind.MUL, TermKind.SUB, TermKind.ITE]

    @pytest.mark.parametrize("kind", CHAIN_KINDS, ids=lambda kind: kind.value)
    def test_depth_400_chain_is_refuted_concretely(self, kind):
        chain = _chain(kind, 400)
        result = EquivalenceChecker().check_pair(chain, mk(TermKind.ADD, chain, bv_const(1)))
        assert result.outcome is Verdict.NOT_EQUIVALENT
        assert result.method == "concrete"

    @pytest.mark.parametrize("kind", [TermKind.ADD, TermKind.ITE], ids=lambda kind: kind.value)
    def test_depth_2000_chain_gets_a_verdict(self, kind):
        chain = _chain(kind, 2000)
        result = EquivalenceChecker().check_pairs(
            [(chain, mk(TermKind.ADD, chain, bv_const(1)))])
        assert result.outcome is Verdict.NOT_EQUIVALENT
        assert result.method == "concrete"

    def test_equal_chains_built_apart_are_equivalent(self):
        left = _chain(TermKind.ADD, 2000, interned=False)
        right = _chain(TermKind.ADD, 2000, interned=False)
        assert left is not right and left == right
        result = EquivalenceChecker().check_pairs([(left, right)])
        assert result.outcome is Verdict.EQUIVALENT

    def test_evaluate_walks_a_chain_deeper_than_the_recursion_limit(self):
        chain = _chain(TermKind.ADD, 5000)
        assignment = {"x": 1, **{f"y{i}": i for i in range(7)}}
        assert evaluate(chain, assignment) == 1 + sum(level % 7 for level in range(5000))
