"""Concrete refutation and term evaluation, pinned to reference implementations.

``EquivalenceChecker._batched_random_refute`` evaluates every unproven pair
on ``SolverBudget.random_samples`` seeded assignments before any of them
reaches the SAT stage.  Its answer is part of every verdict record: the
counterexample it returns, or ``None``.  The references below are the
per-sample loop and the single-assignment walk it was first written with
(one ``evaluate`` call per side, per pair, per sample).  However the
refuter evaluates its terms, it must return exactly what they return: the
assignment of the first sample, in sample order and then pair order, at
which a pair's two sides differ, with the same keys in the same order.

The pairs are seeded and cover what can tell two evaluation orders apart:
first differences at a boundary sample, at a small-value sample
(``sample % 3 == 0``) and at a ``getrandbits`` sample; a difference at the
last sample only, or at none; a later pair that differs at an earlier
sample than an earlier pair; subterms shared between sides and pairs;
division and remainder by zero, shift counts at or above the width,
``ite`` and poison.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

import pytest

from repro.smt.equiv import EquivalenceChecker
from repro.smt.terms import (
    _OPERATIONS, Term, TermKind, WORD_BITS, collect_variables, evaluate, to_unsigned,
)

BITS = [16, 32, 64]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def reference_evaluate(term: Term, assignment: Mapping[str, int], bits: int = WORD_BITS) -> int:
    """The single-assignment walk: operands left to right, memoized by node."""
    mask = (1 << bits) - 1
    values: dict[int, int] = {}
    stack = [term]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in values:
            stack.pop()
            continue
        args = node.args
        if args:
            pending = [arg for arg in args if id(arg) not in values]
            if pending:
                pending.reverse()
                stack += pending
                continue
            operation = _OPERATIONS.get(node.kind)
            if operation is None:
                raise ValueError(f"cannot evaluate term kind {node.kind}")
            values[key] = operation([values[id(arg)] for arg in args], mask, bits)
        elif node.kind is TermKind.CONST:
            values[key] = node.value & mask
        elif node.kind is TermKind.VAR:
            if node.name not in assignment:
                raise KeyError(f"unassigned variable {node.name!r}")
            values[key] = assignment[node.name] & mask
        elif node.kind is TermKind.POISON:
            values[key] = 0xDEAD & mask
        else:
            raise ValueError(f"cannot evaluate term kind {node.kind}")
        stack.pop()
    return values[id(term)]


def reference_refute(checker: EquivalenceChecker,
                     pairs: list[tuple[Term, Term]]) -> dict[str, int] | None:
    """The per-sample loop: draw one assignment, evaluate every pair on it."""
    variables: set[str] = set()
    for source, target in pairs:
        variables |= collect_variables(source) | collect_variables(target)
    ordered = sorted(variables)
    rng = random.Random(checker.seed)
    bits = checker.model_bits
    boundaries = checker._boundaries
    for sample in range(checker.budget.random_samples):
        assignment: dict[str, int] = {}
        for name in ordered:
            if sample < len(boundaries):
                assignment[name] = to_unsigned(boundaries[sample] + rng.randint(-2, 2), bits)
            elif sample % 3 == 0:
                assignment[name] = to_unsigned(rng.randint(-10, 10), bits)
            else:
                assignment[name] = rng.getrandbits(bits)
        for source, target in pairs:
            if reference_evaluate(source, assignment, bits) != \
                    reference_evaluate(target, assignment, bits):
                return assignment
    return None


def _drawn(checker: EquivalenceChecker, names: list[str]) -> list[dict[str, int]]:
    """Every sample's assignment over ``names``, drawn as the reference draws them."""
    rng = random.Random(checker.seed)
    bits = checker.model_bits
    boundaries = checker._boundaries
    ordered = sorted(names)
    assignments = []
    for sample in range(checker.budget.random_samples):
        if sample < len(boundaries):
            values = [to_unsigned(boundaries[sample] + rng.randint(-2, 2), bits) for _ in ordered]
        elif sample % 3 == 0:
            values = [to_unsigned(rng.randint(-10, 10), bits) for _ in ordered]
        else:
            values = [rng.getrandbits(bits) for _ in ordered]
        assignments.append(dict(zip(ordered, values)))
    return assignments


def _spike(names: list[str], assignment: dict[str, int]) -> tuple[Term, Term]:
    """A pair whose sides differ exactly where every name takes its value in ``assignment``."""
    base = _var(names[0])
    condition: Term = _const(1)
    for name in names:
        condition = _raw(TermKind.AND, condition,
                         _raw(TermKind.EQ, _var(name), _const(assignment[name])))
    return _raw(TermKind.ITE, condition, _raw(TermKind.ADD, base, _const(1)), base), base


# ---------------------------------------------------------------------------
# term construction
# ---------------------------------------------------------------------------


def _raw(kind: TermKind, *args: Term) -> Term:
    # Raw nodes: ``mk`` would fold and reorder, and fold through evaluate.
    return Term(kind, args)


def _var(name: str) -> Term:
    return Term(TermKind.VAR, name=name)


def _const(value: int) -> Term:
    return Term(TermKind.CONST, value=value)


NAMES = ["a", "b", "c", "d"]
UNARY = [TermKind.NEG, TermKind.NOT, TermKind.ABS]
BINARY = [TermKind.ADD, TermKind.SUB, TermKind.MUL, TermKind.AND, TermKind.OR,
          TermKind.XOR, TermKind.SHL, TermKind.LSHR, TermKind.ASHR, TermKind.DIV,
          TermKind.REM, TermKind.LT, TermKind.LE, TermKind.GT, TermKind.GE,
          TermKind.EQ, TermKind.NE, TermKind.MIN, TermKind.MAX]


def _pool(rng: random.Random, bits: int, size: int, names: list[str] = NAMES) -> list[Term]:
    """Random terms over ``names`` that share subterms with each other.

    The leaves include zero (a divisor), the width and more (shift counts)
    and poison; every operation kind the checker evaluates appears.
    """
    pool = [_var(name) for name in names]
    pool += [_const(value) for value in (0, 1, 3, bits, bits + 3, (1 << bits) - 1)]
    pool.append(Term(TermKind.POISON, name="poison"))
    while len(pool) < size:
        roll = rng.random()
        if roll < 0.1:
            kind = rng.choice(UNARY)
            pool.append(_raw(kind, rng.choice(pool)))
        elif roll < 0.25:
            pool.append(_raw(TermKind.ITE, rng.choice(pool), rng.choice(pool), rng.choice(pool)))
        else:
            pool.append(_raw(rng.choice(BINARY), rng.choice(pool), rng.choice(pool)))
    return pool


def _check(checker: EquivalenceChecker, pairs: list[tuple[Term, Term]]) -> dict[str, int] | None:
    """The refuter's answer, asserted equal to the reference's, key order included."""
    expected = reference_refute(checker, pairs)
    actual = checker._batched_random_refute(pairs)
    assert actual == expected
    if expected is not None:
        assert list(actual.items()) == list(expected.items())
    return actual


# ---------------------------------------------------------------------------
# the refuter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("seed", range(12))
def test_random_pairs_match_the_reference(bits, seed):
    rng = random.Random(seed * 1000 + bits)
    pool = _pool(rng, bits, 60)
    compound = pool[len(NAMES) + 7:]
    pairs = []
    for _ in range(rng.randint(1, 6)):
        source = rng.choice(compound)
        roll = rng.random()
        if roll < 0.4:
            target = rng.choice(compound)
        elif roll < 0.7:
            # The same side rebuilt apart: equal, never identical.
            target = _raw(source.kind, *source.args) if source.args else source
        else:
            target = _raw(TermKind.XOR, source, _raw(TermKind.AND, rng.choice(compound),
                                                     _const(1 << rng.randrange(bits))))
        pairs.append((source, target))
    _check(EquivalenceChecker(model_bits=bits, seed=seed), pairs)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("sample", [0, 3, 8, 9, 10, 12, 20, 45, 47],
                         ids=lambda sample: f"sample{sample}")
def test_first_difference_at_each_kind_of_sample(bits, sample):
    # Boundary samples (< 9), small-value samples (sample % 3 == 0) and
    # getrandbits samples, behind a pair that never differs.
    checker = EquivalenceChecker(model_bits=bits)
    drawn = _drawn(checker, NAMES)
    rng = random.Random(bits)
    pool = _pool(rng, bits, 30)
    spike = _spike(NAMES, drawn[sample])
    same = (pool[-1], _raw(pool[-1].kind, *pool[-1].args))
    assert _check(checker, [same, spike]) == drawn[sample]


@pytest.mark.parametrize("bits", BITS)
def test_no_pair_differs(bits):
    x, y = _var("a"), _var("b")
    pairs = [
        (_raw(TermKind.AND, x, y),
         _raw(TermKind.NOT, _raw(TermKind.OR, _raw(TermKind.NOT, x), _raw(TermKind.NOT, y)))),
        (_raw(TermKind.MAX, x, y), _raw(TermKind.ITE, _raw(TermKind.LT, y, x), x, y)),
        (_raw(TermKind.SUB, x, y), _raw(TermKind.ADD, x, _raw(TermKind.NEG, y))),
    ]
    assert _check(EquivalenceChecker(model_bits=bits), pairs) is None


@pytest.mark.parametrize("bits", BITS)
def test_a_later_pair_that_differs_earlier_decides(bits):
    checker = EquivalenceChecker(model_bits=bits)
    drawn = _drawn(checker, NAMES)
    late = _spike(NAMES, drawn[30])
    early = _spike(NAMES, drawn[5])
    last = _spike(NAMES, drawn[47])
    assert _check(checker, [late, early]) == drawn[5]
    assert _check(checker, [last, late]) == drawn[30]
    assert _check(checker, [last]) == drawn[47]


@pytest.mark.parametrize("bits", BITS)
def test_pairs_that_share_subterms(bits):
    # Lane copies of one shape over shared leaves: the sides of a pair and
    # the pairs themselves share most of their nodes.
    rng = random.Random(bits + 1)
    shared = _pool(rng, bits, 40)[-12:]
    pairs = []
    for lane, node in enumerate(shared):
        other = shared[(lane + 1) % len(shared)]
        pairs.append((_raw(TermKind.ADD, node, other), _raw(TermKind.ADD, other, node)))
        pairs.append((_raw(TermKind.MUL, node, other), _raw(TermKind.XOR, node, other)))
    _check(EquivalenceChecker(model_bits=bits), pairs)
    _check(EquivalenceChecker(model_bits=bits), pairs[::2])


@pytest.mark.parametrize("bits", BITS)
def test_division_by_zero_shifts_ite_and_poison(bits):
    x, y = _var("a"), _var("b")
    zero = _const(0)
    poison = Term(TermKind.POISON, name="ub")
    cases = [
        [(_raw(TermKind.DIV, x, zero), zero)],
        [(_raw(TermKind.REM, x, zero), zero)],
        [(_raw(TermKind.DIV, x, y), _raw(TermKind.DIV, y, x))],
        [(_raw(TermKind.REM, x, y), _raw(TermKind.REM, x, _raw(TermKind.AND, y, _const(7))))],
        [(_raw(TermKind.SHL, x, _const(bits)), x)],
        [(_raw(TermKind.LSHR, x, _const(bits + 3)), _raw(TermKind.LSHR, x, _const(3)))],
        [(_raw(TermKind.ASHR, x, y), _raw(TermKind.ASHR, x, _raw(TermKind.AND, y, _const(bits - 1))))],
        [(_raw(TermKind.ITE, _raw(TermKind.LT, x, y), poison, x), x)],
        [(_raw(TermKind.ITE, _raw(TermKind.EQ, x, x), x, poison), x)],
        [(poison, _const(0xDEAD))],
    ]
    for pairs in cases:
        _check(EquivalenceChecker(model_bits=bits), pairs)
    # Division and remainder by zero evaluate to 0 on every sample.
    assert _check(EquivalenceChecker(model_bits=bits), cases[0] + cases[1]) is None


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _outcome(function, *args):
    try:
        return ("value", function(*args))
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("seed", range(6))
def test_evaluate_matches_the_reference_walk(bits, seed):
    rng = random.Random(seed * 100 + bits)
    # ``u`` is never assigned, and a VAR or CONST node with operands has
    # no operation: the first one the walk meets decides the error.
    pool = _pool(rng, bits, 50, names=NAMES + ["u"])
    pool += [Term(TermKind.VAR, (rng.choice(pool),), name="bad"),
             Term(TermKind.CONST, (rng.choice(pool),), value=1),
             Term(TermKind.ADD)]
    pool += [_raw(TermKind.ADD, rng.choice(pool), rng.choice(pool)) for _ in range(20)]
    outcomes = set()
    for term in pool:
        for _ in range(3):
            assignment = {name: rng.getrandbits(bits + 2) for name in NAMES}
            expected = _outcome(reference_evaluate, term, assignment, bits)
            assert _outcome(evaluate, term, assignment, bits) == expected
            outcomes.add(expected[0])
    assert outcomes == {"value", "KeyError", "ValueError"}
