"""Bit-blasting of bitvector terms to CNF.

Terms are translated at a configurable (usually reduced) bitwidth into CNF
over a :class:`~repro.smt.sat.CDCLSolver` via the standard Tseitin-style
encodings: ripple-carry adders, shift-and-add multipliers, comparator chains
and multiplexers for ``ite``.  Reduced-width verification is the documented
soundness trade of this reproduction (:mod:`repro.smt.equiv`): a proof at
width ``w`` is reported as "equivalent modulo bitwidth reduction".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.smt.sat import CDCLSolver
from repro.smt.terms import Term, TermKind


@dataclass
class BitBlaster:
    """Translates terms into CNF over a shared solver instance.

    Tseitin gates are structurally hashed: two requests for the same
    (operation, input literals) yield one output variable, and gates fold
    to existing literals when an input is the constant true/false literal
    or the inputs coincide (``a AND a``, ``a XOR -a``, ...).  On the
    near-identical unroll copies of one kernel this collapses most of the
    circuit into shared structure instead of fresh clauses per copy.
    """

    solver: CDCLSolver
    bits: int = 8
    _term_bits: dict[int, list[int]] = field(default_factory=dict)
    _var_bits: dict[str, list[int]] = field(default_factory=dict)
    _gate_cache: dict[tuple, int] = field(default_factory=dict)
    _true_literal: int | None = None

    # -- plumbing -------------------------------------------------------------------

    def true_literal(self) -> int:
        if self._true_literal is None:
            literal = self.solver.new_var()
            self.solver.add_clause([literal])
            self._true_literal = literal
        return self._true_literal

    def false_literal(self) -> int:
        return -self.true_literal()

    def _const_bits(self, value: int) -> list[int]:
        bits = []
        for position in range(self.bits):
            bit = (value >> position) & 1
            bits.append(self.true_literal() if bit else self.false_literal())
        return bits

    def variable_bits(self, name: str) -> list[int]:
        if name not in self._var_bits:
            self._var_bits[name] = [self.solver.new_var() for _ in range(self.bits)]
        return self._var_bits[name]

    # -- gate encodings ---------------------------------------------------------------

    def _and_gate(self, a: int, b: int) -> int:
        true = self.true_literal()
        if a == -true or b == -true or a == -b:
            return -true
        if a == true or a == b:
            return b
        if b == true:
            return a
        key = ("and", a, b) if a < b else ("and", b, a)
        out = self._gate_cache.get(key)
        if out is None:
            out = self.solver.new_var()
            self.solver.add_clause([-a, -b, out])
            self.solver.add_clause([a, -out])
            self.solver.add_clause([b, -out])
            self._gate_cache[key] = out
        return out

    def _or_gate(self, a: int, b: int) -> int:
        true = self.true_literal()
        if a == true or b == true or a == -b:
            return true
        if a == -true or a == b:
            return b
        if b == -true:
            return a
        key = ("or", a, b) if a < b else ("or", b, a)
        out = self._gate_cache.get(key)
        if out is None:
            out = self.solver.new_var()
            self.solver.add_clause([a, b, -out])
            self.solver.add_clause([-a, out])
            self.solver.add_clause([-b, out])
            self._gate_cache[key] = out
        return out

    def _xor_gate(self, a: int, b: int) -> int:
        true = self.true_literal()
        if a == true:
            return -b
        if a == -true:
            return b
        if b == true:
            return -a
        if b == -true:
            return a
        if a == b:
            return -true
        if a == -b:
            return true
        # XOR is symmetric under joint negation: encode the gate on the
        # positive variables once and re-apply the sign on the way out.
        negate = (a < 0) != (b < 0)
        a, b = abs(a), abs(b)
        key = ("xor", a, b) if a < b else ("xor", b, a)
        out = self._gate_cache.get(key)
        if out is None:
            out = self.solver.new_var()
            self.solver.add_clause([-a, -b, -out])
            self.solver.add_clause([a, b, -out])
            self.solver.add_clause([-a, b, out])
            self.solver.add_clause([a, -b, out])
            self._gate_cache[key] = out
        return -out if negate else out

    def _mux_gate(self, select: int, then: int, otherwise: int) -> int:
        true = self.true_literal()
        if select == true:
            return then
        if select == -true:
            return otherwise
        if then == otherwise:
            return then
        if then == -otherwise:
            # mux(s, NOT o, o): true when exactly one of s, o holds.
            return self._xor_gate(select, otherwise)
        if select < 0:
            select, then, otherwise = -select, otherwise, then
        key = ("mux", select, then, otherwise)
        out = self._gate_cache.get(key)
        if out is None:
            out = self.solver.new_var()
            self.solver.add_clause([-select, -then, out])
            self.solver.add_clause([-select, then, -out])
            self.solver.add_clause([select, -otherwise, out])
            self.solver.add_clause([select, otherwise, -out])
            self._gate_cache[key] = out
        return out

    def _full_adder(self, a: int, b: int, carry_in: int) -> tuple[int, int]:
        sum_bit = self._xor_gate(self._xor_gate(a, b), carry_in)
        carry_out = self._or_gate(
            self._and_gate(a, b), self._and_gate(carry_in, self._xor_gate(a, b))
        )
        return sum_bit, carry_out

    # -- word-level encodings ------------------------------------------------------------

    def _add_words(self, a: list[int], b: list[int]) -> list[int]:
        carry = self.false_literal()
        out = []
        for bit_a, bit_b in zip(a, b):
            sum_bit, carry = self._full_adder(bit_a, bit_b, carry)
            out.append(sum_bit)
        return out

    def _negate_word(self, a: list[int]) -> list[int]:
        inverted = [-bit for bit in a]
        one = self._const_bits(1)
        return self._add_words(inverted, one)

    def _mul_words(self, a: list[int], b: list[int]) -> list[int]:
        # Prefer the operand with more constant bits as the multiplier: a
        # constant control skips the row (zero bit) or adds the shifted
        # word ungated (one bit), so constant-by-symbolic multiplies cost
        # popcount-many adders and no AND gates.
        true = self.true_literal()

        def constant_bits(word: list[int]) -> int:
            return sum(1 for bit in word if bit == true or bit == -true)

        if constant_bits(a) > constant_bits(b):
            a, b = b, a
        false = -true
        accumulator = self._const_bits(0)
        for shift, control in enumerate(b):
            if control == false:
                continue
            shifted = [false] * shift + a[: self.bits - shift]
            if control != true:
                shifted = [self._and_gate(control, bit) for bit in shifted]
            accumulator = self._add_words(accumulator, shifted)
        return accumulator

    def _less_than_signed(self, a: list[int], b: list[int]) -> int:
        """a < b (two's complement): compare after flipping the sign bits."""
        a_adjusted = a[:-1] + [-a[-1]]
        b_adjusted = b[:-1] + [-b[-1]]
        return self._less_than_unsigned(a_adjusted, b_adjusted)

    def _less_than_unsigned(self, a: list[int], b: list[int]) -> int:
        result = self.false_literal()
        for bit_a, bit_b in zip(a, b):  # LSB to MSB
            lt_here = self._and_gate(-bit_a, bit_b)
            eq_here = -self._xor_gate(bit_a, bit_b)
            result = self._or_gate(lt_here, self._and_gate(eq_here, result))
        return result

    def _equal_words(self, a: list[int], b: list[int]) -> int:
        result = self.true_literal()
        for bit_a, bit_b in zip(a, b):
            result = self._and_gate(result, -self._xor_gate(bit_a, bit_b))
        return result

    def _bool_to_word(self, literal: int) -> list[int]:
        return [literal] + [self.false_literal()] * (self.bits - 1)

    def _word_is_nonzero(self, word: list[int]) -> int:
        result = self.false_literal()
        for bit in word:
            result = self._or_gate(result, bit)
        return result

    def _mux_words(self, select: int, then: list[int], otherwise: list[int]) -> list[int]:
        return [self._mux_gate(select, t, o) for t, o in zip(then, otherwise)]

    # -- the main translation --------------------------------------------------------------

    def blast(self, term: Term) -> list[int]:
        """Return the list of literals (LSB first) representing ``term``."""
        cached = self._term_bits.get(id(term))
        if cached is not None:
            return cached
        bits = self._blast_node(term)
        self._term_bits[id(term)] = bits
        return bits

    def _blast_node(self, term: Term) -> list[int]:
        kind = term.kind
        if kind is TermKind.CONST:
            return self._const_bits(term.value & ((1 << self.bits) - 1))
        if kind is TermKind.VAR:
            return self.variable_bits(term.name)
        if kind is TermKind.POISON:
            # Poison is modelled as a fresh unconstrained word: refinement
            # checks treat any difference produced by it as a refutation.
            return [self.solver.new_var() for _ in range(self.bits)]
        args = [self.blast(a) for a in term.args]
        if kind is TermKind.ADD:
            return self._add_words(args[0], args[1])
        if kind is TermKind.SUB:
            return self._add_words(args[0], self._negate_word(args[1]))
        if kind is TermKind.NEG:
            return self._negate_word(args[0])
        if kind is TermKind.MUL:
            return self._mul_words(args[0], args[1])
        if kind is TermKind.AND:
            return [self._and_gate(a, b) for a, b in zip(args[0], args[1])]
        if kind is TermKind.OR:
            return [self._or_gate(a, b) for a, b in zip(args[0], args[1])]
        if kind is TermKind.XOR:
            return [self._xor_gate(a, b) for a, b in zip(args[0], args[1])]
        if kind is TermKind.NOT:
            return [-bit for bit in args[0]]
        if kind is TermKind.ITE:
            select = self._word_is_nonzero(args[0])
            return self._mux_words(select, args[1], args[2])
        if kind is TermKind.LT:
            return self._bool_to_word(self._less_than_signed(args[0], args[1]))
        if kind is TermKind.GT:
            return self._bool_to_word(self._less_than_signed(args[1], args[0]))
        if kind is TermKind.LE:
            return self._bool_to_word(-self._less_than_signed(args[1], args[0]))
        if kind is TermKind.GE:
            return self._bool_to_word(-self._less_than_signed(args[0], args[1]))
        if kind is TermKind.EQ:
            return self._bool_to_word(self._equal_words(args[0], args[1]))
        if kind is TermKind.NE:
            return self._bool_to_word(-self._equal_words(args[0], args[1]))
        if kind is TermKind.MIN:
            select = self._less_than_signed(args[0], args[1])
            return self._mux_words(select, args[0], args[1])
        if kind is TermKind.MAX:
            select = self._less_than_signed(args[1], args[0])
            return self._mux_words(select, args[0], args[1])
        if kind is TermKind.ABS:
            negative = args[0][-1]
            return self._mux_words(negative, self._negate_word(args[0]), args[0])
        if kind in (TermKind.SHL, TermKind.LSHR, TermKind.ASHR):
            return self._blast_shift(kind, term, args)
        if kind in (TermKind.DIV, TermKind.REM):
            raise UnsupportedTerm(f"bit-blasting of {kind.value} is not supported")
        raise UnsupportedTerm(f"unsupported term kind {kind.value}")

    def _blast_shift(self, kind: TermKind, term: Term, args: list[list[int]]) -> list[int]:
        amount_term = term.args[1]
        if amount_term.kind is not TermKind.CONST:
            raise UnsupportedTerm("only constant shift amounts are supported")
        amount = amount_term.value % self.bits
        word = args[0]
        if kind is TermKind.SHL:
            return [self.false_literal()] * amount + word[: self.bits - amount]
        if kind is TermKind.LSHR:
            return word[amount:] + [self.false_literal()] * amount
        return word[amount:] + [word[-1]] * amount  # ASHR


class UnsupportedTerm(Exception):
    """Raised when a term cannot be bit-blasted (reported as Inconclusive)."""


def assert_words_differ(blaster: BitBlaster, left: list[int], right: list[int]) -> None:
    """Add clauses asserting that the two words differ in at least one bit."""
    difference_bits = [blaster._xor_gate(a, b) for a, b in zip(left, right)]
    blaster.solver.add_clause(difference_bits)
