"""SMT substrate: bitvector terms, a CDCL SAT solver, bit-blasting and equivalence checking.

This package stands in for Z3 in the paper's pipeline.  Equivalence queries
produced by the translation validator are discharged in three stages:

1. algebraic normalization — wraparound integer arithmetic forms a commutative
   ring, so pure add/sub/mul expressions are compared via a canonical
   polynomial form (sound and complete for that fragment);
2. randomized concrete evaluation — a cheap refutation engine that produces
   genuine counterexamples;
3. bit-blasting to CNF at a reduced bitwidth solved with a CDCL SAT solver —
   sound "modulo bitwidth reduction", with a resource budget whose exhaustion
   is reported as inconclusive (mirroring Alive2/Z3 timeouts).
"""

from repro.smt.terms import Term, TermKind, bv_const, bv_var, evaluate, term_digest
from repro.smt.equiv import EquivalenceChecker, EquivalenceResult, SolverBudget
from repro.smt.sat import CDCLSolver, SATResult, SATStatistics

__all__ = [
    "Term",
    "TermKind",
    "bv_const",
    "bv_var",
    "evaluate",
    "term_digest",
    "EquivalenceChecker",
    "EquivalenceResult",
    "SolverBudget",
    "CDCLSolver",
    "SATResult",
    "SATStatistics",
]
