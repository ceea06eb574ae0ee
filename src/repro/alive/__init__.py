"""Bounded translation validation (the Alive2 substitute).

The verifier symbolically executes the scalar and vectorized functions with a
concrete, vector-width-aligned trip count (the bounded-unrolling assumption
of the paper, Section 3.1), symbolic array contents, and disjoint memory
regions per pointer parameter (the non-aliasing assumption), then checks
refinement: the vectorized program must not introduce undefined behaviour and
must leave every array cell equal to the scalar program's result.
"""

from repro.alive.symexec import SymbolicExecutionError, SymbolicExecutor, SymbolicState, execute_symbolically
from repro.alive.verifier import AliveVerifier

__all__ = [
    "SymbolicExecutionError",
    "SymbolicExecutor",
    "SymbolicState",
    "execute_symbolically",
    "AliveVerifier",
]
