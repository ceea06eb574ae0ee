"""Rule-based source-to-source AVX2 vectorizer.

This is the "capability core" behind the synthetic LLM: given a scalar TSVC
kernel it plans a vectorization strategy (plain, if-converted, reduction,
induction) and emits C code using AVX2 intrinsics, including the epilogue
scalar loop.  The planner's rejection reasons correspond to the failure
categories the paper reports for GPT-4 (loop-carried dependences, gather /
packing patterns, prefix sums, non-unit strides, wrap-around scalars).
"""

from repro.vectorizer.planner import (
    EPILOGUE_STRATEGIES,
    RejectionReason,
    VectorizationPlan,
    plan_vectorization,
)
from repro.vectorizer.codegen import generate_vectorized_function, vectorize_kernel

__all__ = [
    "EPILOGUE_STRATEGIES",
    "RejectionReason",
    "VectorizationPlan",
    "plan_vectorization",
    "generate_vectorized_function",
    "vectorize_kernel",
]
