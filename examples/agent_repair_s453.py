"""Section 4.4.2 case study: the multi-agent FSM repairing s453.

s453 scales each element by a scalar induction variable (``s += 2`` every
iteration).  A naive vectorization initializes the induction vector as if a
single scalar update covered all eight lanes — checksum testing catches the
mismatch, the tester agent feeds the discrepancy back, and the vectorizer
agent produces the corrected ``_mm256_setr_epi32(2,4,...,16)`` form on a
later attempt.  This script forces that first faulty attempt so the repair
loop is always exercised.
"""

from __future__ import annotations

from repro.agents.fsm import FSMConfig, VectorizationFSM
from repro.llm.faults import FaultKind, FaultProfile
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
from repro.tsvc import load_kernel


def make_llm_with_forced_induction_bug() -> SyntheticLLM:
    """An LLM configuration that (almost) always starts with the s453 bug."""
    profile = FaultProfile(
        base_fault_rate=1.0,
        with_dependence_info_rate=1.0,
        with_feedback_rate=0.05,
        kind_weights={FaultKind.NAIVE_INDUCTION: 1.0},
    )
    return SyntheticLLM(SyntheticLLMConfig(seed=7, fault_profile=profile))


def main() -> int:
    kernel = load_kernel("s453")
    print("Scalar s453:")
    print(kernel.source.strip())
    print()

    llm = make_llm_with_forced_induction_bug()
    fsm = VectorizationFSM(llm, kernel.name, kernel.source, FSMConfig(max_attempts=10))
    result = fsm.run()

    for record in result.history:
        print(f"--- attempt {record.attempt}: {record.outcome.value} "
              f"(generation mode: {record.llm_annotations.get('mode', '?')}"
              f"{', fault: ' + record.llm_annotations['fault'] if 'fault' in record.llm_annotations else ''}) ---")
    print()
    if result.accepted:
        print(f"Repaired after {result.attempts} attempts. Final vectorized code:")
        print(result.final_code.strip())
    else:
        print("The FSM did not converge within its attempt budget.")
    return 0 if result.accepted else 1


if __name__ == "__main__":
    raise SystemExit(main())
