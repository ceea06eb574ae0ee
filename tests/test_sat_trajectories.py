"""Pinned trajectories of the CDCL solver.

Every ``CDCLSolver.solve`` call of the serial AVX2 and NEON campaigns at LLM
seed 2024 (default settings, solve cache cleared first) is reduced to its
result, its ``SATStatistics.as_dict()`` and a sha256 of its sorted model,
and compared in call order with ``tests/data/sat_trajectories.json``.  So
are the calls of seeded random incremental CNF sequences: selector-guarded
queries that are retired after use, extra assumption literals, clauses added
between solves, and budgets small enough to answer UNKNOWN.

The counters fix the search itself, not only its answer: a solver that
visits watches in another order, bumps activities differently, branches on
another variable, restarts or reduces its learned clauses at another point,
or counts propagations another way moves at least one of them, and a
budget-bound UNKNOWN such as NEON s3111's can then flip.  Only the
bookkeeping of the solver may change under these pins.  The campaign test
re-runs just the kernels that reach the solver; the write mode runs the full
campaigns and checks that those kernels alone make the same calls.  Re-pin
only for a deliberate change to the search, with::

    PYTHONPATH=src python tests/test_sat_trajectories.py --write
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.llm.synthetic import SyntheticLLMConfig
from repro.pipeline import CampaignConfig, CampaignRunner
from repro.pipeline.runner import LLMVectorizer, LLMVectorizerConfig
from repro.smt import solvecache
from repro.smt.sat import CDCLSolver, SATResult

PINS = Path(__file__).parent / "data" / "sat_trajectories.json"
TARGETS = ("avx2", "neon")
LLM_SEED = 2024
RANDOM_SEEDS = range(24)


def _entry(solver: CDCLSolver, result: SATResult, model: dict[int, bool]) -> dict:
    return {
        "result": result.value,
        "stats": solver.stats.as_dict(),
        "model_sha256": hashlib.sha256(
            json.dumps(sorted(model.items())).encode()).hexdigest(),
    }


@contextlib.contextmanager
def recording_solves():
    """Record every solve call, the kernel being vectorized and the reductions.

    Each call becomes its pin entry plus ``kernel`` and ``reductions`` (the
    number of learned-clause reductions the call made).
    """
    calls: list[dict] = []
    state = {"kernel": None, "reductions": 0}
    solve, reduce_learned = CDCLSolver.solve, CDCLSolver._reduce_learned
    vectorize = LLMVectorizer.vectorize

    def recorded_solve(self, assumptions=None):
        state["reductions"] = 0
        result, model = solve(self, assumptions)
        calls.append(dict(_entry(self, result, model), kernel=state["kernel"],
                          reductions=state["reductions"]))
        return result, model

    def counted_reduce_learned(self):
        state["reductions"] += 1
        return reduce_learned(self)

    def tracked_vectorize(self, kernel, *args, **kwargs):
        state["kernel"] = kernel.name
        return vectorize(self, kernel, *args, **kwargs)

    CDCLSolver.solve = recorded_solve
    CDCLSolver._reduce_learned = counted_reduce_learned
    LLMVectorizer.vectorize = tracked_vectorize
    try:
        yield calls
    finally:
        CDCLSolver.solve, CDCLSolver._reduce_learned = solve, reduce_learned
        LLMVectorizer.vectorize = vectorize


def campaign_solves(target: str, kernels: list[str] | None = None) -> list[dict]:
    """Every solve call of the serial campaign on ``target``, in call order."""
    solvecache.clear_caches()
    config = LLMVectorizerConfig(llm=SyntheticLLMConfig(seed=LLM_SEED))
    try:
        with recording_solves() as calls:
            CampaignRunner(CampaignConfig(workers=1, target=target)).run(
                kernels, vectorizer_config=config)
    finally:
        solvecache.clear_caches()
    return calls


def _pinned(calls: list[dict]) -> list[dict]:
    return [{key: call[key] for key in ("kernel", "result", "stats", "model_sha256")}
            for call in calls]


def _random_clause(rng: random.Random, num_vars: int, width: int) -> list[int]:
    return [v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), width)]


def random_sequence_solves(seed: int) -> list[dict]:
    """An incremental query sequence in the shape the equivalence checker uses.

    A random 3-CNF near the satisfiability threshold, then six queries, each
    guarded by a fresh selector: a wide disjunction behind the selector,
    solved under the selector plus up to two assumption literals, then
    retired with the unit ``-selector``.  Every third sequence runs under
    budgets small enough to end some calls UNKNOWN.
    """
    rng = random.Random(seed)
    num_vars = rng.randint(40, 110)
    if seed % 3 == 2:
        solver = CDCLSolver(propagation_budget=3_000, conflict_budget=60)
    else:
        solver = CDCLSolver()
    for _ in range(int(num_vars * rng.uniform(3.7, 4.3))):
        solver.add_clause(_random_clause(rng, num_vars, 3))
    calls = []
    for _ in range(6):
        selector = solver.new_var()
        solver.add_clause([-selector] + _random_clause(rng, num_vars, rng.randint(2, 6)))
        for _ in range(rng.randint(0, 3)):
            solver.add_clause(_random_clause(rng, num_vars, 3))
        assumptions = [selector] + _random_clause(rng, num_vars, rng.randint(0, 2))
        result, model = solver.solve(assumptions)
        calls.append(_entry(solver, result, model))
        solver.add_clause([-selector])
    return calls


@functools.cache
def observed_campaign_solves(target: str, kernels: tuple[str, ...]) -> list[dict]:
    return campaign_solves(target, list(kernels))


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("target", TARGETS)
def test_campaign_solves_are_pinned(target, pins):
    pinned = pins["campaign"][target]
    kernels = tuple(dict.fromkeys(call["kernel"] for call in pinned))
    observed = observed_campaign_solves(target, kernels)
    assert _pinned(observed) == pinned


def test_the_pinned_solves_cross_the_rescale_and_the_reduction(pins):
    """NEON s3111's C-unroll solve reaches both rare paths of the search."""
    pinned = pins["campaign"]["neon"]
    assert len(pins["campaign"]["avx2"]) == 8 and len(pinned) == 9
    kernels = tuple(dict.fromkeys(call["kernel"] for call in pinned))
    heaviest = max(observed_campaign_solves("neon", kernels),
                   key=lambda call: call["stats"]["learned_clauses"])
    assert heaviest["kernel"] == "s3111"
    assert heaviest["result"] == "unknown"
    assert heaviest["stats"]["learned_clauses"] == 7158
    assert heaviest["stats"]["restarts"] == 28
    # Every conflict analysis bumps at least its UIP variable, so the
    # activity increment has grown by at least 1.05**learned_clauses.  That
    # passes 1e100, so some activity passed it too and was rescaled.
    assert 1.05 ** heaviest["stats"]["learned_clauses"] > 1e100
    assert heaviest["reductions"] > 0


def test_random_incremental_solves_are_pinned(pins):
    observed = [random_sequence_solves(seed) for seed in RANDOM_SEEDS]
    assert observed == pins["random"]
    results = {call["result"] for calls in observed for call in calls}
    assert results == {"sat", "unsat", "unknown"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    campaign = {}
    for target in TARGETS:
        full = _pinned(campaign_solves(target))
        kernels = list(dict.fromkeys(call["kernel"] for call in full))
        if _pinned(campaign_solves(target, kernels)) != full:
            sys.exit(f"{target}: the solving kernels alone do not reproduce "
                     "the full campaign's solve calls")
        campaign[target] = full
    table = {"campaign": campaign,
             "random": [random_sequence_solves(seed) for seed in RANDOM_SEEDS]}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, campaign.values()))} campaign and "
          f"{sum(map(len, table['random']))} random solve calls to {PINS}")
