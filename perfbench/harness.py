"""Workloads, statistics and correctness checks of the TSVC benchmark.

Nothing here imports ``repro``: the driving process only spawns measured
processes and judges what they report, so it stays cold-neutral.
"""

from __future__ import annotations

import ast
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent

#: The synthetic LLM's default seed (``SyntheticLLMConfig.seed``); the
#: AVX2 golden record in ``tests/test_sve.py`` was captured at it.
DEFAULT_LLM_SEED = 2024

DECIDED = ("equivalent", "not_equivalent")


@dataclass(frozen=True)
class Workload:
    """One campaign configuration; every run drives all 149 TSVC kernels."""

    target: str
    workers: int
    #: Run one in-process priming pass before the timed pass.  The timed
    #: pass uses a fresh ``CampaignRunner`` (empty result cache) while the
    #: parse, plan, solve and memo caches stay hot.
    warm: bool

    @property
    def cache_state(self) -> str:
        return "warm" if self.warm else "cold"


WORKLOADS = {
    "avx2-cold": Workload(target="avx2", workers=1, warm=False),
    "avx2-warm": Workload(target="avx2", workers=1, warm=True),
    "neon-cold": Workload(target="neon", workers=1, warm=False),
    "avx2-cold-2w": Workload(target="avx2", workers=2, warm=False),
}


class Percentile(NamedTuple):
    value: float
    #: How many samples the percentile was taken over.
    samples: int


def percentile(values: list[float], q: float) -> Percentile:
    """The ``q``-th percentile, interpolating between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low, high = math.floor(position), math.ceil(position)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return Percentile(value, len(ordered))


def median(values: list[float]) -> float:
    return percentile(values, 50).value


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def kernel_order(names: list[str], seed: int) -> list[str]:
    """The order in which a run's closed loop drives the kernels."""
    order = sorted(names)
    random.Random(seed).shuffle(order)
    return order


def signature(records) -> list[list]:
    """The bit-identity signature of a campaign: kernel, verdict, code SHA.

    Sorted by kernel, so it does not depend on the order kernels ran in.
    """
    return sorted([record.kernel, record.result.get("verdict"),
                   record.result.get("final_code_sha")] for record in records)


def answer_key(sha: str | None) -> str:
    """Answer-table key of a final candidate (its SHA prefix)."""
    return sha[:16] if sha else "none"


def load_answers(path: Path = HERE / "answers.json") -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def load_golden(root: Path) -> list[tuple]:
    """``AVX2_GOLDEN`` from ``tests/test_sve.py``, read without importing it."""
    tree = ast.parse((root / "tests" / "test_sve.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "AVX2_GOLDEN"
                        for t in node.targets)):
            return [tuple(entry) for entry in ast.literal_eval(node.value)]
    raise LookupError("AVX2_GOLDEN not found in tests/test_sve.py")


def failed_kernels(sig: list[list], suite: list[str],
                   answers: dict[str, dict[str, str]]) -> tuple[list[str], int]:
    """Kernels that count against ``failed_share``, and how many are unpinned.

    A kernel fails when it is missing, ended in an error record, or got a
    decided verdict contradicting the answer pinned for its exact final
    candidate (equivalent <-> not_equivalent).  A move from a decided
    verdict to inconclusive is not a failure; ``decided_share`` shows it.
    """
    seen = {kernel: (verdict, sha) for kernel, verdict, sha in sig}
    failed = [f"{kernel}: missing" for kernel in suite if kernel not in seen]
    unpinned = 0
    for kernel, (verdict, sha) in seen.items():
        if verdict == "error":
            failed.append(f"{kernel}: error record")
            continue
        pinned = answers.get(kernel, {}).get(answer_key(sha))
        if pinned is None:
            unpinned += 1
        elif verdict in DECIDED and pinned in DECIDED and verdict != pinned:
            failed.append(f"{kernel}: {verdict}, pinned {pinned}")
    return failed, unpinned


def signature_problems(sig: list[list], target: str, llm_seed: int, answers: dict,
                       golden: list[tuple]) -> list[str]:
    """Differences from the signatures pinned at the seed commit."""
    problems = []
    pinned = answers["targets"][target]["signatures"].get(str(llm_seed))
    if pinned is not None and sig != pinned:
        diffs = sorted({kernel for kernel, *_ in sig} ^ {kernel for kernel, *_ in pinned})
        diffs += [got[0] for got, want in zip(sig, pinned) if got != want]
        problems.append(f"{target} LLM seed {llm_seed}: signature differs from "
                        f"the pin on {diffs[:8]}")
    if target == "avx2" and llm_seed == DEFAULT_LLM_SEED:
        observed = {kernel: (kernel, verdict, sha) for kernel, verdict, sha in sig}
        drift = [want[0] for want in golden if observed.get(want[0]) != want]
        if drift:
            problems.append(f"AVX2_GOLDEN drift on {drift}")
    return problems
