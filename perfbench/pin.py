"""Regenerate ``answers.json``: the verdicts the benchmark checks against.

For every target the benchmark's workloads use, one campaign per
synthetic-LLM seed runs over the 149 TSVC kernels and contributes

* at the default seed and at one held-out seed, the full signature
  (kernel, verdict, final-code SHA per kernel), which a run at that LLM
  seed must match kernel for kernel;
* at every seed, entries of the answer table: the verdict of each (kernel,
  final candidate) pair, which lets a run at an unpinned LLM seed still
  catch an equivalent <-> not_equivalent flip on every candidate some
  pinned seed produced.

Verdicts are independent of cache state, worker count and suite order (a
repository invariant), so the campaigns of one target share a process.
Run it only at a commit whose verdicts are known good:

    python3 perfbench/pin.py [--seeds 0-63] [--held-out 4242]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    DEFAULT_LLM_SEED,
    WORKLOADS,
    answer_key,
    signature,
)


def pin_target(target: str, seeds: list[int], full: set[int]) -> dict:
    from repro.llm.synthetic import SyntheticLLMConfig
    from repro.pipeline import CampaignConfig, CampaignRunner
    from repro.pipeline.runner import LLMVectorizerConfig

    signatures = {}
    answers: dict[str, dict[str, str]] = {}
    conflicts: set[tuple[str, str]] = set()
    suite = None
    for seed in seeds:
        report = CampaignRunner(CampaignConfig(workers=1, target=target)).run(
            vectorizer_config=LLMVectorizerConfig(llm=SyntheticLLMConfig(seed=seed)))
        sig = signature(report.records)
        suite = suite or [kernel for kernel, _, _ in sig]
        if seed in full:
            signatures[str(seed)] = sig
        for kernel, verdict, sha in sig:
            known = answers.setdefault(kernel, {})
            key = answer_key(sha)
            if known.setdefault(key, verdict) != verdict:
                conflicts.add((kernel, key))
    for kernel, key in conflicts:
        del answers[kernel][key]
    print(f"{target}: {len(seeds)} seeds, "
          f"{sum(len(v) for v in answers.values())} pinned candidates, "
          f"{len(conflicts)} dropped as seed-dependent", file=sys.stderr)
    return {"suite": suite, "signatures": signatures,
            "answers": {kernel: dict(sorted(known.items()))
                        for kernel, known in sorted(answers.items())}}


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-63"))
    parser.add_argument("--held-out", type=int, default=4242)
    parser.add_argument("--out", type=Path, default=HERE / "answers.json")
    args = parser.parse_args()
    full = {DEFAULT_LLM_SEED, args.held_out}
    seeds = sorted(set(args.seeds) | full)
    targets = sorted({workload.target for workload in WORKLOADS.values()})
    with multiprocessing.get_context("spawn").Pool(len(targets)) as pool:
        sections = pool.starmap(pin_target, [(t, seeds, full) for t in targets])
    suites = {tuple(section.pop("suite")) for section in sections}
    if len(suites) != 1:
        raise SystemExit("targets disagree on the kernel suite")
    data = {"suite": list(suites.pop()), "held_out_seed": args.held_out,
            "targets": dict(zip(targets, sections))}
    args.out.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
