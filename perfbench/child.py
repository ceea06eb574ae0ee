"""One measured campaign in a fresh Python process.

``run.py`` starts this script once per measured campaign, so every timed
pass begins with cold process-global caches; there is no other honest way
to clear the two dozen caches the pipeline keeps.  The script drives the
public ``CampaignRunner(CampaignConfig(...)).run(...)`` API and prints one
JSON object: timings, the verdict signature and, when traced, the
per-layer metrics.

Usage: python3 perfbench/child.py --workload avx2-cold --seed 2024
           --llm-seed 2024 --trace 0 --spool DIR --spawned-at PERF_COUNTER_STAMP
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from harness import WORKLOADS, kernel_order, signature  # noqa: E402
from tracer import (  # noqa: E402
    LAYER_SPANS,
    TIMING_SPANS,
    Tracer,
    reference_probe,
    check_partition,
    layer_metrics,
    merge_snapshots,
)


#: Probes timed at process start and after the first timed kernels, which
#: bracket the set-up phase of a cold process.
SETUP_PROBES = 8


def main() -> int:
    start_probes = [reference_probe() for _ in range(SETUP_PROBES)]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="permutes the order the kernels are driven in")
    parser.add_argument("--llm-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spool", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter stamp taken just before this process started")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    args.spool.mkdir(parents=True, exist_ok=True)

    tracer = Tracer(args.spool)
    tracer.install(LAYER_SPANS if args.trace else TIMING_SPANS)

    from repro.llm.synthetic import SyntheticLLMConfig
    from repro.pipeline import CampaignConfig, CampaignRunner
    from repro.pipeline.runner import LLMVectorizerConfig
    from repro.tsvc import all_kernel_names

    config = CampaignConfig(workers=workload.workers, target=workload.target)
    vectorizer_config = LLMVectorizerConfig(llm=SyntheticLLMConfig(seed=args.llm_seed))
    names = kernel_order(all_kernel_names(), args.seed)
    prime_signature = None
    prime_probes: list[float] = []
    if workload.warm:
        prime = CampaignRunner(config).run(names, vectorizer_config=vectorizer_config)
        prime_signature = signature(prime.records)
        prime_probes = [entry[3] for entry in tracer.timeline["pipeline.job"]]
        tracer.clear()

    started = time.perf_counter()
    report = CampaignRunner(config).run(names, vectorizer_config=vectorizer_config)
    ended = time.perf_counter()
    wall_s = ended - started

    snapshots = [tracer.snapshot()] + [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(args.spool.glob("worker-*.json"))]
    fleet = merge_snapshots(snapshots)
    jobs = sorted(entry for entries in fleet["timeline"].get("pipeline.job", [])
                  for entry in entries)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    summary = report.summary
    out = {
        "wall_s": wall_s,
        "setup_s": jobs[0][0] - args.spawned_at,
        # The machine's speed over set-up: the probes around it and, on a
        # warm process, those of the priming pass it contains.
        "setup_probes_ms": [probe * 1000.0 for probe in start_probes + prime_probes
                            + [entry[3] for entry in jobs[:SETUP_PROBES]]
                            if probe is not None],
        # kernel -> (time to verdict, reference probe timed just before it)
        "kernel_ms": {kernel: (seconds * 1000.0, (probe or 0.0) * 1000.0)
                      for _, seconds, kernel, probe in jobs},
        "peak_rss_mb": peak_kb / 1024.0,
        "signature": signature(report.records),
        "prime_signature": prime_signature,
    }
    if args.trace:
        layers = layer_metrics(
            fleet, wall_s=wall_s, run_end=ended,
            summary={"batches": summary.batches,
                     "plan_cache_hit_rate": summary.plan_cache_hit_rate,
                     "solve_cache_hit_rate": summary.solve_cache_hit_rate,
                     "solver": summary.solver},
            stages=[record.result.get("deciding_stage") for record in report.records])
        out["layers"] = layers
        out["partition_problems"] = check_partition(fleet, layers, wall_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
