"""CI perf gate: serial + parallel throughput floors plus the AVX2 golden pin.

Runs the standard 11-kernel vectorize suite serially on every target, then
a parallel-scaling sweep of the *full* TSVC suite (``--scale-workers``,
default 1/2/4/8, through the work-stealing batch dispatcher), appends every
fresh summary (with batch counts, fleet plan-cache and solver counters,
and this machine's CPU probe score) to ``BENCH_campaign.json``, and fails
when any of

- a target's serial kernels/sec drops more than ``--tolerance`` (default
  20%) below the machine-normalised floor for that (target, kernel-count)
  configuration,
- a scaling run's effective kernels/sec drops more than ``--tolerance``
  below the machine-normalised floor for its (target, workers,
  kernel-count) configuration,
- a fully-fresh run's solver work — SAT cache misses, propagations or
  conflicts — exceeds the lowest committed count for its configuration
  (the solver fast path must not regress),
- any scaling run's verdicts or final-code SHAs differ from the serial
  member of the sweep (parallel dispatch must be bit-identical), or
- the paper-default AVX2 campaign's verdicts or final-code SHAs drift from
  the golden record pinned in ``tests/test_sve.py``.

Throughput floors are a machine-normalised ratchet: committed entries
carry the :func:`machine_score` CPU probe of the box that recorded them,
and each floor is scaled by (current score / recorded score) before the
tolerance is applied.  A uniformly slower container therefore doesn't
read as a code regression, while a genuine slowdown still does.  Entries
recorded before machine scoring (no ``machine_score`` key) are kept as
history but no longer gate.  Solver counts are deterministic and the
same on every machine, so their ceilings take neither scaling nor
``--tolerance``: any growth is a regression.  Per-layer timings are not
this script's business: ``python3 perfbench/run.py --trace 1`` measures
them.

Usage:  PYTHONPATH=src python benchmarks/perf_gate.py [--tolerance 0.2]
                  [--baseline BENCH_campaign.json] [--json BENCH_campaign.json]
                  [--scale-workers 1,2,4,8] [--scale-target avx2]

Exit status 0 on pass, 1 on regression or drift.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from test_multi_target import DEFAULT_KERNELS  # noqa: E402
from test_sve import AVX2_GOLDEN  # noqa: E402

from repro.pipeline import CampaignConfig, CampaignRunner  # noqa: E402
from repro.reporting.campaign import write_bench_json  # noqa: E402
from repro.targets import ALL_TARGETS  # noqa: E402

#: The solver-work counters the ceiling gates: query batches that reached
#: the SAT stage, and the CDCL work spent on them.
SOLVER_WORK = ("cache_misses", "propagations", "conflicts")


def machine_score(repeats: int = 3) -> float:
    """A deterministic single-core CPU probe, in arbitrary probe-runs/second.

    Benchmark entries record the probe score of the machine that produced
    them, so throughput ratchets can scale their floors by the ratio of the
    current machine's score to the recording machine's — a uniformly slower
    container no longer reads as a code regression, while a genuine
    slowdown of one target still does.  The workload (an
    interpreter-bound integer loop plus a fixed hash chain, mirroring the
    pure-Python pipeline's profile) is fixed; the best of ``repeats`` runs
    is kept to shave scheduler noise.
    """
    payload = bytes(range(256)) * 64
    best = 0.0
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        digest = payload
        for _ in range(16):
            digest = hashlib.sha256(digest).digest()
        acc = 0
        for value in range(150_000):
            acc = (acc * 1103515245 + value) & 0xFFFFFFFF
        elapsed = time.perf_counter() - started
        if elapsed > 0.0:
            best = max(best, 1.0 / elapsed)
    return round(best, 2)


def baseline_rates(path: Path) -> dict[tuple[str, int, int], tuple[float, float]]:
    """Best committed (kernels/sec, machine_score) per configuration.

    Keyed by (target, workers, kernel count): the 11-kernel serial smoke
    suite and the full-suite scaling sweep have incomparable inherent
    rates, so they ratchet independently.  Serial entries gate on the
    fresh-execution rate; parallel entries gate on the effective rate of
    fully-fresh runs (``executed == kernels``), matching the ``scaling``
    section ``write_bench_json`` derives.  Only entries carrying a
    ``machine_score`` participate — a rate without the recording machine's
    probe score cannot be normalised to this machine.
    """
    if not path.exists():
        return {}
    entries = json.loads(path.read_text(encoding="utf-8")).get("campaigns", [])
    best: dict[tuple[str, int, int], tuple[float, float]] = {}
    for entry in entries:
        target = entry.get("target")
        workers = entry.get("workers", 1)
        kernels = entry.get("kernels", 0)
        score = entry.get("machine_score")
        if (not target or not isinstance(workers, int) or workers < 1
                or not kernels or not isinstance(score, (int, float))
                or score <= 0):
            continue
        if workers == 1:
            rate = entry.get("kernels_per_second")
        else:
            fresh = entry.get("executed") == kernels
            rate = entry.get("effective_kernels_per_second") if fresh else None
        if not isinstance(rate, (int, float)):
            continue
        key = (target, workers, kernels)
        slot = best.get(key)
        # Compare on the machine-normalised rate so the slot holds the
        # genuinely best recorded run, not just the fastest recording box.
        if slot is None or float(rate) / float(score) > slot[0] / slot[1]:
            best[key] = (float(rate), float(score))
    return best


def baseline_solver_work(path: Path) -> dict[tuple[str, int, int], dict[str, int]]:
    """Lowest committed solver work per configuration.

    Keyed like :func:`baseline_rates` — (target, workers, kernel count) —
    and restricted the same way: fully-fresh runs (``executed == kernels``)
    carrying a ``machine_score``.  Each :data:`SOLVER_WORK` counter keeps
    its lowest committed value, so solver work ratchets downward the way
    throughput ratchets upward.  The counts are deterministic: the gate
    script's phase order is fixed, so each configuration's solve-cache
    warmth is identical across sessions and the comparison is
    like-for-like.

    A summary lists only the counters that moved, and omits ``solver``
    altogether when the run did no solver work; entries recorded before
    the counters existed omit it too.  So each configuration is judged
    against its entries that carry counters, with a missing counter read
    as zero.  A configuration with no such entry gets a zero ceiling: every
    configuration in the committed file has runs recorded since the
    counters existed, so for it a missing ``solver`` means no solver work.
    """
    if not path.exists():
        return {}
    entries = json.loads(path.read_text(encoding="utf-8")).get("campaigns", [])
    best: dict[tuple[str, int, int], dict[str, int] | None] = {}
    for entry in entries:
        target = entry.get("target")
        workers = entry.get("workers", 1)
        kernels = entry.get("kernels", 0)
        score = entry.get("machine_score")
        if (not target or not isinstance(workers, int) or workers < 1
                or not kernels or entry.get("executed") != kernels
                or not isinstance(score, (int, float)) or score <= 0):
            continue
        key = (target, workers, kernels)
        solver = entry.get("solver")
        if not isinstance(solver, dict):
            best.setdefault(key, None)
            continue
        counts = {name: int(solver.get(name, 0)) for name in SOLVER_WORK}
        slot = best.get(key)
        best[key] = counts if slot is None else {
            name: min(slot[name], counts[name]) for name in SOLVER_WORK}
    return {key: slot or dict.fromkeys(SOLVER_WORK, 0) for key, slot in best.items()}


def signature(report) -> list[tuple]:
    """The bit-identity signature of a campaign: verdict + SHA per kernel."""
    return [(record.kernel,
             record.result.get("verdict"),
             record.result.get("final_code_sha"))
            for record in report.records]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path,
                        default=REPO_ROOT / "BENCH_campaign.json")
    parser.add_argument("--json", type=Path,
                        default=REPO_ROOT / "BENCH_campaign.json",
                        help="file the fresh summaries are appended to")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional throughput drop per entry")
    parser.add_argument("--scale-workers", default="1,2,4,8",
                        help="comma-separated worker counts for the full-suite "
                             "parallel-scaling sweep (empty disables it)")
    parser.add_argument("--scale-target", default="avx2",
                        help="target ISA the scaling sweep runs on")
    args = parser.parse_args()

    floors = baseline_rates(args.baseline)
    solver_ceilings = baseline_solver_work(args.baseline)
    score = machine_score()
    print(f"machine score: {score:.1f} (floors scale by current/recorded score)")
    failures: list[str] = []
    all_summaries = []

    def gate(kind: str, key: tuple[str, int, int], rate: float) -> str:
        """Apply one machine-normalised ratchet check; returns the suffix."""
        slot = floors.get(key)
        if slot is None:
            return "  (no scored baseline entry; recorded)"
        base_rate, base_score = slot
        scaled = base_rate * (score / base_score)
        minimum = scaled * (1.0 - args.tolerance)
        if rate < minimum:
            failures.append(
                f"{kind}: {rate:.1f} kernels/s is >{args.tolerance:.0%} below "
                f"the machine-normalised baseline {scaled:.1f} "
                f"(recorded {base_rate:.1f} at score {base_score:.1f})")
        return f"  floor {minimum:.1f} (normalised baseline {scaled:.1f})"

    def gate_solver(kind: str, key: tuple[str, int, int], summary) -> str:
        """The solver-work ceiling: fresh runs must not regress the solver.

        Only fully-fresh runs gate (a cached run solves nothing); a missing
        baseline slot records without judging.  The counts carry no noise,
        so no tolerance applies.
        """
        if summary.executed != summary.kernels:
            return ""
        slot = solver_ceilings.get(key)
        if slot is None:
            return ""
        work = {name: summary.solver.get(name, 0) for name in SOLVER_WORK}
        for name in SOLVER_WORK:
            if work[name] > slot[name]:
                failures.append(
                    f"{kind}: {work[name]} solver {name}, above the lowest "
                    f"committed count {slot[name]}")
        return ("  solver " + "/".join(str(work[name]) for name in SOLVER_WORK)
                + " (lowest committed "
                + "/".join(str(slot[name]) for name in SOLVER_WORK) + ")")

    # Phase 1: the serial per-target ratchet on the 11-kernel suite.
    targets = [isa.name for isa in ALL_TARGETS]
    runner = CampaignRunner(CampaignConfig(workers=1))
    reports = runner.run_multi_target(DEFAULT_KERNELS, targets=targets)
    all_summaries.extend(runner.summaries)

    for target, report in reports.items():
        summary = report.summary
        line = f"{target:<8} w=1  {summary.kernels_per_second:8.1f} kernels/s"
        line += gate(target, (target, 1, summary.kernels),
                     summary.kernels_per_second)
        line += gate_solver(target, (target, 1, summary.kernels), summary)
        print(line)

    # Phase 2: the parallel-scaling sweep — full suite, one fresh runner per
    # worker count, every run bit-identical to the sweep's serial member.
    scale_workers = [int(w) for w in args.scale_workers.split(",") if w.strip()]
    reference_signature = None
    for workers in scale_workers:
        scale_runner = CampaignRunner(CampaignConfig(workers=workers,
                                                     target=args.scale_target))
        report = scale_runner.run()
        all_summaries.extend(scale_runner.summaries)
        summary = report.summary
        sig = signature(report)
        if reference_signature is None:
            reference_signature = sig
        elif sig != reference_signature:
            diffs = [a[0] for a, b in zip(reference_signature, sig) if a != b]
            failures.append(
                f"scaling: workers={workers} verdicts/SHAs differ from the "
                f"serial sweep member on {diffs[:5]}")
        rate = summary.throughput.effective_rate
        line = (f"{args.scale_target:<8} w={workers:<2} {rate:8.1f} kernels/s "
                f"effective ({summary.kernels} kernels, "
                f"{summary.batches or 'no'} batches)")
        line += gate(f"{args.scale_target} workers={workers}",
                     (args.scale_target, workers, summary.kernels), rate)
        line += gate_solver(f"{args.scale_target} workers={workers}",
                            (args.scale_target, workers, summary.kernels), summary)
        print(line)

    write_bench_json(all_summaries, args.json, machine_score=score)

    # Phase 3: the verdict pin — the golden kernels are a superset check run
    # on AVX2 alone, with the exact seed campaign config.
    golden_kernels = [kernel for kernel, _, _ in AVX2_GOLDEN]
    golden_report = CampaignRunner(CampaignConfig(workers=1)).run(golden_kernels)
    observed = signature(golden_report)
    for want, got in zip(AVX2_GOLDEN, observed):
        if want != got:
            failures.append(f"AVX2 drift on {want[0]}: expected {want[1:]}, "
                            f"got {got[1:]}")
    if len(observed) != len(AVX2_GOLDEN):
        failures.append(f"AVX2 golden campaign ran {len(observed)} kernels, "
                        f"expected {len(AVX2_GOLDEN)}")

    if failures:
        print("\nPERF GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nperf gate passed: {len(reports)} targets and "
          f"{len(scale_workers)} scaling points within {args.tolerance:.0%} "
          f"of baseline, parallel runs and AVX2 verdicts bit-for-bit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
