"""The TSVC campaign benchmark: one command per workload, cold or warm.

Each measured campaign runs in a fresh Python process (``child.py``) that
drives all 149 TSVC kernels through ``CampaignRunner(...).run(...)``, in
an order drawn from ``--seed``, with the synthetic LLM at its default seed
(``--llm-seed`` picks another).  Processes run back to back, a closed loop
of one client, until ``--seconds`` is spent (at least three, or two that
outlast it).  Gated timings are probe-normalised medians over them (see
``end_to_end``).  ``--trace 1`` alternates untraced and traced processes
and reports the per-layer metrics instead.

Before printing, the run checks every process's verdicts: no error record,
no missing kernel, no equivalent <-> not_equivalent flip against the
answers pinned at the seed commit (``answers.json``), the pinned
signatures (verdict + final-code SHA per kernel) where the LLM seed has
one, ``AVX2_GOLDEN`` from ``tests/test_sve.py`` at the default seed, identical
signatures across processes, and on ``avx2-warm`` the timed pass equal to
its cold priming pass.  A failed check exits 1.

Usage (from the repository root):
    python3 perfbench/run.py --workload avx2-cold [--seed 2024]
        [--seconds 20] [--trace 0|1] [--llm-seed 2024]

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it name every
metric with its unit.  Run anywhere but a repository checkout, the command
exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    DECIDED,
    DEFAULT_LLM_SEED,
    WORKLOADS,
    failed_kernels,
    load_answers,
    load_golden,
    median,
    percentile,
    signature_problems,
)
from tracer import PROBE_NOMINAL_S  # noqa: E402

#: Fewest measured processes per run, unless two already take longer than
#: ``--seconds`` (a slow host must not stretch a run past the time budget).
MIN_PROCESSES = 3
#: Every measured process must have finished this long after the run began.
RUN_CEILING_S = 170.0


class ProcessFailed(RuntimeError):
    """A measured process crashed, hung or printed no result."""


def spawn(workload: str, seeds: tuple[int, int], traced: bool, spool: Path,
          time_left: float) -> dict:
    """Run one measured campaign in a fresh process; return its report."""
    spawned_at = time.perf_counter()
    seed, llm_seed = seeds
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--llm-seed", str(llm_seed),
               "--trace", str(int(traced)),
               "--spool", str(spool), "--spawned-at", repr(spawned_at)]
    # A session of its own, so a timeout takes the pool workers down too.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, time_left))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ProcessFailed(f"measured process exceeded {time_left:.0f}s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ProcessFailed(f"measured process exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seeds: tuple[int, int], seconds: float, trace: bool,
            scratch: Path) -> list[tuple[bool, dict]]:
    """Measured processes, back to back, until the time budget is spent."""
    began = time.perf_counter()
    deadline = began + seconds
    runs: list[tuple[bool, dict]] = []
    durations: list[float] = []
    while True:
        traced = trace and len(runs) % 2 == 1
        start = time.perf_counter()
        report = spawn(workload, seeds, traced, scratch / f"spool-{len(runs)}",
                       RUN_CEILING_S - (start - began))
        durations.append(time.perf_counter() - start)
        runs.append((traced, report))
        # At least MIN_PROCESSES, or two once they outlast the budget; then
        # another only if even the slowest so far would fit.
        now = time.perf_counter()
        enough = len(runs) >= MIN_PROCESSES or (len(runs) >= 2 and now >= deadline)
        if enough and now + max(durations) > deadline:
            return runs


def judge(workload_name: str, llm_seed: int, runs: list[tuple[bool, dict]],
          answers: dict, golden: list[tuple]) -> tuple[list[str], int, int, int]:
    """(problems, failed kernels, attempted kernels, unpinned kernels)."""
    workload = WORKLOADS[workload_name]
    suite = answers["suite"]
    pinned_answers = answers["targets"][workload.target]["answers"]
    reference = runs[0][1]["signature"]
    problems: list[str] = []
    failed = attempted = unpinned = 0
    for index, (_, report) in enumerate(runs):
        sig = report["signature"]
        bad, unpinned = failed_kernels(sig, suite, pinned_answers)
        failed += len(bad)
        attempted += len(suite)
        if bad:
            problems.append(f"process {index}: {len(bad)} failed kernels: {bad[:8]}")
        if sig != reference:
            diffs = [got[0] for got, want in zip(sig, reference) if got != want]
            problems.append(f"process {index}: signature differs from process 0 "
                            f"on {diffs[:8]}")
        prime = report["prime_signature"]
        if prime is not None and prime != sig:
            diffs = [got[0] for got, want in zip(sig, prime) if got != want]
            problems.append(f"process {index}: warm pass differs from its cold "
                            f"priming pass on {diffs[:8]}")
        problems.extend(f"process {index}: {problem}"
                        for problem in report.get("partition_problems", []))
    problems.extend(signature_problems(reference, workload.target, llm_seed,
                                       answers, golden))
    return problems, failed, attempted, unpinned


def end_to_end(runs: list[tuple[bool, dict]], failed: int,
               attempted: int) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metrics over untraced processes, with how each was taken.

    Neighbours on a shared host slow this memory-heavy program by up to
    60% for tens of seconds at a time, and raw timings of one seed spread
    by 12-46% across runs.  The gated timings are therefore normalised:
    each is divided by the reference probe timed alongside it and scaled
    to the probe's nominal time (``tracer.PROBE_NOMINAL_S``), then the
    median over processes is taken.  Raw best-of-N timings are reported
    next to them.
    """
    reports = [report for _, report in runs]
    count = len(reports)
    kernels = list(reports[0]["kernel_ms"])
    scaled_ms = [median([ms / probe_ms * PROBE_NOMINAL_S * 1000.0
                         for ms, probe_ms in (report["kernel_ms"][kernel]
                                              for report in reports)])
                 for kernel in kernels]
    raw_ms = [min(report["kernel_ms"][kernel][0] for report in reports)
              for kernel in kernels]

    def scale(seconds: float, probes_ms: list[float]) -> float:
        # The median probe: a collection of the ~80 MB heap can land in
        # one probe and make it 100x slower.
        return seconds * PROBE_NOMINAL_S * 1000.0 / median(probes_ms)

    sig = reports[0]["signature"]
    decided = sum(1 for _, verdict, _ in sig if verdict in DECIDED)
    metrics = {
        "wall_s": median([scale(report["wall_s"],
                                [probe for _, probe in report["kernel_ms"].values()])
                          for report in reports]),
        "setup_s": median([scale(report["setup_s"], report["setup_probes_ms"])
                           for report in reports]),
        "kernel_p50_ms": percentile(scaled_ms, 50).value,
        "kernel_p90_ms": percentile(scaled_ms, 90).value,
        "peak_rss_mb": median([report["peak_rss_mb"] for report in reports]),
        "decided_share": decided / len(sig),
        "correct_share": 1.0 - failed / attempted,
        "wall_raw_s": min(report["wall_s"] for report in reports),
        "setup_raw_s": min(report["setup_s"] for report in reports),
        "kernel_p50_raw_ms": percentile(raw_ms, 50).value,
        "kernel_p90_raw_ms": percentile(raw_ms, 90).value,
    }
    normalised = f"probe-normalised, median of {count} processes"
    notes = {name: normalised for name in ("wall_s", "setup_s")}
    for name, q in (("p50", 50), ("p90", 90)):
        notes[f"kernel_{name}_ms"] = (f"{name} of {len(scaled_ms)} kernels, each "
                                      f"probe-normalised, median of {count}")
        notes[f"kernel_{name}_raw_ms"] = f"{name} of {len(raw_ms)} kernels, each best of {count}"
    notes["wall_raw_s"] = notes["setup_raw_s"] = f"best of {count} processes"
    notes["peak_rss_mb"] = f"median of {count} processes"
    notes["decided_share"] = f"{decided} of {len(sig)} kernels"
    notes["correct_share"] = f"{attempted - failed} of {attempted} verdicts"
    return metrics, notes


def per_layer(runs: list[tuple[bool, dict]]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics: medians over traced processes, plus tracing overhead."""
    traced = [report for is_traced, report in runs if is_traced]
    plain = [report for is_traced, report in runs if not is_traced]
    metrics = {name: median([report["layers"][name] for report in traced])
               for name in traced[0]["layers"]}
    metrics["trace.overhead_share"] = (min(report["wall_s"] for report in traced)
                                       / min(report["wall_s"] for report in plain) - 1.0)
    notes = {name: f"median of {len(traced)} traced processes" for name in metrics}
    notes["trace.overhead_share"] = (f"best of {len(traced)} traced vs best of "
                                     f"{len(plain)} untraced processes")
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024,
                        help="draws the order the kernels are driven in "
                             "(default %(default)s)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring budget of this run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from traced processes")
    parser.add_argument("--llm-seed", type=int, default=DEFAULT_LLM_SEED,
                        help="synthetic LLM seed; fixes every candidate program "
                             "(default %(default)s)")
    args = parser.parse_args(argv)

    if not ((ROOT / "src" / "repro" / "__init__.py").is_file()
            and (ROOT / "tests" / "test_sve.py").is_file()):
        print(f"error: {ROOT} is not a repository checkout "
              f"(src/repro and tests/test_sve.py are missing)", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    answers = load_answers()
    golden = load_golden(ROOT)
    workload = WORKLOADS[args.workload]

    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        runs = measure(args.workload, (args.seed, args.llm_seed), args.seconds,
                       bool(args.trace), scratch)
    except ProcessFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    problems, failed, attempted, unpinned = judge(args.workload, args.llm_seed, runs,
                                                  answers, golden)
    if args.trace:
        values, notes = per_layer(runs)
        wanted = declared["per_layer"]
    else:
        values, notes = end_to_end([run for run in runs if not run[0]], failed, attempted)
        wanted = declared["end_to_end"]
    missing = sorted({entry["name"] for entry in wanted} - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")

    print(f"workload {args.workload}: cache_state={workload.cache_state} "
          f"target={workload.target} workers={workload.workers} seed={args.seed} "
          f"llm_seed={args.llm_seed} "
          f"processes={len(runs)} kernels without a pinned answer={unpinned}")
    verdicts = Counter(verdict for _, verdict, _ in runs[0][1]["signature"])
    print("  verdicts: " + ", ".join(f"{count} {verdict}"
                                     for verdict, count in sorted(verdicts.items())))
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name} = {values[name]:.6g} {unit}  ({notes[name]})")
    for name in sorted(set(values) - set(metrics)):
        print(f"  {name} = {values[name]:.6g}  ({notes[name]}; reported, not gated)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
