"""Outside-in span tracer: per-layer numbers without touching ``src/``.

The tracer wraps public functions of the ``repro`` layers from the outside.
Each wrapper opens a span around one call; a span's *self* time is its
duration minus the durations of the spans it encloses, so the self times of
one process partition the time its outermost spans cover.

Two things make wrapping from outside harder than patching one attribute:

* **Aliased names.**  Callers bind functions with ``from ... import f``
  (``checksum`` binds ``run_function``, ``plancache`` binds
  ``parse_function``...).  :meth:`Tracer.install` therefore rebinds *every*
  attribute of every imported ``repro`` module that ``is`` the original
  object, and patches methods on their class.  Modules imported later copy
  the already-rebound attribute.
* **Worker processes.**  Pool workers fork from a traced parent and inherit
  its wrappers.  A fork handler clears the inherited aggregates, and the
  ``pipeline.batch`` hook spools the worker's aggregates to a file after
  every batch, so spans reach the benchmark without entering any result.

Clocks: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so span start
stamps of different processes on one machine are comparable.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class SpanSpec:
    """One wrapped callable: ``module:qualname`` recorded as span ``name``."""

    module: str
    qualname: str
    name: str
    #: ``hook(tracer, args, result)`` runs after a successful call and adds
    #: the layer's work counts; its own cost lands in the enclosing span.
    hook: Callable[["Tracer", tuple, Any], None] | None = None
    #: Keep every call's (start, seconds, label, probe seconds) entry, for
    #: per-kernel latency and worker busy windows.
    timeline: bool = False
    #: ``label(args)`` names a timeline entry (e.g. the kernel of a job).
    label: Callable[[tuple], str] | None = None
    #: Time :func:`reference_probe` just before each call, outside the span.
    probe: bool = False


#: The probe's time on an idle 2-vCPU VM.  Normalised timings are scaled
#: to it, so they read as seconds on that machine when it is idle.
PROBE_NOMINAL_S = 0.0002


class _Num:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class _Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left, right):
        self.op, self.left, self.right = op, left, right


def _build(depth: int, seed: int):
    if depth == 0:
        return _Num(seed % 13)
    return _Bin("+-*"[seed % 3], _build(depth - 1, seed * 5 + 1),
                _build(depth - 1, seed * 7 + 3))


def _evaluate(node, counts: dict) -> int:
    if isinstance(node, _Num):
        return node.value
    left, right = _evaluate(node.left, counts), _evaluate(node.right, counts)
    key = (node.op, left & 7)
    counts[key] = counts.get(key, 0) + 1
    if node.op == "+":
        return (left + right) & 0xFFFF
    return (left - right if node.op == "-" else left * right) & 0xFFFF


def reference_probe() -> float:
    """Seconds a fixed tree build-and-evaluate takes now: the machine's speed.

    Neighbours on a shared host slow this program by up to 60% for tens of
    seconds at a time.  The probe does the same kind of work as the
    pipeline (small objects, attribute loads, recursion, dict updates), so
    it slows by about the same factor; timed right before each kernel, in
    the same process, it sees the same spell, and a kernel's time divided
    by its probe's is steady.  Interleaved this way it cut the spread of
    a campaign's kernel time from 17% to 2%, where a plain integer loop
    reached 5%.  The probe is frozen here, so no change to ``src/`` can
    make it faster or slower.
    """
    began = time.perf_counter()
    counts: dict = {}
    tree = _build(7, 1)
    for _ in range(2):
        _evaluate(tree, counts)
    return time.perf_counter() - began


class Tracer:
    """Span aggregates of one process: calls, self seconds and work counts."""

    def __init__(self, spool_dir: Path | None = None):
        self.spool_dir = spool_dir
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._clause_marks: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.clear()
        os.register_at_fork(after_in_child=self.clear)

    def clear(self) -> None:
        """Drop every aggregate (also run in a freshly forked worker)."""
        self.pid = os.getpid()
        self._stack.clear()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set[str]] = defaultdict(set)
        self.timeline: dict[str, list[tuple]] = defaultdict(list)
        #: Summed durations of outermost spans: must equal the sum of self
        #: times, or a span was counted twice.
        self.root_s = 0.0

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, spec: SpanSpec, fn: Callable) -> Callable:
        stack = self._stack
        name, hook, keep, label = spec.name, spec.hook, spec.timeline, spec.label
        probe = spec.probe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            probe_s = reference_probe() if probe else None
            stack.append([0.0])
            began = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - began
                children = stack.pop()[0]
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_s += elapsed
                if keep:
                    self.timeline[name].append(
                        (began, elapsed, label(args) if label else None, probe_s))
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self, specs: list[SpanSpec], package: str = "repro") -> None:
        """Wrap every spec, rebinding all aliases inside ``package``."""
        for spec in specs:
            module = importlib.import_module(spec.module)
            owner_name, _, attr = spec.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original, self.wrap(spec, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(spec, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").partition(".")[0] != package:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._rebind(loaded, key, original, wrapped)

    def _rebind(self, owner: object, attr: str, original: object,
                wrapped: Callable) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- hand-off between processes ------------------------------------------------

    def snapshot(self) -> dict:
        """The aggregates as JSON-able data (distinct texts as digests)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "distinct": {name: sorted(hashlib.sha1(text.encode()).hexdigest()
                                      for text in texts)
                         for name, texts in self.distinct.items()},
            "timeline": {name: list(entries) for name, entries in self.timeline.items()},
            "root_s": self.root_s,
        }

    def spool(self) -> None:
        """Write this process's cumulative aggregates to the spool directory."""
        if self.spool_dir is None:
            return
        path = self.spool_dir / f"worker-{self.pid}.json"
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(scratch, path)


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Sum aggregates of several processes into one fleet-wide snapshot."""
    merged: dict = {"calls": defaultdict(int), "self_s": defaultdict(float),
                    "counts": defaultdict(int), "distinct": defaultdict(set),
                    "timeline": defaultdict(list), "root_s": 0.0,
                    "processes": len(snapshots)}
    for snap in snapshots:
        for key in ("calls", "self_s", "counts"):
            for name, value in snap[key].items():
                merged[key][name] += value
        for name, digests in snap["distinct"].items():
            merged["distinct"][name].update(digests)
        for name, entries in snap["timeline"].items():
            merged["timeline"][name].append([tuple(entry) for entry in entries])
        merged["root_s"] += snap["root_s"]
    return merged


# ---------------------------------------------------------------------------
# the layers: which public functions are spans, and what each one counts
# ---------------------------------------------------------------------------


def _count_tokens(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["cfront.tokens"] += len(result)


def _note_parse(tracer: Tracer, args: tuple, result) -> None:
    tracer.distinct["cfront.parse"].add(args[0])


def _count_flags(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["staticcheck.flags"] += sum(
        1 for diagnostic in result.diagnostics if diagnostic.severity.value == "error")


def _count_steps(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["interp.steps"] += result.steps


def _count_clauses(tracer: Tracer, args: tuple, result) -> None:
    # Problem clauses handed to this solver since its previous solve call.
    solver = args[0]
    total = len(solver.clauses)
    tracer.counts["smt.sat_clauses"] += total - tracer._clause_marks.get(solver, 0)
    tracer._clause_marks[solver] = total


def _count_completions(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["llm.completions"] += len(result)


def _count_attempts(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["agents.attempts"] += result.attempts
    tracer.counts["agents.accepted"] += int(result.accepted)


def _spool_batch(tracer: Tracer, args: tuple, result) -> None:
    tracer.spool()


_JOB = SpanSpec("repro.pipeline.campaign", "vectorize_kernel_job", "pipeline.job",
                timeline=True, label=lambda args: args[0].kernel)
_BATCH = SpanSpec("repro.pipeline.scheduler", "run_task_batch", "pipeline.batch",
                  hook=_spool_batch, timeline=True)

#: Spans of an untraced run: per-kernel time to verdict with the probe
#: before each job and, in pool workers, the spool that ships them home.
TIMING_SPANS = [replace(_JOB, probe=True), _BATCH]

#: Spans of the traced run, one group per ``src/repro`` package (no probe,
#: so its cost never lands in ``pipeline.engine_s``).
LAYER_SPANS = [_JOB, _BATCH,
    SpanSpec("repro.cfront.lexer", "tokenize", "cfront.lex", hook=_count_tokens),
    SpanSpec("repro.cfront.cparser", "parse_function", "cfront.parse",
             hook=_note_parse),
    SpanSpec("repro.staticcheck.checker", "check_candidate", "staticcheck.check",
             hook=_count_flags),
    SpanSpec("repro.vectorizer.planner", "plan_vectorization", "vectorizer.plan"),
    SpanSpec("repro.vectorizer.codegen", "vectorize_kernel", "vectorizer.codegen"),
    SpanSpec("repro.interp.interpreter", "run_function", "interp.run",
             hook=_count_steps),
    SpanSpec("repro.interp.checksum", "checksum_testing", "interp.checksum"),
    SpanSpec("repro.alive.symexec", "execute_symbolically", "alive.symexec"),
    SpanSpec("repro.alive.verifier", "AliveVerifier.check_with_alive_unroll",
             "alive.unroll"),
    SpanSpec("repro.alive.verifier", "AliveVerifier.check_with_c_unroll",
             "alive.cunroll"),
    SpanSpec("repro.alive.verifier", "AliveVerifier.check_with_spatial_splitting",
             "alive.spatial"),
    SpanSpec("repro.smt.equiv", "EquivalenceChecker.check_pair", "smt.check"),
    SpanSpec("repro.smt.equiv", "EquivalenceChecker.check_pairs", "smt.check"),
    SpanSpec("repro.smt.sat", "CDCLSolver.solve", "smt.sat", hook=_count_clauses),
    SpanSpec("repro.llm.synthetic", "SyntheticLLM.complete", "llm.complete",
             hook=_count_completions),
    SpanSpec("repro.agents.fsm", "VectorizationFSM.run", "agents.fsm",
             hook=_count_attempts),
    SpanSpec("repro.tsvc.loader", "load_kernel", "tsvc.load"),
    SpanSpec("repro.pipeline.equivalence", "EquivalencePipeline.check_equivalence",
             "pipeline.equivalence"),
    SpanSpec("repro.pipeline.scheduler", "warm_worker", "pipeline.warm_worker",
             timeline=True),
]

#: Which record ``deciding_stage`` each Table 3 funnel counter tallies.
DECIDING_STAGES = {"alive.decided_by_unroll": "alive-unroll",
                   "alive.decided_by_cunroll": "c-unroll",
                   "alive.decided_by_spatial": "spatial-splitting"}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(fleet: dict, *, wall_s: float, run_end: float,
                  summary: dict, stages: list[str | None]) -> dict[str, float]:
    """Per-layer metrics of one traced campaign.

    ``fleet`` is the merged snapshot of every process that ran layer code
    (the campaign process plus any pool workers); ``run_end`` is the
    ``perf_counter`` stamp at which the campaign returned.  Layer self
    times partition process-seconds — ``wall_s`` times the number of
    processes — and ``pipeline.engine_s`` is what no span covers.
    """
    calls, self_s, counts = fleet["calls"], fleet["self_s"], fleet["counts"]

    def spent(name: str) -> float:
        return self_s.get(name, 0.0)

    parse_distinct = len(fleet["distinct"].get("cfront.parse", ()))
    pooled = summary["batches"] > 0
    busy_span = "pipeline.batch" if pooled else "pipeline.job"
    busy_lines = [entries for entries in fleet["timeline"].get(busy_span, []) if entries]
    metrics = {
        "cfront.lex_calls": calls.get("cfront.lex", 0),
        "cfront.lex_self_s": spent("cfront.lex"),
        "cfront.tokens": counts.get("cfront.tokens", 0),
        "cfront.tokens_per_s": _rate(counts.get("cfront.tokens", 0), spent("cfront.lex")),
        "cfront.parse_calls": calls.get("cfront.parse", 0),
        "cfront.parse_distinct": parse_distinct,
        "cfront.parse_self_s": spent("cfront.parse"),
        "cfront.parse_dup_ratio": _rate(calls.get("cfront.parse", 0), parse_distinct),
        "staticcheck.calls": calls.get("staticcheck.check", 0),
        "staticcheck.self_s": spent("staticcheck.check"),
        "staticcheck.flags": counts.get("staticcheck.flags", 0),
        "vectorizer.plan_calls": calls.get("vectorizer.plan", 0),
        "vectorizer.plan_self_s": spent("vectorizer.plan"),
        "vectorizer.codegen_calls": calls.get("vectorizer.codegen", 0),
        "vectorizer.codegen_self_s": spent("vectorizer.codegen"),
        "vectorizer.plancache_hit_rate": summary["plan_cache_hit_rate"],
        "interp.run_calls": calls.get("interp.run", 0),
        "interp.run_self_s": spent("interp.run"),
        "interp.steps": counts.get("interp.steps", 0),
        "interp.steps_per_s": _rate(counts.get("interp.steps", 0), spent("interp.run")),
        "interp.checksum_calls": calls.get("interp.checksum", 0),
        "interp.checksum_self_s": spent("interp.checksum"),
        "alive.symexec_calls": calls.get("alive.symexec", 0),
        "alive.symexec_self_s": spent("alive.symexec"),
        "alive.unroll_calls": calls.get("alive.unroll", 0),
        "alive.unroll_self_s": spent("alive.unroll"),
        "alive.cunroll_calls": calls.get("alive.cunroll", 0),
        "alive.cunroll_self_s": spent("alive.cunroll"),
        "alive.spatial_calls": calls.get("alive.spatial", 0),
        "alive.spatial_self_s": spent("alive.spatial"),
        **{metric: sum(1 for stage in stages if stage == deciding)
           for metric, deciding in DECIDING_STAGES.items()},
        "smt.check_calls": calls.get("smt.check", 0),
        "smt.check_self_s": spent("smt.check"),
        "smt.sat_calls": calls.get("smt.sat", 0),
        "smt.sat_self_s": spent("smt.sat"),
        "smt.propagations": summary["solver"].get("propagations", 0),
        "smt.conflicts": summary["solver"].get("conflicts", 0),
        "smt.propagations_per_s": _rate(summary["solver"].get("propagations", 0),
                                        spent("smt.sat")),
        "smt.sat_clauses": counts.get("smt.sat_clauses", 0),
        "smt.solvecache_hit_rate": summary["solve_cache_hit_rate"],
        "llm.complete_calls": calls.get("llm.complete", 0),
        "llm.complete_self_s": spent("llm.complete"),
        "llm.completions": counts.get("llm.completions", 0),
        "agents.fsm_runs": calls.get("agents.fsm", 0),
        "agents.fsm_self_s": spent("agents.fsm"),
        "agents.attempts": counts.get("agents.attempts", 0),
        "agents.accepted_per_attempt": _rate(counts.get("agents.accepted", 0),
                                             counts.get("agents.attempts", 0)),
        "tsvc.load_calls": calls.get("tsvc.load", 0),
        "tsvc.load_self_s": spent("tsvc.load"),
        "pipeline.job_self_s": spent("pipeline.job"),
        "pipeline.equivalence_self_s": spent("pipeline.equivalence"),
        "pipeline.batch_self_s": spent("pipeline.batch"),
        "pipeline.batches": summary["batches"],
        # Inclusive: the parses warming does are its whole point.
        "pipeline.warm_worker_s": sum(seconds for entries in fleet["timeline"].get(
            "pipeline.warm_worker", []) for _, seconds, *_ in entries),
        "pipeline.worker_busy_s": sum(seconds for entries in busy_lines
                                      for _, seconds, *_ in entries),
        "pipeline.tail_idle_s": sum(run_end - max(start + seconds
                                                  for start, seconds, *_ in entries)
                                    for entries in busy_lines),
    }
    processes = fleet["processes"]
    metrics["pipeline.engine_s"] = wall_s * processes - sum(self_s.values())
    return metrics


def check_partition(fleet: dict, metrics: dict[str, float], wall_s: float) -> list[str]:
    """Problems with the traced run's accounting (empty when it is sound).

    Self times must be non-negative, must sum to the outermost spans'
    durations (nothing counted twice), and with ``pipeline.engine_s`` must
    add up to the process-seconds of the campaign.
    """
    problems = []
    tolerance = 1e-6 * max(1, sum(fleet["calls"].values()))
    negative = {name: seconds for name, seconds in fleet["self_s"].items()
                if seconds < -tolerance}
    if negative:
        problems.append(f"negative self time: {negative}")
    total_self = sum(fleet["self_s"].values())
    if abs(total_self - fleet["root_s"]) > tolerance:
        problems.append(f"self times sum to {total_self:.6f}s but outermost spans "
                        f"cover {fleet['root_s']:.6f}s")
    if metrics["pipeline.engine_s"] < -tolerance:
        problems.append(f"spans cover more than the campaign's process-seconds "
                        f"(engine {metrics['pipeline.engine_s']:.6f}s)")
    covered = total_self + metrics["pipeline.engine_s"]
    if abs(covered - wall_s * fleet["processes"]) > tolerance:
        problems.append(f"self + engine = {covered:.6f}s, expected "
                        f"{wall_s * fleet['processes']:.6f}s")
    return problems
