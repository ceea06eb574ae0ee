"""Pinned observables of the multi-agent FSM and of RQ1's sampled batches.

Every TSVC kernel's FSM runs as the campaign's vectorize job builds it: a
fresh :class:`SyntheticLLM` seeded with ``derive_kernel_seed(2024, kernel)``
and ``RunSpec(target=...)``, once on AVX2 and once on NEON.  Per kernel the
pins hold ``accepted``, ``attempts``, ``llm_invocations``, each attempt's
outcome, and one digest over every attempt's candidate sha256, LLM
annotations, static flags and summary, and the sha256 of the prompt the LLM
received for it (the opening prompt with its dependence report, then each
repair prompt with the tester's feedback).  ``SCREEN_RUNS`` force each
applicable fault kind on a few kernels under ``static_check="screen"``, so
static rejections and the vetter's feedback are pinned too.  ``RQ1_KERNELS``
pin the checksum-evaluation record of 12 sampled completions on both
targets.  Everything is compared with ``tests/data/fsm_observables.json``.

The pins guard the agent loop: which prompt each turn sends, which candidate
comes back, how the tester judges it and what the repair prompt carries.
``TestTypedAgentTurns`` keeps the deleted message envelope and settings from
growing back.  Re-pin only for a deliberate change, with::

    PYTHONPATH=src python tests/test_fsm_observables.py --write
"""

from __future__ import annotations

import ast as pyast
import dataclasses
import hashlib
import inspect
import json
import sys
from pathlib import Path

import pytest

from repro.agents.fsm import FSMConfig, VectorizationFSM
from repro.alive.verifier import AliveVerifier
from repro.experiments.checksum_eval import run_checksum_evaluation
from repro.interp.memory import Memory
from repro.llm.client import CompletionRequest
from repro.llm.faults import FaultKind, FaultProfile, applicable_faults
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
from repro.pipeline import CampaignConfig, CampaignRunner, derive_kernel_seed
from repro.runspec import RunSpec
from repro.tsvc import all_kernel_names, load_kernel
from repro.vectorizer.plancache import cached_parse, cached_vectorize

PINS = Path(__file__).parent / "data" / "fsm_observables.json"
TARGETS = ("avx2", "neon")
LLM_SEED = 2024

#: (target, epilogue, kernels) of the screen-mode runs; every fault kind
#: applicable to a kernel's candidate is forced on every attempt.
SCREEN_RUNS = (
    ("avx2", "scalar", ("s000", "s271", "s311", "s453", "s3111", "vsumr")),
    ("sve256", "predicated", ("s000", "s271", "s441")),
)
SCREEN_ATTEMPTS = 3

RQ1_KERNELS = ("s000", "s111", "s1112", "s1119", "s112", "s121", "s123", "s1244",
               "s212", "s241", "s271", "s2711", "s311", "s3111", "s321", "s341",
               "s453", "s481", "vif", "vsumr")
RQ1_COMPLETIONS = 12


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class _PromptRecorder(SyntheticLLM):
    """The synthetic LLM, noting the sha256 of every prompt it is sent."""

    def __init__(self, config: SyntheticLLMConfig):
        super().__init__(config)
        self.prompt_shas: list[str] = []

    def complete(self, request):
        self.prompt_shas.append(_sha(request.prompt))
        return super().complete(request)


def fsm_observables(kernel: str, spec: RunSpec, profile: FaultProfile | None = None,
                    max_attempts: int = 10) -> dict:
    """What one FSM run shows: its counts, outcomes and a digest of each turn."""
    config = SyntheticLLMConfig(seed=derive_kernel_seed(LLM_SEED, kernel))
    if profile is not None:
        config = dataclasses.replace(config, fault_profile=profile)
    llm = _PromptRecorder(config)
    source = load_kernel(kernel).source
    result = VectorizationFSM(llm, kernel, source, FSMConfig(max_attempts=max_attempts),
                              spec=spec).run()
    assert len(llm.prompt_shas) == len(result.history)
    turns = [
        {"attempt": record.attempt, "candidate_sha": _sha(record.candidate_code),
         "llm_annotations": record.llm_annotations, "static_flags": record.static_flags,
         "static_summary": record.static_summary, "prompt_sha": prompt_sha}
        for record, prompt_sha in zip(result.history, llm.prompt_shas)
    ]
    assert result.final_code == (result.history[-1].candidate_code if result.accepted else None)
    return {
        "accepted": result.accepted,
        "attempts": result.attempts,
        "llm_invocations": result.llm_invocations,
        "outcomes": " ".join(record.outcome.value for record in result.history),
        "turns_sha": _sha(json.dumps(turns, sort_keys=True)),
    }


def suite_observables(target: str) -> dict[str, dict]:
    spec = RunSpec(target=target)
    return {kernel: fsm_observables(kernel, spec) for kernel in all_kernel_names()}


def screen_observables() -> dict[str, dict]:
    """``target/kernel/fault`` -> the observables of one forced-fault screen run."""
    table = {}
    for target, epilogue, kernels in SCREEN_RUNS:
        spec = RunSpec(target=target, epilogue=epilogue, static_check="screen")
        for kernel in kernels:
            source = load_kernel(kernel).source
            candidate = cached_vectorize(source, cached_parse(source), target,
                                         epilogue=epilogue).source
            for kind in applicable_faults(candidate):
                profile = FaultProfile(base_fault_rate=1.0, with_dependence_info_rate=1.0,
                                       with_feedback_rate=1.0, kind_weights={kind: 1.0})
                table[f"{target}/{kernel}/{kind.value}"] = fsm_observables(
                    kernel, spec, profile, max_attempts=SCREEN_ATTEMPTS)
    return table


def rq1_records(target: str) -> dict[str, dict]:
    """kernel -> its checksum-evaluation record at ``RQ1_COMPLETIONS`` completions."""
    evaluation = run_checksum_evaluation(
        num_completions=RQ1_COMPLETIONS, kernels=list(RQ1_KERNELS),
        llm=SyntheticLLM(SyntheticLLMConfig(seed=LLM_SEED)),
        campaign=CampaignRunner(CampaignConfig(workers=1, target=target)))
    return {
        record.kernel: {
            "outcomes": " ".join(outcome.value for outcome in record.outcomes),
            "first_plausible_code_sha": (_sha(record.first_plausible_code)
                                         if record.first_plausible_code is not None else None),
        }
        for record in evaluation.records
    }


def observables() -> dict:
    return {
        "suite": {target: suite_observables(target) for target in TARGETS},
        "screen": screen_observables(),
        "rq1": {target: rq1_records(target) for target in TARGETS},
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def _changed(observed: dict, pinned: dict) -> list[str]:
    assert sorted(observed) == sorted(pinned)
    return sorted(key for key, value in observed.items() if pinned[key] != value)


@pytest.mark.parametrize("target", TARGETS)
def test_every_kernels_fsm_turns_are_pinned(target, pins):
    assert _changed(suite_observables(target), pins["suite"][target]) == []


def test_screen_mode_rejections_and_feedback_are_pinned(pins):
    observed = screen_observables()
    assert _changed(observed, pins["screen"]) == []
    outcomes = {outcome for run in observed.values() for outcome in run["outcomes"].split()}
    assert "static_reject" in outcomes
    assert any(key.endswith(f"/{FaultKind.UNGOVERNED_MEMORY.value}") for key in observed)


@pytest.mark.parametrize("target", TARGETS)
def test_rq1_records_are_pinned(target, pins):
    assert _changed(rq1_records(target), pins["rq1"][target]) == []


class TestTypedAgentTurns:
    """Regrowth guard: the agents take typed turns, with no message envelope,
    and no layer declares a setting that no caller sets."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
    DELETED = {"Agent", "Message", "FSMState", "respond", "conversation",
               "run_fsm_on_kernel", "VerifierConfig"}

    def test_no_module_defines_a_deleted_name(self):
        offenders = []
        for path in sorted(self.SRC.rglob("*.py")):
            for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (pyast.ClassDef, pyast.FunctionDef)):
                    name = node.name
                elif isinstance(node, pyast.Name) and isinstance(node.ctx, pyast.Store):
                    name = node.id
                elif isinstance(node, pyast.Attribute) and isinstance(node.ctx, pyast.Store):
                    name = node.attr
                else:
                    continue
                if name in self.DELETED:
                    offenders.append(f"{path.relative_to(self.SRC)}:{node.lineno}:{name}")
        assert offenders == []

    def test_only_the_settings_a_caller_sets_remain(self):
        assert [f.name for f in dataclasses.fields(FSMConfig)] == ["max_attempts"]
        assert "feedback" not in {f.name for f in dataclasses.fields(CompletionRequest)}
        assert list(inspect.signature(run_checksum_evaluation).parameters) == [
            "num_completions", "kernels", "llm", "campaign"]
        assert list(inspect.signature(AliveVerifier).parameters) == ["trip_count"]
        assert "strict" not in inspect.signature(Memory).parameters


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PINS.parent.mkdir(exist_ok=True)
    table = observables()
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table['suite'].values()))} FSM runs, "
          f"{len(table['screen'])} screen runs and "
          f"{sum(map(len, table['rq1'].values()))} RQ1 records to {PINS}")
