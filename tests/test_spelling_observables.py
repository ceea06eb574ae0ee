"""Pinned answers of every question asked about an intrinsic spelling.

Four layers ask what a spelling such as ``_mm256_add_epi32`` means: the
interpreter, the symbolic executor, the verifier and the static vetter.
These pins hold their answers, so that the lookup behind them can change
while the answers stay the same:

* ``spellings``: every spelling any target emits, plus ``UNKNOWN`` ones:
  the (target, dtype) registry whose spec ``lookup_intrinsic`` returns at
  each dtype context of ``CONTEXTS`` (or ``KeyError``),
  ``resolve_intrinsic``, each target's ``op_of``, ``dtype_of_spelling`` and
  ``is_intrinsic``;
* ``registries``: every (target, dtype) registry, spec by spec;
* ``candidates``: the generator's candidate for every kernel at every
  target × dtype × epilogue, and the int32 fault mutants (``Random(0)`` per
  candidate, every applicable fault kind) of ``MUTANT_TARGETS``: a digest
  of the vetter's report, then ``detect_target``,
  ``contains_known_intrinsics`` and the verifier's ``_candidate_lanes``.

Everything is compared with ``tests/data/spelling_observables.json``.
``TestOneSpellingIndex`` keeps the deleted reverse maps and lookups from
growing back, and checks that each spec object exists once.  Re-pin only
for a deliberate change to a target's op tables or the registry, with::

    PYTHONPATH=src python tests/test_spelling_observables.py --write
"""

from __future__ import annotations

import ast as pyast
import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.alive.verifier import _candidate_lanes
from repro.intrinsics import is_intrinsic, lookup_intrinsic, registry_for
from repro.lanetypes import ALL_LANE_TYPES, get_lane_type
from repro.llm.faults import applicable_faults, apply_fault
from repro.staticcheck import check_candidate
from repro.targets import (
    ALL_TARGETS,
    TargetISA,
    UnknownIntrinsicName,
    contains_known_intrinsics,
    detect_target,
    dtype_of_spelling,
    known_intrinsic_spellings,
    resolve_intrinsic,
)
from repro.tsvc import all_kernel_names, load_kernel
from repro.vectorizer.planner import EPILOGUE_STRATEGIES
from repro.vectorizer.plancache import cached_parse, cached_vectorize

PINS = Path(__file__).parent / "data" / "spelling_observables.json"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The dtype contexts each spelling is looked up under.
CONTEXTS = (None, "int16", "int32", "int64")
#: Spellings no target emits: another width's grammar, the gather spellings
#: the synthetic LLM invents, and a plain C function.
UNKNOWN = ("_mm999_blendv_epi8", "foo",
           *(target.bogus_gather_spelling for target in ALL_TARGETS))
DTYPES = tuple(lane_type.name for lane_type in ALL_LANE_TYPES)
#: Targets whose int32 candidates are mutated: one x86 and one
#: predicate-first target (a subset keeps tier-1 fast).
MUTANT_TARGETS = ("avx2", "sve256")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _spec_fields(spec) -> str:
    fn = spec.fn.__qualname__ if spec.fn is not None else "-"
    return (f"{spec.target} {spec.dtype} {spec.op} {spec.kind} "
            f"arity={spec.arity} lanes={spec.lanes} fn={fn}")


def _answer(call, *args) -> str:
    try:
        return str(call(*args))
    except KeyError as exc:
        return type(exc).__name__


def spelling_observables(name: str) -> str:
    """Every answer about one spelling, as one line: ``resolve_intrinsic``,
    ``dtype_of_spelling``, ``is_intrinsic``, the targets whose ``op_of``
    answers, and the (target, dtype) registry of each context's lookup."""
    def resolved(spelling):
        owner, op = resolve_intrinsic(spelling)
        return f"{owner.name} {op}"

    def dtype_of(spelling):
        lane_type = dtype_of_spelling(spelling)
        return None if lane_type is None else lane_type.name

    def looked_up(context):
        spec = lookup_intrinsic(name, context)
        return f"{spec.target}/{spec.dtype}"

    op_of = {target.name: _answer(target.op_of, name) for target in ALL_TARGETS}
    answering = " ".join(f"{target}={op}" for target, op in op_of.items()
                         if op != "UnknownIntrinsicName")
    lookups = " ".join(f"{context}={_answer(looked_up, context)}" for context in CONTEXTS)
    return (f"resolve={_answer(resolved, name)}; dtype={_answer(dtype_of, name)}; "
            f"is_intrinsic={is_intrinsic(name)}; op_of={answering or '-'}; {lookups}")


def registry_observables() -> dict[str, list[str]]:
    return {
        f"{target.name}/{dtype}": [_spec_fields(spec)
                                   for _, spec in sorted(registry_for(target, dtype).items())]
        for target in ALL_TARGETS for dtype in DTYPES
    }


def _candidate_observable(source: str, target: str, dtype: str, epilogue: str,
                          scalar: str) -> str:
    """``<report sha> <detected target> <mentions spellings> <lanes>``."""
    report = check_candidate(source, target=target, dtype=dtype, epilogue=epilogue,
                             scalar_source=scalar)
    digest = _sha(json.dumps(report.as_dict(), sort_keys=True))[:12]
    lanes = _candidate_lanes(cached_parse(source), get_lane_type(dtype))
    return (f"{digest} {detect_target(source).name} "
            f"{int(contains_known_intrinsics(source))} {lanes}")


def candidates() -> list[tuple[str, str, str, str, str, str]]:
    """``(target, dtype, epilogue, kernel, candidate, scalar)`` of every
    generated candidate."""
    table = []
    for target in ALL_TARGETS:
        for dtype in DTYPES:
            for epilogue in EPILOGUE_STRATEGIES:
                for kernel in all_kernel_names():
                    scalar = load_kernel(kernel, dtype=dtype).source
                    result = cached_vectorize(scalar, cached_parse(scalar), target,
                                              epilogue=epilogue)
                    if result is not None:
                        table.append((target.name, dtype, epilogue, kernel,
                                      result.source, scalar))
    return table


def candidate_observables() -> dict[str, dict[str, str]]:
    """``target/dtype/epilogue`` -> kernel -> observable, with each mutant
    keyed ``kernel:fault`` under ``.../mutants``."""
    table: dict[str, dict[str, str]] = {}
    for target, dtype, epilogue, kernel, source, scalar in candidates():
        group = f"{target}/{dtype}/{epilogue}"
        table.setdefault(group, {})[kernel] = _candidate_observable(
            source, target, dtype, epilogue, scalar)
        if dtype != "int32" or target not in MUTANT_TARGETS:
            continue
        rng = random.Random(0)
        mutants = table.setdefault(f"{group}/mutants", {})
        for kind in applicable_faults(source):
            mutant = apply_fault(source, kind, rng)
            mutants[f"{kernel}:{kind.value}"] = _candidate_observable(
                mutant, target, dtype, epilogue, scalar)
    return table


def observables() -> dict:
    names = sorted(known_intrinsic_spellings()) + list(UNKNOWN)
    return {
        "spellings": {name: spelling_observables(name) for name in names},
        "registries": registry_observables(),
        "candidates": candidate_observables(),
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def _changed(observed: dict, pinned: dict) -> list[str]:
    assert sorted(observed) == sorted(pinned)
    return sorted(key for key, value in observed.items() if pinned[key] != value)


def test_every_spellings_answers_are_pinned(pins):
    names = sorted(known_intrinsic_spellings()) + list(UNKNOWN)
    observed = {name: spelling_observables(name) for name in names}
    assert _changed(observed, pins["spellings"]) == []
    assert all("is_intrinsic=False" in observed[name] for name in UNKNOWN)


def test_every_registry_is_pinned(pins):
    assert _changed(registry_observables(), pins["registries"]) == []


def test_every_candidates_vetting_and_lanes_are_pinned(pins):
    observed = candidate_observables()
    assert sum(map(len, observed.values())) >= 2400
    changed = {group: _changed(table, pins["candidates"][group])
               for group, table in observed.items()}
    assert sorted(observed) == sorted(pins["candidates"])
    assert {group: keys for group, keys in changed.items() if keys} == {}


class TestOneSpellingIndex:
    """Regrowth guard: ``repro.targets`` holds the one reverse index of the
    targets' op tables, and the registry holds each spec object once."""

    DELETED = {"_MERGED_BY_DTYPE", "INTRINSIC_REGISTRY", "registry_for_dtype",
               "_build_merged_registry", "_SPELLING_DTYPES", "_build_spelling_dtypes",
               "_ops_by_name", "_ops_by_name_all", "_spec_of", "_auxiliary_spec"}

    def test_no_module_mentions_a_deleted_name(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (pyast.ClassDef, pyast.FunctionDef)):
                    name = node.name
                elif isinstance(node, pyast.Name):
                    name = node.id
                elif isinstance(node, pyast.Attribute):
                    name = node.attr
                elif isinstance(node, pyast.alias):
                    name = node.name
                elif isinstance(node, pyast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name in self.DELETED:
                    offenders.append(f"{path.relative_to(SRC)}:{name}")
        assert offenders == []

    def test_targets_carry_no_prefix(self):
        assert "prefix" not in {field.name for field in dataclasses.fields(TargetISA)}

    def test_every_lookup_returns_the_registrys_own_spec(self):
        specs = {id(spec) for target in ALL_TARGETS for dtype in DTYPES
                 for spec in registry_for(target, dtype).values()}
        assert len(specs) == 444
        for name in known_intrinsic_spellings():
            owner, _op = resolve_intrinsic(name)
            spelled_at = [dtype for dtype in DTYPES if name in registry_for(owner, dtype)]
            assert spelled_at, name
            for dtype in spelled_at:
                assert lookup_intrinsic(name, dtype) is registry_for(owner, dtype)[name]
            for context in CONTEXTS:
                assert id(lookup_intrinsic(name, context)) in specs

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_a_spelling_claimed_twice_fails_the_build(self, monkeypatch, op):
        # Another target spelling AVX2's ``add`` for the same op or another.
        import repro.targets.isa as isa

        sse4 = isa.SSE4
        clash = dataclasses.replace(sse4, op_names={**sse4.op_names,
                                                    op: isa.AVX2.intrinsic("add")})
        monkeypatch.setattr(isa, "ALL_TARGETS", (isa.AVX2, clash))
        with pytest.raises(RuntimeError, match="_mm256_add_epi32"):
            isa._build_spelling_index()

    def test_an_unknown_spelling_raises_everywhere(self):
        for name in UNKNOWN:
            with pytest.raises(UnknownIntrinsicName):
                resolve_intrinsic(name)
            with pytest.raises(UnknownIntrinsicName):
                dtype_of_spelling(name)
            with pytest.raises(KeyError):
                lookup_intrinsic(name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PINS.parent.mkdir(exist_ok=True)
    table = observables()
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['spellings'])} spellings, {len(table['registries'])} "
          f"registries and {sum(map(len, table['candidates'].values()))} candidates "
          f"to {PINS}")
