"""Pinned interpreter observables on the default checksum suite.

Every TSVC scalar kernel runs on the checksum tester's default test suite
(seed 0, trip counts 16/32/64, values in [-1000, 1000]), and so do three of
its generated candidates: the AVX2 scalar-epilogue candidate, the AVX2
masked-epilogue candidate and the SVE256 predicated-loop candidate (the only
users of maskload/maskstore and pload/pstore).  Each run is reduced to its
outputs, its UB events in order, its step count, its ``op_counts`` in
first-use order and its return value (or the type and message of the error
it raised), and one digest per program is compared with
``tests/data/interp_observables.json``.

The pins guard the interpreter's observable behaviour: the checksum
verdicts, the Fig. 6 cycle counts (``CostModel.cycles_for`` sums
``op_counts`` in first-use order) and the perf simulator all read these
numbers.  Re-pin only for a deliberate semantic change, with::

    PYTHONPATH=src python tests/test_interp_observables.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.interp.interpreter import run_function
from repro.interp.randominit import InputSpec, make_test_suite
from repro.tsvc import all_kernel_names, load_kernel
from repro.vectorizer.plancache import cached_parse, cached_vectorize

PINS = Path(__file__).parent / "data" / "interp_observables.json"

#: program label -> (target, epilogue) of the generated candidate; None is
#: the scalar kernel itself.
PROGRAMS = {
    "scalar": None,
    "avx2": ("avx2", "scalar"),
    "avx2-masked": ("avx2", "masked"),
    "sve256-predicated": ("sve256", "predicated"),
}


def _observe(func, vector) -> tuple:
    try:
        result = run_function(func, vector.arrays, vector.scalars)
    except Exception as exc:  # the error is an observable too
        return ("raised", type(exc).__name__, str(exc))
    return (
        sorted(result.outputs().items()),
        [(e.kind, e.region, e.index, e.detail) for e in result.ub_events],
        result.steps,
        list(result.op_counts.items()),
        repr(result.return_value),
    )


def kernel_digests(name: str) -> dict[str, str | None]:
    """One digest per program of kernel ``name`` (None: no candidate)."""
    kernel = load_kernel(name)
    suite = make_test_suite(InputSpec.from_function(kernel.function),
                            random.Random(0), value_range=(-1000, 1000))
    digests: dict[str, str | None] = {}
    for label, setting in PROGRAMS.items():
        if setting is None:
            func = kernel.function
        else:
            target, epilogue = setting
            candidate = cached_vectorize(kernel.source, kernel.function,
                                         target=target, epilogue=epilogue)
            if candidate is None:
                digests[label] = None
                continue
            func = cached_parse(candidate.source)
        runs = [_observe(func, vector) for vector in suite]
        digests[label] = hashlib.sha256(repr(runs).encode()).hexdigest()[:20]
    return digests


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_the_whole_suite(pins):
    assert sorted(pins) == sorted(all_kernel_names())
    assert all(sorted(entry) == sorted(PROGRAMS) for entry in pins.values())
    assert all(entry["scalar"] is not None for entry in pins.values())
    # Each generated candidate family is exercised on dozens of kernels.
    for label in PROGRAMS:
        assert sum(entry[label] is not None for entry in pins.values()) >= 40


@pytest.mark.parametrize("name", all_kernel_names())
def test_interpreter_observables_are_pinned(name, pins):
    assert kernel_digests(name) == pins[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PINS.parent.mkdir(exist_ok=True)
    table = {name: kernel_digests(name) for name in all_kernel_names()}
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} kernels to {PINS}")
