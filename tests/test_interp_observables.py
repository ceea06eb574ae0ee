"""Pinned interpreter observables on the default checksum suite.

Every TSVC scalar kernel runs on the checksum tester's default test suite
(seed 0, trip counts 16/32/64, values in [-1000, 1000]), and so do four of
its generated candidates: the AVX2 scalar-epilogue candidate, the AVX2
masked-epilogue candidate, the 4-lane NEON candidate and the SVE256
predicated-loop candidate (the only users of maskload/maskstore and
pload/pstore).  The scalar kernel and its AVX2 candidate also run retyped to
int16 and to int64, whose wraparound and lane counts differ from int32's.
Each run is reduced to its outputs, its UB events in order, its step count,
its ``op_counts`` in first-use order and its return value (or the type and
message of the error it raised), and one digest per program is compared
with ``tests/data/interp_observables.json``.

The hand-written programs in ``SNIPPETS`` run on the same suite and are
pinned the same way.  They reach what no TSVC program does: short-circuit
operators, ternaries, ``do``-``while``, ``break``/``continue``, backward
``goto``, pointer arithmetic, every memory access outside an array's
declared extent, division by zero, errors the interpreter raises, and step
budgets that run out.

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

from repro.cfront.cparser import parse_function
from repro.interp.interpreter import run_function
from repro.interp.randominit import InputSpec, make_test_suite
from repro.tsvc import all_kernel_names, load_kernel
from repro.vectorizer.plancache import cached_parse, cached_vectorize

PINS = Path(__file__).parent / "data" / "interp_observables.json"

#: program label -> (kernel dtype, (target, epilogue) of the generated
#: candidate); None is the scalar kernel itself.
PROGRAMS = {
    "scalar": ("int32", None),
    "avx2": ("int32", ("avx2", "scalar")),
    "avx2-masked": ("int32", ("avx2", "masked")),
    "neon": ("int32", ("neon", "scalar")),
    "sve256-predicated": ("int32", ("sve256", "predicated")),
    "scalar@int16": ("int16", None),
    "avx2@int16": ("int16", ("avx2", "scalar")),
    "scalar@int64": ("int64", None),
    "avx2@int64": ("int64", ("avx2", "scalar")),
}

#: Hand-written programs for the paths no TSVC program takes.  Every array
#: of the suite holds ``4 * n + 8`` elements followed by 16 guard elements,
#: so ``a[4 * n + 8]`` is the first guard element and ``a[4 * n + 24]`` the
#: first element past the guard.
SNIPPETS = {
    "short-circuit": (
        "int f(int *a, int *b, int n) {\n"
        "    int hits = 0;\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        b[i] = a[i] > 0 && (hits += 1) > 0;\n"
        "        b[i] += a[i] < 0 || (hits -= 2) < 0;\n"
        "        if (!(a[i] % 3) || a[i] > 900 && a[i]++) hits = hits * 3 + 1;\n"
        "    }\n"
        "    return hits;\n"
        "}\n"),
    "ternary": (
        "int f(int *a, int *b, int n) {\n"
        "    int s = 0;\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        b[i] = a[i] > 0 ? a[i] : -a[i];\n"
        "        s += (i % 2) ? b[i] : (a[i] < b[i] ? 1 : 2);\n"
        "    }\n"
        "    return s;\n"
        "}\n"),
    "while-and-do-while": (
        "int f(int *a, int *b, int n) {\n"
        "    int i = 0, s = 0;\n"
        "    while (1) {\n"
        "        if (i >= n) break;\n"
        "        i++;\n"
        "        if (a[i] % 2) continue;\n"
        "        s += a[i];\n"
        "    }\n"
        "    i = 0;\n"
        "    do {\n"
        "        i += 1;\n"
        "        if (a[i] > 500) continue;\n"
        "        if (a[i] < -900) break;\n"
        "        b[i] = s - a[i];\n"
        "    } while (i < n);\n"
        "    return s + i;\n"
        "}\n"),
    "backward-goto": (
        "int f(int *a, int *b, int n) {\n"
        "    int i = 0, s = 0;\n"
        "again:\n"
        "    s += a[i];\n"
        "    b[i] = s;\n"
        "    i++;\n"
        "    if (i < n) goto again;\n"
        "    return s;\n"
        "}\n"),
    "pointers": (
        "int f(int *a, int *b, int n) {\n"
        "    int *p = &a[1];\n"
        "    int *q = a + 5;\n"
        "    int *r = &b[n];\n"
        "    *p = *q + 1;\n"
        "    *p += *r;\n"
        "    p = p + 2;\n"
        "    *(p + 1) = p - q;\n"
        "    b[0] = (p == &a[3]) + (q != p) * 2 + (p == q) * 4;\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        *q -= i;\n"
        "        q += 1;\n"
        "        b[i + 1] = *(r - i) + (q - p);\n"
        "    }\n"
        "    return q - &a[0];\n"
        "}\n"),
    "guard-and-before-start": (
        "int f(int *a, int *b, int n) {\n"
        "    int end = 4 * n + 8;\n"
        "    int s = a[end] + a[end + 15];\n"
        "    s += a[-1] + a[-16];\n"
        "    b[end + 3] = s;\n"
        "    b[-2] = s;\n"
        "    a[0] = b[end + 3] + b[-2];\n"
        "    b[end] += 5;\n"
        "    return s;\n"
        "}\n"),
    "far-read": "int f(int *a, int n) { return a[4 * n + 24]; }\n",
    "far-read-before-start": "int f(int *a, int n) { int s = a[0]; return s + a[-17]; }\n",
    "far-write": "void f(int *a, int n) { a[n] = 1; a[4 * n + 24] = 2; }\n",
    # The far access is the fifth step, one past these snippets' budgets:
    # it must raise its own error before its step is charged.
    "far-read-on-the-last-step": "int f(int *a, int n) { return a[4 * n + 24]; }\n",
    "far-write-on-the-last-step": "void f(int *a, int n) { a[4 * n + 24] = 0; }\n",
    "poison-store": (
        "#include <immintrin.h>\n"
        "void f(int *a, int *b, int n) {\n"
        "    __m256i v = _mm256_loadu_si256((__m256i *)&a[4 * n + 4]);\n"
        "    _mm256_storeu_si256((__m256i *)&b[0], v);\n"
        "    _mm256_storeu_si256((__m256i *)&b[8], _mm256_add_epi32(v, v));\n"
        "    b[16] = _mm256_extract_epi32(v, 6) + b[3] + b[4];\n"
        "}\n"),
    "vector-across-the-end": (
        "#include <immintrin.h>\n"
        "void f(int *a, int *b, int n) {\n"
        "    int end = 4 * n + 8;\n"
        "    __m256i v = _mm256_loadu_si256((__m256i *)&a[end - 4]);\n"
        "    _mm256_storeu_si256((__m256i *)&b[end - 2], _mm256_set1_epi32(7));\n"
        "    _mm256_storeu_si256((__m256i *)&b[end - 12], v);\n"
        "    __m256i w = _mm256_loadu_si256((__m256i *)&a[-3]);\n"
        "    _mm256_storeu_si256((__m256i *)&b[-5], w);\n"
        "    a[0] = _mm256_extract_epi32(v, 5) + _mm256_extract_epi32(w, 4);\n"
        "}\n"),
    "vector-past-the-guard": (
        "#include <immintrin.h>\n"
        "void f(int *a, int *b, int n) {\n"
        "    __m256i v = _mm256_loadu_si256((__m256i *)&a[4 * n + 20]);\n"
        "    _mm256_storeu_si256((__m256i *)&b[4 * n + 20], v);\n"
        "}\n"),
    "masked-lanes-in-the-guard": (
        "#include <immintrin.h>\n"
        "void f(int *a, int *b, int n) {\n"
        "    int end = 4 * n + 8;\n"
        "    __m256i low = _mm256_setr_epi32(-1, -1, -1, -1, 0, 0, 0, 0);\n"
        "    __m256i v = _mm256_maskload_epi32((__m256i *)&a[end - 4], low);\n"
        "    _mm256_maskstore_epi32((__m256i *)&b[end - 4], low, v);\n"
        "    __m256i first = _mm256_setr_epi32(-1, 0, 0, 0, 0, 0, 0, 0);\n"
        "    __m256i w = _mm256_maskload_epi32((__m256i *)&a[end + 12], first);\n"
        "    _mm256_maskstore_epi32((__m256i *)&b[end + 12], first, _mm256_add_epi32(w, v));\n"
        "    _mm256_storeu_si256((__m256i *)&b[0], w);\n"
        "}\n"),
    "division-by-zero": (
        "int f(int *a, int *b, int n) {\n"
        "    int z = 0, s = 0;\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        b[i] = a[i] / (i % 4);\n"
        "        s += a[i] % z;\n"
        "        s += a[i] / 7 + a[i] % -5 + (-a[i]) / 3;\n"
        "        a[i] %= i - 3;\n"
        "    }\n"
        "    return s;\n"
        "}\n"),
    "undeclared-index": "int f(int *a, int n) { int s = a[0]; s += a[j]; return s; }\n",
    "undeclared-operand": (
        "void f(int *a, int n) {\n"
        "    for (int i = 0; i < n; i++) { a[i] = a[i] + i * k; }\n"
        "}\n"),
    "undeclared-target": "void f(int *a, int n) { a[0] = n; total = a[0]; }\n",
    "undeclared-increment": "void f(int *a, int n) { a[0] = n; count++; }\n",
    "vector-as-operand": (
        "int f(int *a, int n) {\n"
        "    __m256i v = _mm256_set1_epi32(3);\n"
        "    a[0] = n;\n"
        "    return n + v;\n"
        "}\n"),
    "vector-as-index": (
        "int f(int *a, int n) {\n"
        "    __m256i v = _mm256_set1_epi32(3);\n"
        "    return a[v];\n"
        "}\n"),
    "endless-loop": (
        "int f(int *a, int n) {\n"
        "    int s = 0;\n"
        "    while (1) { s += a[s & 7]; a[1]++; }\n"
        "    return s;\n"
        "}\n"),
    "pointer-increment": "int f(int *a, int n) { int *p = a; a[1] = n; p++; return *p; }\n",
    "budget-exact": "int f(int *a, int n) { int s = a[1] + a[2]; return s; }\n",
    "budget-one-short": "int f(int *a, int n) { int s = a[1] + a[2]; return s; }\n",
    # The last two steps read ``a`` and ``n`` for the load's address.
    "vector-budget-exact": (
        "int f(int *a, int n) {\n"
        "    return _mm256_extract_epi32(_mm256_loadu_si256((__m256i *)&a[n]), 3);\n"
        "}\n"),
    "vector-budget-one-short": (
        "int f(int *a, int n) {\n"
        "    return _mm256_extract_epi32(_mm256_loadu_si256((__m256i *)&a[n]), 3);\n"
        "}\n"),
    "wrap-int16": (
        "int16_t f(int16_t *a, int16_t *b, int16_t n) {\n"
        "    int16_t x = 32767, y = -32768, s = 3;\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        x = x + a[i];\n"
        "        y = y - 7;\n"
        "        s = s * x;\n"
        "        b[i] = x * 300 + y * a[i] - s;\n"
        "        s += 1000;\n"
        "        x++;\n"
        "        a[i] = (a[i] << 9) - (y >> 2);\n"
        "    }\n"
        "    return s + x + y;\n"
        "}\n"),
    # Lanes of another dtype than the kernel's wrap when they reach memory.
    "mixed-width-vectors": (
        "int f(int *a, int *b, int n) {\n"
        "    __m256i wide = _mm256_add_epi64(_mm256_slli_epi64(_mm256_set1_epi64x(n), 31),\n"
        "                                    _mm256_set1_epi64x(12345));\n"
        "    vst1q_s32((int32x4_t *)&b[0], wide);\n"
        "    int32x4_t back = vld1q_s32((int32x4_t *)&b[0]);\n"
        "    a[0] = _mm256_extract_epi64(wide, 1);\n"
        "    a[1] = vgetq_lane_s32(back, 2);\n"
        "    b[8] = 70000 + n;\n"
        "    int16x8_t narrow = vld1q_s16((int16x8_t *)&b[8]);\n"
        "    a[2] = vgetq_lane_s16(narrow, 0);\n"
        "    return a[0];\n"
        "}\n"),
    "mixed-width-scalars": (
        "int16_t f(int16_t *a, int16_t n) {\n"
        "    __m256i wide = _mm256_mullo_epi32(_mm256_set1_epi32(300), _mm256_set1_epi32(n + 300));\n"
        "    a[0] = _mm256_extract_epi32(wide, 0);\n"
        "    a[1] = max(_mm256_extract_epi32(wide, 2), n);\n"
        "    int16_t x = _mm256_extract_epi32(wide, 1);\n"
        "    a[2] = x;\n"
        "    a[3] += _mm256_extract_epi32(wide, 3);\n"
        "    return a[0];\n"
        "}\n"),
    "wrap-int64": (
        "int64_t f(int64_t *a, int64_t *b, int64_t n) {\n"
        "    int64_t x = 9223372036854775807, y = -9223372036854775807 - 1, s = 3;\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        x = x + a[i];\n"
        "        y = y - 7;\n"
        "        s = s * x;\n"
        "        b[i] = x * 300000000000 + y * a[i] - s;\n"
        "        s += 1000;\n"
        "        x++;\n"
        "        a[i] = (a[i] << 50) - (y >> 2);\n"
        "    }\n"
        "    return s + x + y;\n"
        "}\n"),
}

#: Step budgets of the snippets that must run out (``run_function``'s
#: default otherwise).
BUDGETS = {
    "far-read-on-the-last-step": 4,
    "far-write-on-the-last-step": 4,
    "endless-loop": 5000,
    "budget-exact": 7,
    "budget-one-short": 6,
    "vector-budget-exact": 4,
    "vector-budget-one-short": 3,
}


def _observe(func, vector, max_steps: int = 2_000_000) -> tuple:
    try:
        result = run_function(func, vector.arrays, vector.scalars, max_steps=max_steps)
    except Exception as exc:  # the error is an observable too
        return ("raised", type(exc).__name__, str(exc))
    return (
        sorted(result.outputs().items()),
        [(e.kind, e.region, e.index, e.detail) for e in result.ub_events],
        result.steps,
        list(result.op_counts.items()),
        repr(result.return_value),
    )


def _suite(func):
    return make_test_suite(InputSpec.from_function(func), random.Random(0))


def _digest(runs: list) -> str:
    return hashlib.sha256(repr(runs).encode()).hexdigest()[:20]


def kernel_digests(name: str) -> dict[str, str | None]:
    """One digest per program of kernel ``name`` (None: no candidate)."""
    suite = _suite(load_kernel(name).function)
    digests: dict[str, str | None] = {}
    for label, (dtype, setting) in PROGRAMS.items():
        kernel = load_kernel(name, dtype)
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
        digests[label] = _digest([_observe(func, vector) for vector in suite])
    return digests


def snippet_digests(label: str) -> dict[str, str]:
    func = parse_function(SNIPPETS[label])
    budget = BUDGETS.get(label, 2_000_000)
    return {"run": _digest([_observe(func, vector, budget) for vector in _suite(func)])}


def _names() -> list[str]:
    return all_kernel_names() + [f"snippet:{label}" for label in SNIPPETS]


def observables(name: str) -> dict[str, str | None]:
    if name.startswith("snippet:"):
        return snippet_digests(name.removeprefix("snippet:"))
    return kernel_digests(name)


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_the_whole_suite(pins):
    assert sorted(pins) == sorted(_names())
    kernels = [pins[name] for name in all_kernel_names()]
    assert all(sorted(entry) == sorted(PROGRAMS) for entry in kernels)
    assert all(entry[label] is not None for entry in kernels
               for label, (_, setting) in PROGRAMS.items() if setting is None)
    # Each generated candidate family is exercised on dozens of kernels;
    # AVX2 has no 64-bit lane multiply, minimum or maximum, so it
    # vectorizes 15 kernels at int64.
    for label in PROGRAMS:
        least = 15 if label == "avx2@int64" else 40
        assert sum(entry[label] is not None for entry in kernels) >= least
    assert all(sorted(pins[f"snippet:{label}"]) == ["run"] for label in SNIPPETS)
    assert set(BUDGETS) <= set(SNIPPETS)


@pytest.mark.parametrize("name", _names())
def test_interpreter_observables_are_pinned(name, pins):
    assert observables(name) == pins[name]


@pytest.mark.parametrize("label, expected", [
    ("far-read", "UndefinedBehaviorError"),
    ("far-read-before-start", "UndefinedBehaviorError"),
    ("far-write", "UndefinedBehaviorError"),
    ("vector-past-the-guard", "UndefinedBehaviorError"),
    ("far-read-on-the-last-step", "UndefinedBehaviorError"),
    ("far-write-on-the-last-step", "UndefinedBehaviorError"),
    ("undeclared-index", "CompileError"),
    ("undeclared-operand", "CompileError"),
    ("undeclared-target", "CompileError"),
    ("undeclared-increment", "CompileError"),
    ("vector-as-operand", "InterpreterError"),
    ("vector-as-index", "InterpreterError"),
    ("endless-loop", "InterpreterError"),
    ("budget-one-short", "InterpreterError"),
    ("vector-budget-one-short", "InterpreterError"),
])
def test_error_snippets_raise_what_they_are_named_for(label, expected):
    func = parse_function(SNIPPETS[label])
    for vector in _suite(func):
        outcome = _observe(func, vector, BUDGETS.get(label, 2_000_000))
        assert outcome[:2] == ("raised", expected), outcome


#: Each ``++``/``--`` form on a pointer, and the compound assignment it must
#: equal step for step.
POINTER_INCREMENTS = [
    ("p++;", "p += 1;"), ("++p;", "p += 1;"), ("p--;", "p -= 1;"), ("--p;", "p -= 1;"),
    ("x += *(++p);", "x += *(p += 1);"), ("x += *(--p);", "x += *(p -= 1);"),
]


@pytest.mark.parametrize("step, twin", POINTER_INCREMENTS)
def test_pointer_increments_observe_as_their_compound_twin(step, twin):
    """Same outputs, UB events, steps, ``op_counts`` order and return value."""
    template = ("int f(int *a, int *b, int n) {{\n"
                "    int *p = &a[8];\n"
                "    int x = 0;\n"
                "    for (int i = 0; i < 4; i++) {{ {step} b[i] = *p + x; }}\n"
                "    return *p;\n"
                "}}\n")
    func, other = (parse_function(template.format(step=s)) for s in (step, twin))
    for vector in _suite(func):
        outcome = _observe(func, vector)
        assert outcome[0] != "raised", outcome
        assert outcome == _observe(other, vector)


@pytest.mark.parametrize("label, kinds", [
    ("guard-and-before-start", {"oob-read", "oob-write"}),
    ("poison-store", {"oob-read", "poison-store"}),
    ("vector-across-the-end", {"oob-read", "oob-write", "poison-store"}),
    ("masked-lanes-in-the-guard", {"oob-read", "oob-write", "poison-store"}),
    ("division-by-zero", {"div-by-zero"}),
])
def test_ub_snippets_record_what_they_are_named_for(label, kinds):
    func = parse_function(SNIPPETS[label])
    for vector in _suite(func):
        outcome = _observe(func, vector)
        assert outcome[0] != "raised", outcome
        assert {event[0] for event in outcome[1]} == kinds


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PINS.parent.mkdir(exist_ok=True)
    table = {name: observables(name) for name in _names()}
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} programs to {PINS}")
