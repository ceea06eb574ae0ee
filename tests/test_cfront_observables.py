"""Pinned frontend observables: token streams, ASTs and rewritten programs.

Every TSVC kernel and every hand-written snippet in ``SNIPPETS`` is lexed
and parsed as each program in ``PROGRAMS``: its scalar source and the
candidates the vectorizer generates for it.  One digest of each token
stream ``(kind, text, line, column)`` and one of each AST (every field,
source locations included) are compared with
``tests/data/cfront_observables.json``, and so are the printed output of
``unroll_scalar_function`` at factors 8, 4 and 16, every applicable
``apply_fault`` kind on the AVX2 candidate, and the synthetic LLM's first
three completions at seed 2024, for AVX2 and for SVE256 with predicated
loops.  Between them these reach every ``clone_tree`` and ``replace`` call
site; the snippets reach the ones no TSVC kernel does.

The pins guard the frontend and the AST rewriters: the interpreter, the
verifier, the vetter and every recorded ``final_code_sha`` read these
trees and texts.  Re-pin only for a deliberate change, with::

    PYTHONPATH=src python tests/test_cfront_observables.py --write
"""

from __future__ import annotations

import ast as pyast
import dataclasses
import hashlib
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.cfront import ast_nodes as ast
from repro.cfront.cparser import parse_function
from repro.cfront.lexer import tokenize
from repro.cfront.printer import to_c
from repro.errors import LexError, ReproError, SourceLocation
from repro.llm.client import CompletionRequest
from repro.llm.faults import applicable_faults, apply_fault
from repro.llm.synthetic import SyntheticLLM, SyntheticLLMConfig
from repro.runspec import RunSpec
from repro.transforms.c_unroll import CUnrollError, unroll_scalar_function
from repro.tsvc import all_kernel_names, load_kernel
from repro.vectorizer.plancache import cached_vectorize

PINS = Path(__file__).parent / "data" / "cfront_observables.json"

#: program label -> (target, epilogue) of the generated candidate; None is
#: the scalar source itself.
PROGRAMS = {
    "scalar": None,
    "avx2": ("avx2", "scalar"),
    "avx2-masked": ("avx2", "masked"),
    "neon": ("neon", "scalar"),
    "sve256-predicated": ("sve256", "predicated"),
}

#: Key -> factor of each pinned ``unroll_scalar_function`` output.
CUNROLL_FACTORS = {"cunroll": 8, "cunroll-4": 4, "cunroll-16": 16}

#: Run settings of the pinned synthetic-LLM completions.
LLM_SPECS = {
    "llm-avx2": RunSpec(target="avx2"),
    "llm-sve256-predicated": RunSpec(target="sve256", epilogue="predicated"),
}

#: Hand-written sources for lexer corners and for rewriter paths that no
#: TSVC kernel takes (a loop-invariant subscript, an induction-indexed
#: compound store, an iterator declared before its loop).
SNIPPETS = {
    "invariant-read": (
        "void f(int *a, int *b, int n, int k) {\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        a[i] = b[k] + a[i];\n"
        "    }\n"
        "}\n"),
    "induction-store": (
        "void f(int *a, int *b, int n) {\n"
        "    int j = -1;\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        j++;\n"
        "        a[j] += b[i];\n"
        "    }\n"
        "}\n"),
    "outer-iterator": (
        "void f(int *a, int *b, int n) {\n"
        "    int i;\n"
        "    for (i = 0; i < n; i++) {\n"
        "        a[i] = b[i] + 1;\n"
        "    }\n"
        "}\n"),
    "trivia": (
        "#include <immintrin.h>\r\n"
        "/* a block comment\n   over two lines */ // and a line comment\r\n"
        "void\tf(int *a, int n) { /**/ int x = 0x1fUL, y = 010, z = 2.5; // tail\n"
        "\tfor (int i = 0; i < n; i++) a[i] = (x << 2) >> y | z & ~i ^ -x;\n"
        "  }"),
    "operators": (
        "int f(int *a, int n) {\n"
        "    int s = 0, t = 1;\n"
        "    s += t -= 2; s *= 3; s /= 4; s %= 5; s &= 6; s |= 7; s ^= 8;\n"
        "    s <<= 1; s >>= 1; t = !s || s && t != 0 == 1 <= 2 >= 3 < 4 > 5;\n"
        "    t = a[s++] + a[--t] * (s ? t : -s) - *a % +n;\n"
        "    do { t--; } while (t > 0);\n"
        "    while (s) { if (s < 0) break; else s = s - 1; continue; }\n"
        "L: goto L;\n"
        "    ;\n"
        "    return (int) s;\n"
        "}\n"),
    "strings": "f(\"a \\\" b\\\\\", 'c', '\\'', \"line\nbreak\") ... -> .5 3.x",
    "empty": "",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:20]


def _raised(exc: Exception) -> tuple:
    return ("raised", type(exc).__name__, str(exc))


def _token_stream(source: str):
    try:
        return [(t.kind.value, t.text, t.location.line, t.location.column)
                for t in tokenize(source)]
    except LexError as exc:
        return _raised(exc)


def _tree(source: str):
    try:
        return parse_function(source)
    except ReproError as exc:
        return _raised(exc)


def _names() -> list[str]:
    return all_kernel_names() + [f"snippet:{label}" for label in SNIPPETS]


def _source(name: str) -> str:
    if name.startswith("snippet:"):
        return SNIPPETS[name.removeprefix("snippet:")]
    return load_kernel(name).source


def program_sources(source: str) -> dict[str, str | None]:
    """The source of each program in ``PROGRAMS`` (None: no candidate)."""
    programs: dict[str, str | None] = {label: None for label in PROGRAMS}
    programs["scalar"] = source
    func = _tree(source)
    if not isinstance(func, ast.FunctionDef):
        return programs
    for label, setting in PROGRAMS.items():
        if setting is not None:
            target, epilogue = setting
            candidate = cached_vectorize(source, func, target=target, epilogue=epilogue)
            programs[label] = None if candidate is None else candidate.source
    return programs


def _unrolled(func: ast.FunctionDef, factor: int):
    try:
        return to_c(unroll_scalar_function(func, factor))
    except CUnrollError as exc:
        return _raised(exc)


def observables(name: str, source: str) -> dict[str, str | None]:
    """One digest per observable of the program named ``name``."""
    entry: dict[str, str | None] = {}
    programs = program_sources(source)
    for label, text in programs.items():
        entry[f"{label}.tokens"] = None if text is None else _digest(_token_stream(text))
        entry[f"{label}.ast"] = None if text is None else _digest(_tree(text))
    func = _tree(source)
    for key, factor in CUNROLL_FACTORS.items():
        entry[key] = _digest(_unrolled(func, factor)) if isinstance(func, ast.FunctionDef) else None
    candidate = programs["avx2"]
    entry["faults-avx2"] = None if candidate is None else _digest(
        [(kind.value, apply_fault(candidate, kind, random.Random(0)))
         for kind in applicable_faults(candidate)])
    for label, spec in LLM_SPECS.items():
        llm = SyntheticLLM(SyntheticLLMConfig(seed=2024))
        request = CompletionRequest(prompt="", kernel_name=name, scalar_code=source,
                                    num_completions=3, spec=spec)
        entry[label] = _digest([(c.code, c.annotations) for c in llm.complete(request)])
    return entry


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_every_kernel_and_snippet(pins):
    assert sorted(pins) == sorted(_names())
    keys = sorted([f"{label}.{part}" for label in PROGRAMS for part in ("tokens", "ast")]
                  + [*CUNROLL_FACTORS, "faults-avx2", *LLM_SPECS])
    assert all(sorted(entry) == keys for entry in pins.values())
    for label in PROGRAMS:
        assert sum(entry[f"{label}.ast"] is not None for entry in pins.values()) >= 40


@pytest.mark.parametrize("name", _names())
def test_frontend_observables_are_pinned(name, pins):
    assert observables(name, _source(name)) == pins[name]


@pytest.mark.parametrize("source, message, line, column", [
    ("int x; /* never\nclosed ", "unterminated block comment", 2, 8),
    ("f(1,\n  \"open", "unterminated string literal", 2, 3),
    ("int x;\n\tint $y;", "unexpected character '$'", 2, 6),
    ("x = 4\u0662;", "unexpected character '\u0662'", 1, 6),
    ("x; # y", "unexpected character '#'", 1, 4),
])
def test_lexer_errors_name_their_location(source, message, line, column):
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert info.value.location == SourceLocation(line, column)
    assert str(info.value) == f"{line}:{column}: {message}"


def _reference_walk(node):
    """Preorder through every node-valued field, each node in source order."""
    yield node
    names = [f.name for f in dataclasses.fields(node)]
    if isinstance(node, ast.Decl):
        names = ["array_size", "init"]  # int a[n] = ...
    for name in names:
        value = getattr(node, name)
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.Node):
                yield from _reference_walk(child)


def _containers(tree) -> list:
    """Every node and list reachable from ``tree``."""
    found = []
    stack = [tree]
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            found.append(value)
            stack.extend(value)
        elif isinstance(value, ast.Node):
            found.append(value)
            stack.extend(value.__dict__.values())
    return found


@pytest.fixture(scope="module")
def pinned_trees() -> list[ast.FunctionDef]:
    """The AST of every pinned program that parses."""
    trees = [_tree(text) for name in _names()
             for text in program_sources(_source(name)).values() if text is not None]
    return [tree for tree in trees if isinstance(tree, ast.FunctionDef)]


def _sample(tree) -> list[int]:
    """A few walk positions of ``tree`` below its root, spread evenly."""
    size = sum(1 for _ in ast.walk(tree))
    return list(range(1, size, max(1, size // 7)))


def _ids(nodes) -> list[int]:
    return list(map(id, nodes))


def _held_in_a_list(tree, node) -> bool:
    """Whether a list under ``tree`` holds ``node``."""
    return any(item is node for value in _containers(tree) if isinstance(value, list)
               for item in value)


class TestWalkAndClone:
    def test_walk_matches_a_reference_recursive_walk(self, pinned_trees):
        assert len(pinned_trees) > 300
        for tree in pinned_trees:
            assert list(map(id, ast.walk(tree))) == list(map(id, _reference_walk(tree)))

    def test_walk_reads_children_after_yielding_their_parent(self):
        func = parse_function("void f(int *a, int i) { a[i] = 1; }")
        replacement = ast.Identifier(name="b")
        seen = []
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                node.value = replacement
            seen.append(node)
        assert any(node is replacement for node in seen)
        assert not any(isinstance(node, ast.IntLiteral) for node in seen)

    def test_clone_is_equal_and_shares_no_node_or_list(self, pinned_trees):
        for tree in pinned_trees:
            clone = ast.clone_tree(tree)
            assert clone == tree
            assert not set(map(id, _containers(clone))) & set(map(id, _containers(tree)))
            assert clone.location is tree.location

    def test_clone_keeps_the_aliasing_of_its_input(self):
        shared = ast.Identifier(name="x")
        body = [ast.ExprStmt(expr=ast.BinOp(op="+", left=shared, right=shared))]
        tree = ast.Block(body=[ast.Block(body=body), ast.Block(body=body)])
        clone = ast.clone_tree(tree)
        first, second = clone.body
        assert first.body is second.body and first.body is not body
        [stmt] = first.body
        assert stmt.expr.left is stmt.expr.right and stmt.expr.left is not shared
        assert ast.clone_tree(None) is None
        with pytest.raises(TypeError):
            ast.clone_tree({"not": "a tree"})

    def test_replace_puts_the_new_node_at_the_kth_position(self, pinned_trees):
        for tree in pinned_trees:
            for k in _sample(tree):
                clone = ast.clone_tree(tree)
                before = list(ast.walk(clone))
                old = before[k]
                end = k + sum(1 for _ in ast.walk(old))
                marker = ast.Identifier(name="marker")
                assert ast.replace(clone, old, marker)
                assert _ids(_reference_walk(clone)) == _ids(before[:k] + [marker] + before[end:])

    def test_replace_with_none_deletes_exactly_a_node_held_in_a_list(self, pinned_trees):
        deleted = kept = 0
        for tree in pinned_trees:
            for k in _sample(tree):
                clone = ast.clone_tree(tree)
                before = list(ast.walk(clone))
                old = before[k]
                end = k + sum(1 for _ in ast.walk(old))
                in_list = _held_in_a_list(clone, old)
                assert ast.replace(clone, old, None) is in_list
                if in_list:
                    deleted += 1
                    assert _ids(_reference_walk(clone)) == _ids(before[:k] + before[end:])
                else:
                    kept += 1
                    assert clone == tree and _ids(ast.walk(clone)) == _ids(before)
        assert deleted > 100 and kept > 100

    def test_replace_finds_no_node_outside_the_tree(self, pinned_trees):
        for tree in pinned_trees[::10]:
            clone = ast.clone_tree(tree)
            before = _ids(ast.walk(clone))
            for stranger in (ast.Identifier(name="n"), tree, tree.body, ast.Block()):
                assert not ast.replace(clone, stranger, ast.Block())
                assert not ast.replace(clone, stranger, None)
            assert clone == tree and _ids(ast.walk(clone)) == before

    def test_replace_leaves_an_equal_but_distinct_node_alone(self, pinned_trees):
        for tree in pinned_trees[::10]:
            clone = ast.clone_tree(tree)
            before = list(ast.walk(clone))
            for k in _sample(tree):
                twin = ast.clone_tree(before[k])
                assert twin == before[k]
                assert not ast.replace(clone, twin, ast.Identifier(name="marker"))
            assert clone == tree and _ids(ast.walk(clone)) == _ids(before)


class TestOneTreeCopy:
    """Regrowth guard: ASTs are copied by ``clone_tree`` alone, and
    statements are spliced by ``replace`` alone."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

    def test_no_module_calls_deepcopy(self):
        offenders = []
        for path in sorted(self.SRC.rglob("*.py")):
            for node in pyast.walk(pyast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, pyast.Attribute) and node.attr == "deepcopy") or (
                        isinstance(node, pyast.ImportFrom) and node.module == "copy"):
                    offenders.append(f"{path.relative_to(self.SRC)}:{node.lineno}")
        assert offenders == []

    def test_the_lexer_has_one_entry_point(self):
        import repro.cfront.lexer as lexer

        for name in ("iter_tokens", "_Cursor", "_skip_trivia", "_lex_number"):
            assert not hasattr(lexer, name), name

    def test_no_rewriter_walks_statements_by_hand(self):
        walkers = {
            "repro.transforms.c_unroll": ("_replace_stmt", "_rewrite_break_to_return"),
            "repro.llm.synthetic": ("_replace_in",),
            "repro.llm.faults": ("_remove_stmt",),
            "repro.vectorizer.codegen": ("_replace_loop", "_find_matching_loop"),
            "repro.vectorizer.normalize": ("_normalize_stmt", "_normalize_sequence"),
        }
        for module, names in walkers.items():
            for name in names:
                assert not hasattr(importlib.import_module(module), name), f"{module}.{name}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PINS.parent.mkdir(exist_ok=True)
    table = {name: observables(name, _source(name)) for name in _names()}
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} programs to {PINS}")
