"""Tests for :mod:`repro.memo`, the one bounded memo behind every cache.

Also guards against regrowth: no module in ``src/repro`` other than
``memo.py`` may hand-roll a bounded cache or use ``functools``' caches, and
C source is parsed only inside ``plancache.cached_parse``.
"""

import ast
import weakref
from pathlib import Path

import pytest

from repro.memo import IdentityMemo, Memo, clear_all
from repro.pipeline.campaign import CampaignConfig, CampaignRunner
from repro.vectorizer import plancache

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


class Box:
    """A plain object: identity-keyed, weak-referenceable."""


class TestMemo:
    def test_capacity_overflow_clears_instead_of_growing(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.put("c", 3) == 3  # full: emptied, then stored
        assert dict(memo) == {"c": 3}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Memo(0)

    def test_make_room_only_evicts_when_full(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.make_room()
        assert dict(memo) == {"a": 1}
        memo.put("b", 2)
        memo.make_room()
        assert not memo


class TestIdentityMemo:
    def test_computes_once_per_object_and_salt(self):
        memo = IdentityMemo(8)
        calls = []
        obj = Box()

        def compute():
            calls.append(1)
            return len(calls)

        assert memo.get_or_compute(obj, compute) == 1
        assert memo.get_or_compute(obj, compute) == 1
        assert memo.get_or_compute(obj, compute, salt="other") == 2
        assert memo.get_or_compute(Box(), compute) == 3

    def test_failures_are_not_memoized(self):
        memo = IdentityMemo(8)
        obj = Box()

        def fail():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            memo.get_or_compute(obj, fail)
        assert memo.get_or_compute(obj, lambda: "ok") == "ok"

    def test_never_answers_for_a_different_object_that_reuses_an_id(self):
        memo = IdentityMemo(8)
        obj = Box()
        stale_id, alive = id(obj), weakref.ref(obj)
        assert memo.get_or_compute(obj, lambda: "old") == "old"
        del obj
        # The entry keeps its key object alive, so the id stays taken.
        assert alive() is not None
        memo.clear()
        assert alive() is None
        held = []
        for _ in range(10_000):
            held.append(Box())
            if id(held[-1]) == stale_id:
                break
        else:
            pytest.skip("the allocator never reused the freed id")
        assert memo.get_or_compute(held[-1], lambda: "new") == "new"


class TestClearAll:
    def test_empties_every_registered_memo(self):
        memos = [Memo(8), IdentityMemo(8)]
        memos[0].put("key", "value")
        memos[1].get_or_compute(Box(), lambda: "value")
        plancache.cached_parse("void f(int n) { }")
        clear_all()
        assert not memos[0] and not memos[1]
        assert not plancache._PARSE_CACHE

    def test_rerun_after_clear_all_is_identical_and_cold(self):
        names = ["s000", "s212", "s1119"]

        def results():
            report = CampaignRunner(CampaignConfig(workers=1)).run(names)
            return [(record.kernel, record.result) for record in report.records]

        first = results()
        clear_all()
        misses = plancache.stats.parse_misses
        assert results() == first
        assert plancache.stats.parse_misses > misses


# ---------------------------------------------------------------------------
# regrowth guard
# ---------------------------------------------------------------------------


def _modules():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        yield path.relative_to(SRC_ROOT).as_posix(), ast.parse(path.read_text())


def _functools_caches(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (a.name for a in node.names if a.name in ("cache", "lru_cache"))
        if (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            yield node.attr


def _bounded_by_hand(tree):
    """Containers emptied or trimmed under a test on their own ``len()``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.If, ast.While)):
            continue
        sized = {ast.dump(call.args[0]) for call in ast.walk(node.test)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                 and call.func.id == "len" and call.args}
        for stmt in node.body:
            for call in ast.walk(stmt):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("clear", "popitem")
                        and ast.dump(call.func.value) in sized):
                    yield ast.unparse(call)


def _parse_function_calls(name, tree):
    """Calls of ``parse_function`` not made inside ``plancache.cached_parse``."""
    allowed = set()
    for node in ast.walk(tree):
        if (name == "vectorizer/plancache.py" and isinstance(node, ast.FunctionDef)
                and node.name == "cached_parse"):
            allowed.update(id(inner) for inner in ast.walk(node))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "parse_function":
            yield node.lineno
        # The parser's own ``self.parse_function()`` method is not the entry point.
        if (isinstance(func, ast.Attribute) and func.attr == "parse_function"
                and not (isinstance(func.value, ast.Name) and func.value.id == "self")):
            yield node.lineno


def test_no_module_hand_rolls_a_cache():
    offenders = {}
    for name, tree in _modules():
        if name == "memo.py":
            continue
        found = list(_functools_caches(tree)) + list(_bounded_by_hand(tree))
        if found:
            offenders[name] = found
    assert not offenders, f"use repro.memo instead: {offenders}"


def test_only_cached_parse_parses_source():
    offenders = {}
    for name, tree in _modules():
        calls = list(_parse_function_calls(name, tree))
        if calls:
            offenders[name] = calls
    assert not offenders, f"parse through plancache.cached_parse: {offenders}"
