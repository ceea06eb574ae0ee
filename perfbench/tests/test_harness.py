"""Tests of the benchmark harness itself (not of the system it measures).

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from harness import failed_kernels, kernel_order, percentile
from tracer import SpanSpec, Tracer, check_partition, merge_snapshots

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def fake_package(monkeypatch):
    """``benchfake.a`` defines ``f``; ``benchfake.b`` binds it by name."""
    a = types.ModuleType("benchfake.a")
    b = types.ModuleType("benchfake.b")

    def f(x):
        return x + 1

    f.__module__ = "benchfake.a"
    a.f = f
    b.f = a.f  # ``from benchfake.a import f``
    b.call_f = lambda x: b.f(x)
    for module in (types.ModuleType("benchfake"), a, b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return a, b


def test_alias_imported_into_two_modules_counts_both_call_sites(fake_package):
    a, b = fake_package
    tracer = Tracer()
    tracer.install([SpanSpec("benchfake.a", "f", "fake.f")], package="benchfake")
    try:
        assert a.f is b.f
        assert a.f(1) == 2
        assert b.call_f(2) == 3
        assert tracer.calls["fake.f"] == 2
    finally:
        tracer.uninstall()
    assert a.f(0) == 1 and tracer.calls["fake.f"] == 2


def test_real_aliases_are_rebound_and_restored():
    from repro.interp import checksum, interpreter

    original = interpreter.run_function
    tracer = Tracer()
    tracer.install([SpanSpec("repro.interp.interpreter", "run_function", "interp.run")])
    try:
        assert checksum.run_function is interpreter.run_function
        assert checksum.run_function is not original
    finally:
        tracer.uninstall()
    assert interpreter.run_function is original and checksum.run_function is original


def test_nested_spans_partition_the_outermost_span(fake_package):
    a, b = fake_package
    tracer = Tracer()
    inner = SpanSpec("benchfake.a", "f", "fake.inner")
    outer = tracer.wrap(SpanSpec("benchfake.b", "call_f", "fake.outer"), b.call_f)
    tracer.install([inner], package="benchfake")
    try:
        outer(1)
        outer(2)
    finally:
        tracer.uninstall()
    fleet = merge_snapshots([tracer.snapshot()])
    assert fleet["calls"] == {"fake.outer": 2, "fake.inner": 2}
    assert min(fleet["self_s"].values()) >= 0.0
    assert sum(fleet["self_s"].values()) == pytest.approx(fleet["root_s"])
    metrics = {"pipeline.engine_s": 1.0 - fleet["root_s"]}
    assert check_partition(fleet, metrics, wall_s=1.0) == []
    metrics = {"pipeline.engine_s": -0.5}
    assert check_partition(fleet, metrics, wall_s=1.0)


def test_percentile_reports_its_sample_count():
    p90 = percentile([float(v) for v in range(1, 11)], 90)
    assert p90.samples == 10
    assert p90.value == pytest.approx(9.1)
    assert percentile([5.0], 50) == (5.0, 1)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_kernel_order_is_a_seeded_permutation():
    names = [f"s{i:03d}" for i in range(50)]
    assert kernel_order(names, 7) == kernel_order(list(reversed(names)), 7)
    assert sorted(kernel_order(names, 7)) == names
    assert kernel_order(names, 7) != kernel_order(names, 8)


def test_failed_share_counts_flips_but_not_lost_proofs():
    answers = {"k1": {"aaaaaaaaaaaaaaaa": "equivalent"},
               "k2": {"bbbbbbbbbbbbbbbb": "equivalent"},
               "k3": {"none": "not_equivalent"}}
    sha1, sha2 = "a" * 64, "b" * 64
    suite = ["k1", "k2", "k3", "k4"]
    clean = [["k1", "equivalent", sha1], ["k2", "equivalent", sha2],
             ["k3", "not_equivalent", None], ["k4", "inconclusive", "c" * 64]]
    assert failed_kernels(clean, suite, answers) == ([], 1)

    flipped = [["k1", "not_equivalent", sha1], ["k2", "inconclusive", sha2],
               ["k3", "not_equivalent", None]]
    failed, _ = failed_kernels(flipped, suite, answers)
    assert failed == ["k4: missing", "k1: not_equivalent, pinned equivalent"]

    errored = [["k1", "error", None]] + clean[1:]
    assert failed_kernels(errored, suite, answers)[0] == ["k1: error record"]


def test_fresh_process_starts_cold():
    """A measured process begins with empty caches: its first parse misses."""
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from repro.tsvc.registry import get_kernel\n"
        "from repro.vectorizer import plancache\n"
        "source = get_kernel('s000').source\n"
        "plancache.cached_parse(source)\n"
        "first = plancache.stats.as_dict()\n"
        "plancache.cached_parse(source)\n"
        "print(json.dumps([first, plancache.stats.as_dict()]))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    first, second = json.loads(out.strip().splitlines()[-1])
    assert (first["parse_misses"], first["parse_hits"]) == (1, 0)
    assert (second["parse_misses"], second["parse_hits"]) == (1, 1)
