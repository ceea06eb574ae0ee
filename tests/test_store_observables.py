"""Pinned observables of every reader and writer of the campaign store.

Each store in ``STORES`` is hand-written line by line, so every pinned byte
is deterministic.  Result keys are real ``KernelTask.cache_key`` values, so
a runner resumes from them.  Per store the pins hold:

* ``live``: the output of ``store_live_entries``;
* ``reports``: ``report_from_store`` for ``label=None`` and for each label ×
  target, as its records and ``summary.as_dict()``, or the ``ValueError``
  text;
* ``compacted``: ``compact_store``'s output text and its ``CompactionStats``
  without ``path``;
* ``resumed``: a runner resuming from the store with ``_fresh_job`` under
  each of ``RESUMES``: ``executed``, ``resumed`` and each record's kernel,
  source and result.

``merges`` pins ``merge_stores`` over each ordered pair of stores: the
sha256 and line count of its output, or the text of its refusal.  Everything
is compared with ``tests/data/store_observables.json``.

``TestOneStoreFormat`` keeps a second reader or writer of the store from
growing back, and checks that a merge or a compaction that fails part-way
through writing leaves the store as it was and no file behind.  Re-pin only
for a deliberate change to the store format, with::

    PYTHONPATH=src python tests/test_store_observables.py --write
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.pipeline import (
    CampaignConfig,
    CampaignRunner,
    compact_store,
    merge_stores,
    report_from_store,
    store_live_entries,
)
from repro.pipeline.campaign import KernelTask

PINS = Path(__file__).parent / "data" / "store_observables.json"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

LABEL, OTHER = "vectorize", "checksum"
KERNELS = ("s000", "s111", "s112")
#: The selections every store is reported under: ``label=None`` and each
#: label × target.
SELECTIONS = ((None, None),) + tuple(
    (label, target) for label in (LABEL, OTHER) for target in (None, "avx2", "neon"))
#: (label, config hash) of each resuming run; each config hash stands for
#: one run spec, the way the vectorize fingerprint folds the target in.
RESUMES = ((LABEL, "cfg"), (OTHER, "cfg"), (LABEL, "cfg-neon"), (LABEL, "cfg-legacy"))


def _task(kernel: str, config: str = "cfg") -> KernelTask:
    return KernelTask(kernel=kernel, scalar_code=f"void {kernel}();", seed=0,
                      config_hash=config)


def _result(kernel: str, verdict: str = "equivalent", *, label: str | None = LABEL,
            config: str = "cfg", target: str | None = "avx2", **extra) -> dict:
    """A result line in the order the store appends its fields."""
    line: dict = {"type": "result"}
    if label is not None:
        line["campaign"] = label
    line.update(kernel=kernel, key=_task(kernel, config).cache_key(label or LABEL),
                result={"kernel": kernel, "verdict": verdict, **extra})
    if target is not None:
        line["target"] = target
    return line


def _error(kernel: str, **where) -> dict:
    return _result(kernel, "error", error="ValueError: transient",
                   error_type="ValueError", traceback=None, **where)


def _summary(label: str = LABEL, *, kernels: int, executed: int, resumed: int = 0,
             wall: float = 0.25, target: str | None = "avx2", dtype: str | None = "int32",
             shard: str | None = None, **extra) -> dict:
    """A summary line; ``target=None``/``dtype=None`` write a pre-stamping one."""
    line = {"type": "summary", "label": label, "kernels": kernels, "executed": executed,
            "cache_hits": kernels - executed, "cache_misses": executed,
            "resumed": resumed, "wall_clock_seconds": wall, "workers": 1}
    if target is not None:
        line["target"] = target
    if dtype is not None:
        line["dtype"] = dtype
    if shard is not None:
        line["shard"] = shard
    return {**line, "verdict_counts": {}, **extra}


def _text(*lines: dict | str) -> str:
    return "".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                   for line in lines)


#: The four malformed result lines of ``TestMalformedStoreLines``.
MALFORMED = (
    {"type": "result", "campaign": "x"},
    {"type": "result", "campaign": "x", "kernel": "a", "key": 7, "result": {}},
    {"type": "result", "campaign": "x", "kernel": ["a"], "key": "k1", "result": {}},
    {"type": "result", "campaign": "x", "kernel": "a", "key": "k2", "result": "equivalent"},
)

STORES = {
    # One label: shard 0/2 ran and then resumed (two summaries for one
    # shard), and shard 1/2 ran once into the same store.
    "resumed": _text(
        _result("s000"), _result("s112", final_code_sha="0" * 64),
        _summary(kernels=2, executed=2, wall=1.5, shard="0/2", batches=2,
                 plan_cache={"parse_hits": 1, "parse_misses": 2}),
        _result("s111", "not_equivalent", static_flags={"missing-epilogue": 1}),
        _summary(kernels=1, executed=1, wall=0.75, shard="1/2"),
        _summary(kernels=2, executed=0, resumed=2, wall=0.125, shard="0/2",
                 plan_cache={"parse_hits": 2}),
    ),
    # An error record, then its retried success on the next pass.
    "retried": _text(
        _result("s000"), _error("s111"),
        _summary(kernels=2, executed=2, wall=0.5),
        _result("s111"),
        _summary(kernels=2, executed=1, resumed=1, wall=0.375),
    ),
    # A crash mid-append left a torn final line with no newline.
    "torn": _text(_result("s000"), _result("s112"), _summary(kernels=2, executed=2))
            + '{"type": "result", "campaign": "vectorize", "kernel": "s111", "key": "half-writ',
    # Malformed result lines, a blank line and non-object lines among good ones.
    "malformed": _text(_result("s000"), *MALFORMED, "", "[1, 2]", "42", _result("s112"),
                       _summary(kernels=2, executed=2)),
    "two-labels": _text(
        _result("s000"), _result("s000", label=OTHER, outcomes="pass fail"),
        _result("s111"), _result("s112", "error", label=OTHER),
        _summary(kernels=2, executed=2), _summary(OTHER, kernels=2, executed=2, wall=2.0),
    ),
    # Records stamped avx2, stamped neon and unstamped, each with summaries.
    "targets": _text(
        _result("s000"), _result("s111"),
        _result("s000", config="cfg-neon", target="neon"),
        _result("s111", "not_equivalent", config="cfg-neon", target="neon"),
        _result("s112", config="cfg-legacy", target=None),
        _summary(kernels=2, executed=2, wall=0.5),
        _summary(kernels=2, executed=2, wall=0.625, target="neon"),
        _summary(kernels=1, executed=1, wall=0.0625, target=None, dtype=None),
    ),
    "summary-only": _text(_summary(kernels=3, executed=0, resumed=3, wall=0.1)),
    "unlabeled": _text(_result("s000", label=None), _result("s111"),
                       _summary(kernels=1, executed=1)),
    # Two shard stores that overlap; shard-b retried shard-a's error record.
    "shard-a": _text(_result("s000"), _error("s112"),
                     _summary(kernels=2, executed=2, shard="0/2", wall=0.5)),
    "shard-b": _text(_result("s000"), _result("s112"), _result("s111"),
                     _summary(kernels=3, executed=2, resumed=1, shard="1/2", wall=0.75)),
}


def _fresh_job(task: KernelTask) -> dict:
    return {"kernel": task.kernel, "verdict": "equivalent", "fresh": True}


def _store(workdir: Path, name: str) -> Path:
    path = workdir / f"{name}.jsonl"
    path.write_bytes(STORES[name].encode())
    return path


def _report(path: Path, label: str | None, target: str | None) -> dict:
    try:
        report = report_from_store(path, label=label, target=target)
    except ValueError as error:
        return {"error": str(error)}
    return {"label": report.label,
            "records": [[r.kernel, r.key, r.source, r.result] for r in report.records],
            "summary": report.summary.as_dict()}


def _resume(path: Path, label: str, config: str) -> dict:
    report = CampaignRunner(CampaignConfig(workers=1, store_path=path)).run_tasks(
        _fresh_job, [_task(kernel, config) for kernel in KERNELS], label=label)
    return {"executed": report.summary.executed, "resumed": report.summary.resumed,
            "records": [[r.kernel, r.source, r.result] for r in report.records]}


def store_observables(name: str, workdir: Path) -> dict:
    path = _store(workdir, name)
    results, summaries = store_live_entries(path)
    live = {"results": [[key, entry] for key, entry in results.items()],
            "summaries": summaries}
    reports = {f"{label}/{target}": _report(path, label, target)
               for label, target in SELECTIONS}
    stats = dataclasses.asdict(compact_store(path, out_path=workdir / "compacted.jsonl"))
    del stats["path"]
    compacted = {"text": (workdir / "compacted.jsonl").read_text(), "stats": stats}
    resumed = {f"{label}/{config}": _resume(_store(workdir, name), label, config)
               for label, config in RESUMES}
    return {"live": live, "reports": reports, "compacted": compacted, "resumed": resumed}


def merge_observables(workdir: Path) -> dict:
    """``a+b`` -> what ``merge_stores([a, b], out)`` wrote, or its refusal."""
    table = {}
    for first in STORES:
        for second in STORES:
            out = workdir / "merged.jsonl"
            try:
                merge_stores([_store(workdir, first), _store(workdir, second)], out)
            except ValueError as error:
                table[f"{first}+{second}"] = {"error": str(error)}
                continue
            data = out.read_bytes()
            table[f"{first}+{second}"] = {"sha256": hashlib.sha256(data).hexdigest(),
                                          "lines": data.count(b"\n")}
    return table


def observables(workdir: Path) -> dict:
    return {"stores": {name: store_observables(name, workdir) for name in STORES},
            "merges": merge_observables(workdir)}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_the_corpus(pins):
    assert sorted(pins["stores"]) == sorted(STORES)
    assert len(pins["merges"]) == len(STORES) ** 2


@pytest.mark.parametrize("name", sorted(STORES))
def test_store_readers_are_pinned(name, pins, tmp_path):
    assert store_observables(name, tmp_path) == pins["stores"][name]


def test_merges_are_pinned(pins, tmp_path):
    observed = merge_observables(tmp_path)
    assert sorted(key for key, value in observed.items() if pins["merges"][key] != value) == []
    assert any("error" in value for value in observed.values())


def _fail_on_line(monkeypatch, line: int) -> None:
    """Make serializing the ``line``-th store line raise."""
    real_dumps = json.dumps
    calls = []

    def dumps(obj, *args, **kwargs):
        calls.append(obj)
        if len(calls) >= line:
            raise OSError("injected failure while writing")
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)


class TestOneStoreFormat:
    """Regrowth guard: ``repro.pipeline.cache`` alone parses, builds and
    writes store lines, and its whole-store writer never leaves a store
    half-written."""

    DELETED = {"_ResultStore", "_iter_entries", "iter_jsonl_dicts", "is_result_entry"}

    def test_only_the_cache_module_touches_store_lines(self):
        offenders = []
        for path in sorted((SRC / "pipeline").glob("*.py")):
            if path.name == "cache.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                where = f"{path.name}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.Import):
                    if any(alias.name == "json" for alias in node.names):
                        offenders.append(f"{where}:import json")
                elif isinstance(node, ast.ImportFrom):
                    if node.module == "json":
                        offenders.append(f"{where}:from json")
                elif isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Name) and func.id == "open":
                        offenders.append(f"{where}:open")
                    elif isinstance(func, ast.Attribute) and (
                            func.attr == "open"
                            or (func.attr in {"fsync", "replace"}
                                and isinstance(func.value, ast.Name)
                                and func.value.id == "os")):
                        offenders.append(f"{where}:{func.attr}")
        assert offenders == []

    def test_no_module_defines_a_deleted_store_name(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    name = node.name
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    name = node.id
                else:
                    continue
                if name in self.DELETED:
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}:{name}")
        assert offenders == []

    def test_a_failing_merge_into_its_own_input_leaves_it_intact(self, tmp_path, monkeypatch):
        a, b = _store(tmp_path, "shard-a"), _store(tmp_path, "shard-b")
        before = a.read_bytes()
        _fail_on_line(monkeypatch, 3)
        with pytest.raises(OSError, match="injected"):
            merge_stores([a, b], a)
        assert a.read_bytes() == before

    @pytest.mark.parametrize("rewrite", ["merge", "compact"])
    def test_a_failing_rewrite_leaves_no_file_behind(self, rewrite, tmp_path, monkeypatch):
        store = _store(tmp_path, "resumed")
        before = store.read_bytes()
        _fail_on_line(monkeypatch, 2)
        with pytest.raises(OSError, match="injected"):
            if rewrite == "merge":
                merge_stores([store], tmp_path / "merged.jsonl")
            else:
                compact_store(store)
        assert sorted(p.name for p in tmp_path.iterdir()) == [store.name]
        assert store.read_bytes() == before


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PINS.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        table = observables(Path(workdir))
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['stores'])} stores and {len(table['merges'])} merges to {PINS}")
