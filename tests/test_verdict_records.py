"""Pinned vectorize records of the full serial AVX2 and NEON campaigns.

Each TSVC kernel's vectorize record (verdict, plausibility, attempts, LLM
invocations, deciding stage, per-stage outcomes, final code and its SHA,
static-vetter flags) is serialized with sorted keys, and its sha256 is
compared with ``tests/data/verdict_records.json``.  The campaigns run
serially with the default settings at LLM seed 2024, once for AVX2 and once
for NEON.

The pins guard the verdict path from the SAT check to the campaign store:
any change to a verdict, to which stage decided it, or to the candidate the
repair loop settled on shows up as a changed digest.  Re-pin only for a
deliberate change, with::

    PYTHONPATH=src python tests/test_verdict_records.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.llm.synthetic import SyntheticLLMConfig
from repro.pipeline import CampaignConfig, CampaignRunner
from repro.pipeline.runner import LLMVectorizerConfig
from repro.tsvc import all_kernel_names

PINS = Path(__file__).parent / "data" / "verdict_records.json"
TARGETS = ("avx2", "neon")
LLM_SEED = 2024


def record_digests(target: str) -> dict[str, str]:
    """kernel -> sha256 of its sorted-key vectorize record on ``target``."""
    config = LLMVectorizerConfig(llm=SyntheticLLMConfig(seed=LLM_SEED))
    report = CampaignRunner(CampaignConfig(workers=1, target=target)).run(
        vectorizer_config=config)
    return {record.kernel: hashlib.sha256(
                json.dumps(record.result, sort_keys=True).encode()).hexdigest()
            for record in report.records}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


def test_pins_cover_the_suite_on_each_target(pins):
    assert sorted(pins) == sorted(TARGETS)
    for target in TARGETS:
        assert sorted(pins[target]) == sorted(all_kernel_names())


@pytest.mark.parametrize("target", TARGETS)
def test_vectorize_records_are_pinned(target, pins):
    observed = record_digests(target)
    changed = sorted(kernel for kernel, digest in observed.items()
                     if pins[target].get(kernel) != digest)
    assert changed == []
    assert sorted(observed) == sorted(pins[target])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    PINS.parent.mkdir(exist_ok=True)
    table = {target: record_digests(target) for target in TARGETS}
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} records to {PINS}")
