"""The BENCH records: every committed record holds each part the recorder
writes.  No timing is bounded.

    PYTHONPATH=src python -m pytest -q tests/test_bench_record.py
"""

import glob
import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import record  # noqa: E402

RECORDS = sorted(glob.glob(os.path.join(ROOT, "bench", "BENCH_*.json")),
                 key=lambda path: int(re.search(r"BENCH_(\d+)\.json$", path).group(1)))


def _load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_committed_record_is_complete(path):
    assert record.validate(_load(path)) == []


def test_validate_names_what_is_missing_or_malformed():
    doc = _load(RECORDS[-1])
    del doc["workloads"]["growth-verify"]
    doc["commands"]["check lazer"]["counts"]["quad.evals"] = 1.5
    doc["workloads"]["bump-check"]["trace0"]["result"]["metrics"]["op_s"]["value"] = "fast"
    assert record.validate(doc) == [
        "workloads: growth-verify missing",
        "workloads.bump-check.trace0.metrics.op_s.value: expected ('int', 'float'), got 'fast'",
        "commands.check lazer.counts.quad.evals: expected int, got 1.5",
    ]


def test_validate_holds_a_changed_tree_to_its_diff_and_counts_to_repeat():
    doc = _load(RECORDS[-1])
    doc["parent"] = "eece52d"
    doc["dirty"], doc["diff_sha256"] = True, None
    doc["seconds"] = 30
    doc["commands"]["check lazer"]["counts_repeat"] = False
    assert record.validate(doc) == [
        "parent: expected 40 hex digits, got 'eece52d'",
        "diff_sha256: expected 64 hex digits, got None",
        "seconds: expected 8.0, got 30",
        "commands.check lazer.counts_repeat: expected True, got False",
    ]
    doc["dirty"] = False
    assert "diff_sha256: expected 64 hex digits, got None" not in record.validate(doc)
