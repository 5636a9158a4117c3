"""Checks on the committed ``BENCH_<n>.json`` records against ``BENCHMARK.json``."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.partition("_")[2]))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_claims_a_declared_metric_on_a_declared_workload(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = json.loads(path.read_text())["claim"]
    assert claim["metric"] in {metric["name"] for metric in declared["end_to_end"]}
    assert claim["workload"] in {workload["name"] for workload in declared["workloads"]}
