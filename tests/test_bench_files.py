"""Every committed perf record ``BENCH_*.json`` at the repository root is
well formed.  Shape only: no figure in a record is compared with a time
measured here, so the suite never gates on the speed of its machine."""

import json
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_shape(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    seeds = data["seeds"]
    assert seeds and all(isinstance(s, int) for s in seeds)
    assert data["pairs"] == len(seeds)
    assert isinstance(data["cpu_count"], int) and data["cpu_count"] >= 1
    assert isinstance(data["python"], str) and data["python"]
    metrics = data["end_to_end"]
    assert metrics and data["workloads"]
    for workload in data["workloads"].values():
        assert set(workload) == set(metrics)
        for entry in workload.values():
            for side in ("parent", "change"):
                stats = entry[side]
                assert all(isinstance(stats[k], Real) for k in ("median", "q1", "q3"))
                assert stats["q1"] <= stats["median"] <= stats["q3"]
                assert len(stats["runs"]) == data["pairs"]
