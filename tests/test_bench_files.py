"""The committed benchmark records (`BENCH_*.json`) share one schema.

Each record names its runs by side and workload, and every run carries the
metrics `BENCHMARK.json` declares, as {value, unit}.  Records may hold more
keys than the shared ones (kernel timings, in-process rows and the like).
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
SHARED_KEYS = {"label", "what", "command", "sides", "protocol", "environment", "summary", "runs"}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_schema(path):
    record = json.loads(path.read_text())
    assert SHARED_KEYS <= record.keys()
    assert record["runs"]
    for run in record["runs"]:
        assert run["side"] in record["sides"]
        assert run["workload"] in WORKLOADS
        assert run["trace"] in (0, 1)
        result = run["result"]
        assert result["correct"] is True
        assert result["failed"] == 0
        metrics = result["metrics"]
        for metric in metrics.values():
            assert metric.keys() == {"value", "unit"}
        if run["trace"] == 0:
            assert END_TO_END <= metrics.keys()
        else:
            assert metrics.keys() <= PER_LAYER | END_TO_END
