"""The committed paired-run files agree with the runs they store.

A ``BENCH_<n>.json`` records, per workload and end-to-end metric, the parent's
and the change's value in each of its paired runs, plus summaries of them: the
two medians, the number of pairs the change won and the number of ties. These
tests recount the summaries from the stored runs, in the direction
``BENCHMARK.json`` gives each metric.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BETTER = {m["name"]: m["better"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}


def bench_number(path):
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


def stores_runs(data):
    return all("parent_runs" in m for w in data["untraced_pairs"]["workloads"].values()
               for m in w["metrics"].values())


BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=bench_number)
PAIRED = [p for p in BENCH_FILES if stores_runs(json.loads(p.read_text(encoding="utf-8")))]


def test_every_file_from_bench_10_on_stores_its_runs():
    assert [p.name for p in BENCH_FILES if bench_number(p) >= 10] == [p.name for p in PAIRED]
    assert PAIRED


@pytest.mark.parametrize("path", PAIRED, ids=lambda p: p.name)
def test_summaries_equal_a_recount_of_the_runs(path):
    workloads = json.loads(path.read_text(encoding="utf-8"))["untraced_pairs"]["workloads"]
    assert workloads
    for name, workload in workloads.items():
        assert set(workload["metrics"]) == set(BETTER), name
        for metric, m in workload["metrics"].items():
            where = f"{name} {metric}"
            parent, change = m["parent_runs"], m["change_runs"]
            assert len(parent) == len(change) == workload["pairs"] >= 10, where
            assert m["better"] == BETTER[metric], where
            assert m["parent"]["median"] == statistics.median(parent), where
            assert m["change"]["median"] == statistics.median(change), where
            sign = 1 if BETTER[metric] == "higher" else -1
            assert m["change_better_in"] == sum(
                sign * (c - p) > 0 for p, c in zip(parent, change)), where
            assert m["ties"] == sum(c == p for p, c in zip(parent, change)), where
