import json
import re
from pathlib import Path

from perfbench import run
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_keys_and_command():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert MANIFEST["command"] == ["python3", "perfbench/run.py"]
    assert MANIFEST["paths"] == ["perfbench"]
    assert 1 <= MANIFEST["run_seconds"] <= 60


def test_every_workload_is_listed_with_a_one_line_why():
    listed = {w["name"]: w for w in MANIFEST["workloads"]}
    assert set(listed) == set(WORKLOADS)
    for w in listed.values():
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert w["why"] and "\n" not in w["why"] and len(w["why"]) <= 200


def test_end_to_end_metrics_match_the_runner_with_units_directions_and_bounds():
    rows = MANIFEST["end_to_end"]
    assert {m["name"]: m["unit"] for m in rows} == run.END_TO_END
    for m in rows:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in rows if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in rows)


def test_per_layer_metrics_match_the_runner_with_units_and_directions():
    rows = MANIFEST["per_layer"]
    assert {m["name"]: m["unit"] for m in rows} == run.PER_LAYER
    for m in rows:
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("higher", "lower")


def test_names_and_units_are_well_formed_and_unique():
    rows = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    names = [m["name"] for m in rows]
    assert len(names) == len(set(names))
    for m in rows:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
