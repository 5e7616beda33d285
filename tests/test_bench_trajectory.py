"""BENCH_trajectory.json, the committed record of benchmarked changes, against BENCHMARK.json."""

import json
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_accepted_records_carry_every_end_to_end_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    doc = json.loads((ROOT / "BENCH_trajectory.json").read_text())
    assert doc["units"] == units
    records = doc["records"]
    assert records
    assert [r["pr"] for r in records] == sorted({r["pr"] for r in records})  # appended in order, once each
    for r in records:
        assert r["verdict"] in ("accepted", "refused"), r["pr"]
        if r["verdict"] == "refused":
            assert r["medians"] is None and r["reason"], r["pr"]
            continue
        assert isinstance(r["sha"], str) and len(r["sha"]) >= 7, r["pr"]
        assert r["medians"] and set(r["medians"]) <= workloads, r["pr"]
        for workload, values in r["medians"].items():
            assert set(values) == set(units), (r["pr"], workload)
            for pair in values.values():
                assert set(pair) == {"parent", "change"}, (r["pr"], workload)
                assert all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in pair.values())
        if r["claim"] is not None:
            assert r["claim"]["metric"] in units and r["claim"]["workload"] in r["medians"], r["pr"]
