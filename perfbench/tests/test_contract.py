"""The metrics run.py reports are the ones BENCHMARK.json declares."""

import json
from pathlib import Path

import run


def test_metric_names_and_units_match_the_declaration():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
