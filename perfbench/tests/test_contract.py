"""BENCHMARK.json agrees with the metrics and workloads the code reports."""

from __future__ import annotations

import json
from pathlib import Path

import run
from layers import PER_LAYER
from workloads import WORKLOADS

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_workloads_match() -> None:
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values() if w.listed
    ]


def test_end_to_end_metrics_match_the_gated_set() -> None:
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert listed == [(m.name, m.unit, m.better) for m in run.END_TO_END if m.gated]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match() -> None:
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
