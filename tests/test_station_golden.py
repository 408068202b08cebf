"""A seeded live station run pinned against a committed golden output.

``fixtures/live_station_golden.json`` holds the ``service`` and
``results`` blocks of the run manifest below, produced by the literal
Longest-Wait-First slot loop and the per-page appearance tables that the
running-aggregate baseline and the packed appearance derivation
replaced.  Admission, re-planning, incremental repairs, batched listener
replay and the pull baseline all feed these blocks, so any change in
their output shows here.  Regenerate only for an intended change of
behaviour:

    json.dumps({"service": ..., "results": ...}, indent=2, sort_keys=True)
"""

from __future__ import annotations

import json
import pathlib

from repro.core.pages import instance_from_counts
from repro.engine import BroadcastEngine
from repro.workload.mutations import generate_mutation_trace

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "live_station_golden.json"


def test_seeded_station_run_matches_golden(tmp_path):
    instance = instance_from_counts((6,) * 5, (4, 8, 16, 32, 64))
    trace = generate_mutation_trace(
        instance, seed=11, horizon=128, mutations=40, listeners=4000
    )
    path = tmp_path / "manifest.json"
    BroadcastEngine().live(
        instance, trace, manifest_path=path,
        admission=True, baseline=True,
    )
    manifest = json.loads(path.read_text(encoding="utf-8"))
    produced = {"service": manifest["service"], "results": manifest["results"]}
    assert produced == json.loads(GOLDEN.read_text(encoding="utf-8"))
