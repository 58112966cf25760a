"""Committed ``BENCH_*.json`` speed records keep the layout and the claim
rules that ROADMAP's "Recording a speed claim" sets out.

``BENCHMARK.json`` is only read: it names the metrics, their ``better``
direction and the workloads a claim may name.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
KEYS = {"what", "command", "host", "parent", "runs", "claim"}


def test_records_exist():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=lambda path: path.name)
def record(request) -> dict:
    return json.loads(request.param.read_text())


def test_record_has_the_layout_keys(record):
    assert KEYS <= record.keys()


def test_every_run_is_correct_and_failed_nothing(record):
    for run in record["runs"]:
        assert run["result"]["correct"] is True, run["summary"]
        assert run["result"]["failed"] == 0, run["summary"]


def test_parent_and_change_print_one_digest_per_workload_and_seed(record):
    digests: dict[tuple[str, int], set[str]] = {}
    for run in record["runs"]:
        found = re.search(r"digest ([0-9a-f]{16})", run["summary"])
        assert found, run["summary"]
        digests.setdefault((run["workload"], run["seed"]), set()).add(found[1])
    for key, seen in digests.items():
        assert len(seen) == 1, (key, seen)


def test_claim_clears_the_rule(record):
    """At least ten pairs, the change better in at least nine of them by the
    metric's ``better``, and the medians apart by more than the parent's
    interquartile range."""
    claim = record["claim"]
    assert claim["workload"] in WORKLOADS
    metric = METRICS[claim["metric"]]
    pairs = claim["pairs"]
    assert len(pairs) >= 10
    sign = 1 if metric["better"] == "higher" else -1
    better = sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs)
    assert better >= 9, f"change better in {better} of {len(pairs)} pairs"
    parent = [p["parent"] for p in pairs]
    change = [p["change"] for p in pairs]
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (statistics.median(change) - statistics.median(parent))
    assert gain > q3 - q1, (gain, q3 - q1)
