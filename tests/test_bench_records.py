"""Committed ``BENCH_*.json`` speed records keep the layout and the claim
rules that ROADMAP's "Recording a speed claim" sets out, and committed
``QUALITY_*.json`` panels the quality rule of ROADMAP's item 7.

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
PANELS = sorted(ROOT.glob("QUALITY_*.json"))
QUALITY = ("ar_star", "cr_star", "det_f", "label_coverage", "label_mean_iou")


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


def test_panels_exist():
    assert PANELS


@pytest.fixture(params=PANELS, ids=lambda path: path.name)
def panel(request) -> dict:
    return json.loads(request.param.read_text())


def _paired(panel: dict) -> dict[str, dict[int, dict[str, dict]]]:
    """The panel's runs by workload, seed and side, each run once."""
    runs: dict[str, dict[int, dict[str, dict]]] = {}
    for run in panel["runs"]:
        sides = runs.setdefault(run["workload"], {}).setdefault(run["seed"], {})
        assert run["side"] not in sides, (run["workload"], run["seed"], run["side"])
        sides[run["side"]] = run
    return runs


def _check_pairs(panel: dict) -> None:
    assert KEYS - {"claim"} <= panel.keys()
    runs = _paired(panel)
    assert runs and runs.keys() <= WORKLOADS
    for workload, by_seed in runs.items():
        assert len(by_seed) >= 20, workload
        for seed, sides in by_seed.items():
            assert sides.keys() == {"parent", "change"}, (workload, seed)


def _check_runs(panel: dict) -> None:
    for run in panel["runs"]:
        assert run["correct"] is True and run["failed"] == 0, run


def _check_quality(panel: dict) -> None:
    """For each workload and quality metric, the mean of the paired
    differences (change - parent, signed by the metric's ``better``) is at
    least -3 standard errors of those differences."""
    for workload, by_seed in _paired(panel).items():
        for name in QUALITY:
            sign = 1 if METRICS[name]["better"] == "higher" else -1
            diffs = [sign * (s["change"]["quality"][name] - s["parent"]["quality"][name])
                     for s in by_seed.values()]
            se = statistics.stdev(diffs) / len(diffs) ** 0.5
            assert statistics.mean(diffs) >= -3 * se, (workload, name, statistics.mean(diffs), se)


def test_panel_pairs_the_same_twenty_or_more_seeds(panel):
    _check_pairs(panel)


def test_every_panel_run_is_correct_and_failed_nothing(panel):
    _check_runs(panel)


def test_panel_quality_holds_within_three_paired_standard_errors(panel):
    _check_quality(panel)


def _runs_of(panel: dict, workload: str, side: str) -> list[dict]:
    return [r for r in panel["runs"] if r["workload"] == workload and r["side"] == side]


def _drop_one_change_run(panel: dict) -> None:
    panel["runs"].remove(_runs_of(panel, "train-small", "change")[0])


def _keep_nineteen_seeds(panel: dict) -> None:
    """Drop the highest seeds of train-small, both sides, until 19 are left."""
    seeds = sorted({r["seed"] for r in _runs_of(panel, "train-small", "parent")})[19:]
    panel["runs"] = [r for r in panel["runs"]
                     if not (r["workload"] == "train-small" and r["seed"] in seeds)]


def _fail_one_operation(panel: dict) -> None:
    panel["runs"][-1]["failed"] = 1


def _mark_one_run_incorrect(panel: dict) -> None:
    panel["runs"][0]["correct"] = False


def _lower_change(name: str, by: float):
    def doctor(panel: dict) -> None:
        for run in _runs_of(panel, "decode-large", "change"):
            run["quality"][name] -= by
    return doctor


@pytest.mark.parametrize("check, doctor", [
    (_check_pairs, _drop_one_change_run),
    (_check_pairs, _keep_nineteen_seeds),
    (_check_runs, _fail_one_operation),
    (_check_runs, _mark_one_run_incorrect),
    (_check_quality, _lower_change("label_coverage", 0.1)),
    (_check_quality, _lower_change("ar_star", 0.05)),
], ids=["change-run-missing", "nineteen-seeds", "failed-operation", "incorrect-run",
        "coverage-down-0.1", "ar-star-down-0.05"])
def test_panel_checks_refuse_a_doctored_panel(check, doctor):
    """Each panel rule passes the committed panel and refuses a copy with
    one defect it names."""
    panel = json.loads(PANELS[0].read_text())
    check(panel)
    doctor(panel)
    with pytest.raises(AssertionError):
        check(panel)
