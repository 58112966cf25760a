"""Smoke tests for the benchmark itself, at toy size.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import gridtext  # noqa: E402
import run  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, gen_pages  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def toy(name: str):
    """The workload shrunk to two small pages and one all-real pass per stage."""
    w = WORKLOADS[name]
    w = replace(
        w,
        n_pages=2,
        n_train_pages=min(w.n_train_pages, 2),
        stages=tuple(replace(s, n_passes=1, halve_every=None, real_prob=1.0) for s in w.stages),
        setup_reps=2,
        floors=None,
    )
    if w.grid > 64:
        w = replace(w, grid=48, n_lines=(8, 8), chars_per_line=(10, 12))
    return w


@pytest.fixture(autouse=True)
def _work_root(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported(name, trace):
    result = run.run(toy(name), seed=3, seconds=0.01, trace=trace)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for metric, doc in result["metrics"].items():
        assert NAME.fullmatch(metric), metric
        assert doc["unit"] == units[metric], metric
        assert isinstance(doc["value"], (int, float)), metric


def test_spec_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_perturbed_output_fails_the_digest_check(monkeypatch):
    original = gridtext.decoder.PageResult.to_dict
    calls = []

    def to_dict(self):
        calls.append(1)
        doc = original(self)
        if len(calls) > 2:  # every round after the first decodes differently
            doc["lines"][0]["chars"][0]["score"] += 1e-9
        return doc

    monkeypatch.setattr(gridtext.decoder.PageResult, "to_dict", to_dict)
    result = run.run(toy("train-small"), seed=3, seconds=0.01, trace=False)
    assert not result["correct"]


def test_floors_are_enforced():
    score = {"ar_star": 0.9, "cr_star": 0.95, "det_f": 0.9, "label_coverage": 0.97, "label_mean_iou": 0.9}
    assert run.check_quality(WORKLOADS["train-small"], score)
    assert not run.check_quality(WORKLOADS["train-small"], dict(score, label_coverage=0.99))


def test_tracer_restores_the_package():
    originals = {(m, f): getattr(getattr(gridtext, m), f) for m, f in TRACED}
    with Tracer():
        assert gridtext.decoder.follow is not originals[("decoder", "follow")]
        assert gridtext.simloop.match_lines is gridtext.metrics.match_lines
    for (m, f), fn in originals.items():
        assert getattr(getattr(gridtext, m), f) is fn
    assert gridtext.simloop.match_lines is originals[("matching", "match_lines")]


def test_distinct_page_ids_in_mixed_layouts():
    pages = gen_pages(replace(toy("train-dense"), n_pages=4), seed=5)
    assert len({p.page_id for p in pages}) == 4
    assert {p.layout.kind for p in pages} == {"horizontal", "rot90", "rot270", "sine"}


def test_cli_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-small", "--seed", "1", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-small", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
