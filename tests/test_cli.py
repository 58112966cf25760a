import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridtext import metrics, synth
from gridtext.cli import _from_doc, _read_config, build_parser, load_results, main, render_page_svg
from gridtext.decoder import DecodeConfig
from gridtext.geometry import Box, GridShape
from gridtext.predictions import OracleNoise
from gridtext.simloop import StageConfig
from gridtext.synth import Layout, PageConfig


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_byte_identical(tmp_path, capsys):
    args = ["synth", "--pages", "2", "--layout", "sine", "--seed", "7",
            "--lines", "2", "--chars", "4", "--n-cls", "10"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    out_a = json.loads(capsys.readouterr().out)
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    out_b = json.loads(capsys.readouterr().out)
    for doc in (out_a, out_b):  # drop the fields that embed the out dir
        doc.pop("annotations", None)
        doc.pop("maps", None)
    assert out_a == out_b
    ta, tb = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert ta.keys() == tb.keys()
    for name in ta:
        if name != "manifest.json":  # manifest embeds the out dir path
            assert ta[name] == tb[name], name


def test_decode_eval_round_trip(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--pages", "3", "--seed", "5", "--lines", "3",
                 "--chars", "6", "--n-cls", "20", "--out", str(data)]) == 0
    capsys.readouterr()
    results = tmp_path / "results.jsonl"
    assert main(["decode", "--maps-dir", str(data / "maps"),
                 "--out", str(results)]) == 0
    capsys.readouterr()
    assert main(["eval", "--results", str(results),
                 "--annotations", str(data / "annotations.jsonl")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ar_star"] == 1.0
    assert report["cr_star"] == 1.0
    assert report["det_only"] == {"p": 1.0, "r": 1.0, "f": 1.0}
    assert report["det_cls"] == {"p": 1.0, "r": 1.0, "f": 1.0}
    assert {p["ar_star"] for p in report["per_page"]} == {1.0}


def test_eval_hand_fixture(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    annots = tmp_path / "annotations.jsonl"
    chars = [
        {"i": k + 1, "j": 1, "x": 10.0 * (k + 1), "y": 10.0, "w": 0.1, "h": 0.1,
         "cls": c, "score": 0.9}
        for k, c in enumerate([1, 2, 3])
    ]
    extra = [
        {"i": k + 1, "j": 3, "x": 10.0 * (k + 1), "y": 30.0, "w": 0.1, "h": 0.1,
         "cls": c, "score": 0.9}
        for k, c in enumerate([4, 5])
    ]
    results.write_text(json.dumps({
        "page_id": "pg", "img_w": 64, "img_h": 64,
        "lines": [
            {"chars": chars, "sol_conf": 1.0, "eol_conf": 1.0},
            {"chars": extra, "sol_conf": 1.0, "eol_conf": 1.0},
        ],
    }) + "\n")
    annots.write_text(json.dumps({"page_id": "pg", "lines": [[1, 2, 3]]}) + "\n")
    assert main(["eval", "--results", str(results), "--annotations", str(annots)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["ar_star"] - 1 / 3) < 1e-12
    assert report["cr_star"] == 1.0


def test_train_sim_and_export(tmp_path, capsys):
    config = {
        "seed": 4,
        "pages": 3,
        "dataset": {"n_lines": 2, "chars_per_line": 4, "n_cls": 10},
        "stages": [
            {"stage": "initialize", "n_passes": 1, "real_prob": 1.0},
            {"stage": "train", "n_passes": 2, "real_prob": 1.0,
             "noise": {"jitter_sigma": 0.05}},
        ],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["train-sim", "--config", str(cfg_path), "--out", str(out)]) == 0
    quality = json.loads(capsys.readouterr().out)
    assert quality["coverage"] == 1.0
    reports = [json.loads(l) for l in (out / "pass_reports.jsonl").read_text().splitlines()]
    assert len(reports) == 3
    assert reports[0]["losses"] is None  # initialize pass
    assert reports[-1]["losses"] is not None
    assert (out / "store.jsonl").exists()
    assert (out / "labels.jsonl").exists()

    assert main(["export-labels", "--store", str(out / "store.jsonl"),
                 "--config", str(cfg_path),
                 "--out", str(tmp_path / "labels.jsonl")]) == 0
    exported = json.loads(capsys.readouterr().out)
    assert exported["coverage"] == 1.0
    assert (tmp_path / "labels.jsonl").read_text() == (out / "labels.jsonl").read_text()


def test_viz_svg_well_formed(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--pages", "1", "--seed", "2", "--lines", "1", "--chars", "4",
          "--n-cls", "5", "--out", str(data)])
    capsys.readouterr()
    results = tmp_path / "results.jsonl"
    main(["decode", "--maps-dir", str(data / "maps"), "--out", str(results)])
    capsys.readouterr()
    svg_path = tmp_path / "page.svg"
    assert main(["viz", "--results", str(results), "--out", str(svg_path)]) == 0
    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    tags = [el.tag.split("}")[-1] for el in root.iter()]
    assert tags.count("polyline") == 1
    assert tags.count("rect") == 4
    assert tags.count("circle") == 2


def test_viz_without_out_prints_the_svg(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    results.write_text(_jsonl(_RESULT))
    assert main(["viz", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    assert out == render_page_svg(_RESULT) + "\n"
    assert out.startswith("<svg ") and out.count("</svg>") == 1
    ET.fromstring(out)


def test_viz_empty_page_valid_svg():
    for lines in ([], [{"chars": []}]):  # a line without chars draws nothing
        svg = render_page_svg({"img_w": 100, "img_h": 100, "lines": lines})
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert len(list(root)) == 0


def test_layout_kind_alone_reads_as_its_object(tmp_path):
    def pages(layout):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pages": 2, "dataset": {"n_cls": 10, "layout": layout}}))
        return [(p.shape, p.n_cls, p.annotation, p.layout) for p in _read_config(path, 3)[0]]

    assert pages("sine") == pages({"kind": "sine"})
    assert pages("sine")[0][3] == Layout("sine")


def test_blank_jsonl_lines_are_skipped(tmp_path):
    rows = [_jsonl(_RESULT), _jsonl({**_RESULT, "page_id": "p2"})]
    (tmp_path / "plain.jsonl").write_text("".join(rows))
    (tmp_path / "blank.jsonl").write_text("\n".join(rows) + "  \n")
    assert load_results(tmp_path / "blank.jsonl") == load_results(tmp_path / "plain.jsonl")
    assert sorted(load_results(tmp_path / "blank.jsonl")) == ["p2", "pg"]


def test_exit_codes(tmp_path, capsys):
    assert main([]) == 1  # no command: usage error
    assert main(["decode"]) == 2  # no inputs: data error
    assert main(["decode", "--maps", str(tmp_path / "missing.pgnm")]) == 2
    bad = tmp_path / "bad.pgnm"
    bad.write_bytes(b"garbage-not-a-map-file")
    assert main(["decode", "--maps", str(bad)]) == 2
    capsys.readouterr()


def test_module_entry_point_exits_with_mains_code():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "gridtext.cli", "synth", "--pages", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: pages must be >= 1, got 0\n"


def test_decode_deterministic_output(tmp_path, capsys):
    data = tmp_path / "d"
    main(["synth", "--pages", "1", "--seed", "3", "--lines", "2", "--chars", "5",
          "--n-cls", "10", "--out", str(data), "--jitter-sigma", "0.1"])
    capsys.readouterr()
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["decode", "--maps-dir", str(data / "maps"), "--out", str(a)])
    main(["decode", "--maps-dir", str(data / "maps"), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def _one_map(tmp_path, capsys) -> Path:
    data = tmp_path / "data"
    assert main(["synth", "--pages", "1", "--seed", "2", "--lines", "2", "--chars", "4",
                 "--n-cls", "10", "--out", str(data)]) == 0
    capsys.readouterr()
    return next((data / "maps").iterdir())


def _assert_exit_2_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_decode_rejects_infinite_map_values(tmp_path, capsys):
    from gridtext.predictions import load_maps, save_maps

    path = _one_map(tmp_path, capsys)
    maps = load_maps(path)
    maps.box[0, 0, 2] = float("inf")
    save_maps(maps, path)
    _assert_exit_2_one_line(["decode", "--maps", str(path)], capsys)


def test_decode_rejects_out_of_range_flags(tmp_path, capsys):
    path = _one_map(tmp_path, capsys)
    for flags in (["--nms-iou", "nan"], ["--nms-iou", "-1"],
                  ["--dis-threshold", "2"], ["--sol-eol-threshold", "1.5"],
                  ["--max-steps", "0"]):
        _assert_exit_2_one_line(["decode", "--maps", str(path), *flags], capsys)
    assert main(["decode", "--maps", str(path), "--nms-iou", "1", "--max-steps", "1"]) == 0
    capsys.readouterr()


def test_train_sim_rejects_out_of_range_decode_config(tmp_path, capsys):
    for key, value in (("nms_iou", 1.5), ("dis_threshold", -0.5), ("max_steps", 0)):
        config = {
            "pages": 1,
            "dataset": {"n_lines": 2, "chars_per_line": 4, "n_cls": 10},
            "stages": [{"stage": "train", key: value}],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        _assert_exit_2_one_line(
            ["train-sim", "--config", str(cfg_path), "--out", str(tmp_path / "run")], capsys
        )


def test_eval_matches_detection_per_page(tmp_path, capsys):
    # Page "a"'s only result sits exactly on page "b"'s ground truth; page
    # "a"'s ground truth lies elsewhere, and page "b" has no result.
    results = tmp_path / "results.jsonl"
    annots = tmp_path / "annotations.jsonl"
    char = {"i": 2, "j": 2, "x": 40.0, "y": 40.0, "w": 0.1, "h": 0.1, "cls": 1, "score": 0.9}
    results.write_text(json.dumps({
        "page_id": "a", "img_w": 64, "img_h": 64,
        "lines": [{"chars": [char], "sol_conf": 1.0, "eol_conf": 1.0}],
    }) + "\n")
    annots.write_text(
        json.dumps({"page_id": "a", "lines": [[1]], "boxes": [[[10.0, 10.0, 0.1, 0.1]]]})
        + "\n"
        + json.dumps({"page_id": "b", "lines": [[1]], "boxes": [[[40.0, 40.0, 0.1, 0.1]]]})
        + "\n"
    )
    assert main(["eval", "--results", str(results), "--annotations", str(annots)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["det_only"] == {"p": 0.0, "r": 0.0, "f": 0.0}
    assert report["det_cls"] == {"p": 0.0, "r": 0.0, "f": 0.0}


def test_eval_uses_each_pages_image_size(tmp_path, capsys):
    # The same relative box on two page sizes: pooled at the first page's
    # size, page "b"'s result would miss its ground truth.
    results = tmp_path / "results.jsonl"
    annots = tmp_path / "annotations.jsonl"
    rows, ann_rows = [], []
    for pid, size in (("a", 64), ("b", 640)):
        char = {"i": 1, "j": 1, "x": size * 0.2 + size * 0.03, "y": size * 0.2,
                "w": 0.1, "h": 0.1, "cls": 1, "score": 0.9}
        rows.append({"page_id": pid, "img_w": size, "img_h": size,
                     "lines": [{"chars": [char], "sol_conf": 1.0, "eol_conf": 1.0}]})
        ann_rows.append({"page_id": pid, "lines": [[1]],
                         "boxes": [[[size * 0.2, size * 0.2, 0.1, 0.1]]]})
    results.write_text("".join(json.dumps(r) + "\n" for r in rows))
    annots.write_text("".join(json.dumps(r) + "\n" for r in ann_rows))
    assert main(["eval", "--results", str(results), "--annotations", str(annots)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["det_cls"] == {"p": 1.0, "r": 1.0, "f": 1.0}


_EVAL_PAGE_IDS = ("a", "b", "c", "d")
_EVAL_XY = st.sampled_from([8.0, 12.0, 16.0, 40.0])
_EVAL_WH = st.sampled_from([0.05, 0.1, 0.25])
_EVAL_CLS = st.integers(1, 3)


@st.composite
def _eval_inputs(draw):
    """Result and annotation rows of pages on either side or both, and
    whether the annotations carry boxes.  Result lines may be empty."""
    sides = draw(st.lists(st.sampled_from(["results", "annots", "both"]),
                          max_size=len(_EVAL_PAGE_IDS)))
    boxed = draw(st.booleans())
    results, annots = [], []
    for pid, side in zip(_EVAL_PAGE_IDS, sides):
        if side != "annots":
            size = draw(st.sampled_from([64, 128]))
            char = st.fixed_dictionaries({
                "x": _EVAL_XY, "y": _EVAL_XY, "w": _EVAL_WH, "h": _EVAL_WH, "cls": _EVAL_CLS,
                "score": st.sampled_from([0.25, 0.5, 0.9]),
            })
            lines = draw(st.lists(st.lists(char, max_size=4), max_size=3))
            results.append({"page_id": pid, "img_w": size, "img_h": size,
                            "lines": [{"chars": chars} for chars in lines]})
        if side != "results":
            lines = draw(st.lists(st.lists(st.tuples(_EVAL_CLS, _EVAL_XY, _EVAL_XY, _EVAL_WH),
                                           min_size=1, max_size=4), max_size=3))
            row = {"page_id": pid, "lines": [[c for c, *_ in line] for line in lines]}
            if boxed:
                row["boxes"] = [[[x, y, wh, wh] for _, x, y, wh in line] for line in lines]
            annots.append(row)
    if not any(row["lines"] for row in annots):  # AR* needs a reference character
        annots.append({"page_id": "z", "lines": [[1]]})
        if boxed:
            annots[-1]["boxes"] = [[[8.0, 8.0, 0.1, 0.1]]]
    return results, annots, boxed


@settings(deadline=None, max_examples=150)
@given(_eval_inputs(), st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_eval_report_equals_the_metrics_over_its_pages(inputs, iou_th):
    results, annots, boxed = inputs
    with tempfile.TemporaryDirectory() as tmp:
        res_path, ann_path = Path(tmp, "results.jsonl"), Path(tmp, "annotations.jsonl")
        res_path.write_text(_jsonl(*results))
        ann_path.write_text(_jsonl(*annots))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["eval", "--results", str(res_path), "--annotations", str(ann_path),
                         "--iou-th", str(iou_th)]) == 0
    report = json.loads(out.getvalue())

    res_lines = {r["page_id"]: [[c["cls"] for c in ln["chars"]] for ln in r["lines"]]
                 for r in results}
    ann_lines = {a["page_id"]: a["lines"] for a in annots}
    ar, cr, _ = metrics.ar_star(res_lines, ann_lines)
    assert (report["ar_star"], report["cr_star"]) == (ar, cr)

    per_page, totals = [], {False: [0, 0, 0], True: [0, 0, 0]}
    rows = {r["page_id"]: r for r in results}
    for pid in sorted(set(res_lines) | set(ann_lines)):
        counts = metrics.page_counts(res_lines.get(pid, []), ann_lines.get(pid, []))
        p_ar, p_cr = counts.rates() if counts.n_total else (None, None)
        per_page.append({"page_id": pid, "ar_star": p_ar, "cr_star": p_cr})
        annot = next((a for a in annots if a["page_id"] == pid), {"lines": [], "boxes": []})
        gts = [(Box(*box), c) for line, boxes in zip(annot["lines"], annot.get("boxes", []))
               for c, box in zip(line, boxes)]
        for rc, total in totals.items():
            if pid in rows:
                row = rows[pid]
                dets = [(Box(c["x"], c["y"], c["w"], c["h"]), c["cls"], c["score"])
                        for ln in row["lines"] for c in ln["chars"]]
                shape = GridShape(1, 1, row["img_w"], row["img_h"])
                page = metrics.det_counts(dets, gts, shape, iou_th, require_class=rc)
            else:  # every ground-truth box is missed
                page = (0, 0, len(gts))
            total[:] = [a + b for a, b in zip(total, page)]
    assert report["per_page"] == per_page
    if boxed:
        for key, rc in (("det_only", False), ("det_cls", True)):
            p, r, f = metrics.prf(*totals[rc])
            assert report[key] == {"p": p, "r": r, "f": f}
    else:
        assert "det_only" not in report and "det_cls" not in report


def _jsonl(*rows) -> str:
    return "".join(json.dumps(r) + "\n" for r in rows)


_DATASET = {"pages": 1, "dataset": {"n_lines": 2, "chars_per_line": 4, "n_cls": 10}}
_LABEL = {"page_id": "p00000", "q": 1, "n": 1, "x": 40.0, "y": 40.0, "w": 0.1, "h": 0.1,
          "gamma": 0.9, "count": 1}
_RESULT = {"page_id": "pg", "img_w": 64, "img_h": 64, "lines": [{"chars": [
    {"i": 1, "j": 1, "x": 10.0, "y": 10.0, "w": 0.1, "h": 0.1, "cls": 1, "score": 0.9}]}]}
_ANNOT = {"page_id": "pg", "lines": [[1]], "boxes": [[[10.0, 10.0, 0.1, 0.1]]]}
_MAP = json.dumps({"w_g": 1, "h_g": 1, "n_cls": 1, "img_w": 16, "img_h": 16,
                   "box": [[[0.5, 0.5, 0.5, 0.5]]], "dis": [[0.9]], "cls": [[[1.0]]],
                   "sol": [[0.95]], "eol": [[0.95]], "rd": [[[0.25, 0.25, 0.25, 0.25]]]})
_TRAIN_SIM = ["train-sim", "--config", "config.json", "--out", "run"]
_EXPORT = ["export-labels", "--store", "store.jsonl", "--config", "config.json"]
_EVAL = ["eval", "--results", "results.jsonl", "--annotations", "annotations.jsonl"]


def _stage(**keys) -> dict:
    return {"config.json": json.dumps({**_DATASET, "stages": [keys]})}


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _map_with(**keys) -> str:
    """_MAP with its header fields or tensors ``keys`` replaced."""
    return json.dumps({**json.loads(_MAP), **keys})


def _with_char(**keys) -> dict:
    """_RESULT with its one character's ``keys`` replaced."""
    (line,) = _RESULT["lines"]
    return {**_RESULT, "lines": [{"chars": [{**line["chars"][0], **keys}]}]}


@pytest.mark.parametrize("files, argv", [
    pytest.param(_stage(nms_iou="0.3"), _TRAIN_SIM, id="stage-value-of-wrong-type"),
    pytest.param(_stage(nmsiou=0.3), _TRAIN_SIM, id="unknown-stage-key"),
    pytest.param({"config.json": json.dumps({**_DATASET, "stagez": []})}, _TRAIN_SIM,
                 id="unknown-top-level-key"),
    pytest.param({"config.json": "[1, 2]"}, _TRAIN_SIM, id="config-is-a-list"),
    pytest.param(_stage(n_passes=True), _TRAIN_SIM, id="bool-n-passes"),
    pytest.param(_stage(epsilon=1000), _TRAIN_SIM, id="epsilon-overflows-update-weight"),
    pytest.param({"config.json": json.dumps(_DATASET),
                  "store.jsonl": _jsonl(_LABEL, _without(_LABEL, "y"))}, _EXPORT,
                 id="store-row-missing-y"),
    pytest.param({"config.json": json.dumps(_DATASET),
                  "store.jsonl": _jsonl({**_LABEL, "x": "a"})}, _EXPORT,
                 id="store-row-text-x"),
    pytest.param({"results.jsonl": _jsonl(_without(_RESULT, "lines")),
                  "annotations.jsonl": _jsonl(_ANNOT)}, _EVAL, id="results-row-no-lines-eval"),
    pytest.param({"results.jsonl": _jsonl(_without(_RESULT, "lines"))},
                 ["viz", "--results", "results.jsonl"], id="results-row-no-lines-viz"),
    pytest.param({"results.jsonl": _jsonl(_RESULT),
                  "annotations.jsonl": _jsonl(_without(_ANNOT, "lines"))}, _EVAL,
                 id="annotation-row-no-lines"),
    *[pytest.param({"results.jsonl": _jsonl({**_RESULT, "page_id": "p00000"}),
                    "annotations.jsonl": _jsonl({**_ANNOT, "page_id": page_id})}, _EVAL,
                   id=f"annotation-page-id-{kind}")
      for kind, page_id in (("null", None), ("0", 0), ("true", True), ("list", ["p00000"]))],
    pytest.param({"results.jsonl": _jsonl(_RESULT),
                  "annotations.jsonl": _jsonl({**_ANNOT, "boxes": [[[10.0, 10.0]]]})}, _EVAL,
                 id="annotation-two-number-box"),
    pytest.param({"config.json": json.dumps({"pages": 1, "dataset": {"cell_px": 0}})},
                 _TRAIN_SIM, id="cell-px-0"),
    pytest.param({"config.json": json.dumps(_DATASET), "store.jsonl": _jsonl({**_LABEL, "q": 9})},
                 _EXPORT, id="store-line-past-the-transcript"),
    pytest.param({"config.json": json.dumps(_DATASET), "store.jsonl": _jsonl({**_LABEL, "q": -1})},
                 _EXPORT, id="store-negative-line"),
    pytest.param({"config.json": json.dumps(_DATASET),
                  "store.jsonl": _jsonl({**_LABEL, "page_id": "zzz"})}, _EXPORT,
                 id="store-page-not-in-dataset"),
    pytest.param({"results.jsonl": _jsonl(_RESULT),
                  "annotations.jsonl": _jsonl(*[_without(_ANNOT, "page_id")] * 2)}, _EVAL,
                 id="annotations-repeated-page-id"),
    pytest.param({"results.jsonl": _jsonl(_RESULT, _RESULT),
                  "annotations.jsonl": _jsonl(_ANNOT)}, _EVAL, id="results-repeated-page-id"),
    pytest.param({"map.json": json.dumps(
        {"w_g": 1, "h_g": 1, "n_cls": 1, "img_w": [1], "img_h": 16})},
        ["decode", "--maps", "map.json"], id="map-header-list-value"),
    pytest.param({"config.json": json.dumps(
        {"pages": 1, "dataset": {"layout": {"kind": "sine", "amplitude": math.inf}}})},
        _TRAIN_SIM, id="infinite-sine-amplitude"),
    pytest.param({}, ["synth", "--layout", "sine", "--amplitude", "inf"],
                 id="synth-infinite-sine-amplitude"),
    pytest.param(_stage(seed=-1), _TRAIN_SIM, id="negative-stage-seed"),
    pytest.param({"config.json": json.dumps({**_DATASET, "pages": -3})}, _TRAIN_SIM,
                 id="negative-page-count"),
    pytest.param({}, ["synth", "--pages", "-1"], id="synth-negative-page-count"),
    pytest.param({}, ["synth", "--chars-max", "0"], id="synth-chars-max-0"),
    pytest.param({"map.json": _MAP}, ["decode", "--maps", "map.json", "map.json"],
                 id="decode-repeated-page-id"),
    pytest.param({"map.json": _map_with(img_w=1e300)}, ["decode", "--maps", "map.json"],
                 id="map-image-too-wide"),
    pytest.param({}, ["synth", "--cell-px", str(10**400)], id="synth-cell-px-past-float"),
    pytest.param({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(_ANNOT)},
                 [*_EVAL, "--iou-th", "nan"], id="eval-iou-th-nan"),
    pytest.param({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(_ANNOT)},
                 [*_EVAL, "--iou-th", "2"], id="eval-iou-th-above-1"),
    pytest.param({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(_ANNOT)},
                 [*_EVAL, "--iou-th", "-0.1"], id="eval-iou-th-negative"),
    pytest.param({"results.jsonl": _jsonl({**_RESULT, "img_w": 0}),
                  "annotations.jsonl": _jsonl(_ANNOT)}, _EVAL, id="results-image-width-0"),
    pytest.param({"results.jsonl": _jsonl({**_RESULT, "img_h": 1e300}),
                  "annotations.jsonl": _jsonl(_without(_ANNOT, "boxes"))}, _EVAL,
                 id="results-image-too-tall-no-boxes"),
    pytest.param({"results.jsonl": _jsonl({**_RESULT, "img_w": math.nan})},
                 ["viz", "--results", "results.jsonl"], id="results-image-width-nan-viz"),
    pytest.param({"results.jsonl": _jsonl(_with_char(x=math.nan)),
                  "annotations.jsonl": _jsonl(_ANNOT)}, _EVAL, id="results-char-x-nan-eval"),
    pytest.param({"results.jsonl": _jsonl(_with_char(x=math.nan))},
                 ["viz", "--results", "results.jsonl"], id="results-char-x-nan-viz"),
    pytest.param({"results.jsonl": _jsonl(_with_char(w=0))},
                 ["viz", "--results", "results.jsonl"], id="results-char-w-0-viz"),
    pytest.param({"results.jsonl": _jsonl(_with_char(h=-0.1)),
                  "annotations.jsonl": _jsonl(_ANNOT)}, _EVAL, id="results-char-h-negative-eval"),
    pytest.param({"results.jsonl": _jsonl(_with_char(y=10**400)),
                  "annotations.jsonl": _jsonl(_ANNOT)}, _EVAL, id="results-char-y-past-float"),
    pytest.param({"results.jsonl": _jsonl(_with_char(score=math.nan)),
                  "annotations.jsonl": _jsonl(_ANNOT)}, _EVAL, id="results-char-score-nan-eval"),
    pytest.param({"map.json": _map_with(w_g="1")}, ["decode", "--maps", "map.json"],
                 id="map-header-text-w-g"),
    pytest.param({"map.json": _map_with(h_g=1.5)}, ["decode", "--maps", "map.json"],
                 id="map-header-fractional-h-g"),
    pytest.param({"map.json": _map_with(n_cls=1.0)}, ["decode", "--maps", "map.json"],
                 id="map-header-float-n-cls"),
    pytest.param({"map.json": _map_with(img_w="16.0")}, ["decode", "--maps", "map.json"],
                 id="map-header-text-img-w"),
    pytest.param({"map.json": _map_with(version=99)}, ["decode", "--maps", "map.json"],
                 id="map-version-99"),
    pytest.param({"map.json": _map_with(version="x")}, ["decode", "--maps", "map.json"],
                 id="map-version-text"),
    pytest.param({"map.json": _map_with(dis=[["0.9"]])}, ["decode", "--maps", "map.json"],
                 id="map-tensor-text"),
    pytest.param({"map.json": _map_with(dis=[[True]])}, ["decode", "--maps", "map.json"],
                 id="map-tensor-bool"),
    pytest.param({"map.json": _map_with(cls=[[[True]]])}, ["decode", "--maps", "map.json"],
                 id="map-class-tensor-bool"),
    pytest.param({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(
        {**_ANNOT, "boxes": [[[10.0, 10.0, math.nan, 0.1]]]})}, _EVAL, id="annotation-box-w-nan"),
    pytest.param({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(
        {**_ANNOT, "boxes": [[[10.0, 10.0, math.inf, 0.1]]]})}, _EVAL,
        id="annotation-box-w-infinite"),
    pytest.param({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(
        {**_ANNOT, "boxes": [[[10**400, 10.0, 0.1, 0.1]]]})}, _EVAL,
        id="annotation-box-x-past-float"),
    pytest.param({"config.json": json.dumps(_DATASET),
                  "store.jsonl": _jsonl({**_LABEL, "w": math.nan})}, _EXPORT,
                 id="store-row-w-nan"),
    pytest.param({"config.json": json.dumps(_DATASET),
                  "store.jsonl": _jsonl({**_LABEL, "gamma": math.nan})}, _EXPORT,
                 id="store-row-gamma-nan"),
    pytest.param({"config.json": json.dumps(_DATASET),
                  "store.jsonl": _jsonl({**_LABEL, "y": 10**400})}, _EXPORT,
                 id="store-row-y-past-float"),
    pytest.param({"config.json": json.dumps(_DATASET),
                  "store.jsonl": _jsonl(_LABEL, {**_LABEL, "x": 41.0})}, _EXPORT,
                 id="store-repeated-label"),
    pytest.param({"config.json": json.dumps(_DATASET),
                  "store.jsonl": _jsonl({**_LABEL, "count": 0})}, _EXPORT,
                 id="store-row-count-0"),
    pytest.param({"map.json": _map_with(dis=[[0.9], [0.9, 0.1]])},
                 ["decode", "--maps", "map.json"], id="map-tensor-ragged"),
    # 3.6 PiB of class maps: the allocation fails at once on any 64-bit host.
    pytest.param({}, ["synth", "--pages", "1", "--n-cls", str(10**12)], id="synth-maps-too-large"),
    pytest.param({"config.json": json.dumps({"pages": 1, "dataset": {"n_cls": 10**12}})},
                 _TRAIN_SIM, id="train-sim-maps-too-large"),
    # A map file's header stores the grid dims as uint32.
    pytest.param({}, ["synth", "--pages", "1", "--grid-w", str(10**21)],
                 id="synth-grid-w-past-uint32"),
    pytest.param({}, ["synth", "--pages", "1", "--grid-h", str(10**21)],
                 id="synth-grid-h-past-uint32"),
    pytest.param({"config.json": json.dumps({"pages": 1, "dataset": {"w_g": 10**21}})},
                 _TRAIN_SIM, id="train-sim-grid-w-past-uint32"),
    pytest.param({}, ["decode", "--maps-dir", "."], id="decode-empty-maps-dir"),
    pytest.param({}, ["decode", "--maps"], id="decode-maps-without-files"),
])
def test_malformed_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    _assert_exit_2_one_line(argv, capsys)


@pytest.mark.parametrize("files, argv, message", [
    ({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(_ANNOT)},
     [*_EVAL, "--iou-th", "nan"], "error: --iou-th must be in [0, 1], got nan\n"),
    ({"results.jsonl": _jsonl(_RESULT, {**_RESULT, "page_id": "p2", "img_w": 0}),
      "annotations.jsonl": _jsonl(_without(_ANNOT, "boxes"))}, _EVAL,
     "error: results.jsonl:2: row.img_w: must be in [1e-100, 1e+100], got 0\n"),
    ({"results.jsonl": _jsonl(_RESULT, {**_with_char(w=0), "page_id": "p2"}),
      "annotations.jsonl": _jsonl(_ANNOT)}, _EVAL,
     "error: results.jsonl:2: row.lines[0].chars[0].w: must be > 0, got 0\n"),
    ({"results.jsonl": _jsonl(_with_char(score=math.nan)),
      "annotations.jsonl": _jsonl(_ANNOT)}, _EVAL,
     "error: results.jsonl:1: row.lines[0].chars[0].score: must be finite, got nan\n"),
    ({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(
        {**_ANNOT, "lines": [[1, 2]], "boxes": [[[10.0, 10.0, 0.1, 0.1], [20.0, 10.0, 0, 0.1]]]})},
     _EVAL, "error: annotations.jsonl:1: row.boxes[0][1][2]: must be > 0, got 0\n"),
    ({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(
        {**_ANNOT, "boxes": [[[10.0, 10.0, 0.1, -0.5]]]})},
     _EVAL, "error: annotations.jsonl:1: row.boxes[0][0][3]: must be > 0, got -0.5\n"),
    ({"config.json": json.dumps(_DATASET), "store.jsonl": _jsonl({**_LABEL, "h": 0})},
     _EXPORT, "error: store.jsonl:1: row.h: must be > 0, got 0\n"),
    ({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(
        {**_without(_ANNOT, "boxes"), "lines": [[1], [2], []]})},
     _EVAL, "error: annotations.jsonl:1: row.lines[2]: must be non-empty\n"),
    ({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl({**_ANNOT, "boxes": []})},
     _EVAL, "error: annotations.jsonl:1: row.boxes: expected 1 lines, got 0\n"),
    ({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(
        {**_ANNOT, "boxes": [_ANNOT["boxes"][0] * 2]})},
     _EVAL, "error: annotations.jsonl:1: row.boxes[0]: expected 1 boxes, got 2\n"),
    ({"map.json": _map_with(n_cls=0)}, ["decode", "--maps", "map.json"],
     "error: map.json: header: n_cls must be >= 1, got 0\n"),
    ({"map.json": _map_with(w_g=0, h_g=4)}, ["decode", "--maps", "map.json"],
     "error: map.json: header: grid dims must be >= 1, got 0x4\n"),
    ({"config.json": json.dumps({"dataset": {"chars_per_line": [1, 2, 3]}})}, _TRAIN_SIM,
     "error: dataset.chars_per_line: expected 2 items, got 3\n"),
    ({"results.jsonl": _jsonl(_RESULT), "annotations.jsonl": ""}, _EVAL,
     "error: no annotations in annotations.jsonl\n"),
    ({"results.jsonl": ""}, ["viz", "--results", "results.jsonl"],
     "error: no results in results.jsonl\n"),
    ({"results.jsonl": _jsonl(_RESULT)}, ["viz", "--results", "results.jsonl", "--page", "zz"],
     "error: page 'zz' not in results.jsonl\n"),
    ({"results.jsonl": _jsonl({**_RESULT, "page_id": "a"}, {**_RESULT, "page_id": "b"})},
     ["viz", "--results", "results.jsonl", "--page", ""],
     "error: page '' not in results.jsonl\n"),
    ({"md/x.pgnm": "hello"}, ["decode", "--maps-dir", "md"],
     "error: md/x.pgnm: header: not a prediction-map file\n"),
    ({}, ["decode", "--maps-dir", "."], "error: --maps-dir . holds no map files\n"),
    ({}, ["decode", "--maps"], "error: --maps names no map files\n"),
    ({}, ["decode"], "error: decode needs --maps or --maps-dir\n"),
], ids=["iou-th", "img-w", "char-w", "char-score", "annotation-box-w-0",
        "annotation-box-h-negative", "store-row-h-0", "annotation-empty-line",
        "annotation-no-box-lines", "annotation-extra-box", "map-n-cls-0", "map-grid-w-0",
        "chars-per-line-3-items", "eval-no-annotations", "viz-no-results", "viz-unknown-page",
        "viz-empty-page-id", "decode-not-a-map-file", "decode-empty-maps-dir",
        "decode-maps-without-files", "decode-no-maps-flag"])
def test_eval_range_errors_name_the_flag_or_the_row(tmp_path, monkeypatch, capsys, files, argv,
                                                    message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("config", [
    DecodeConfig(), DecodeConfig(nms_iou=0.5, max_steps=7),
    OracleNoise(), OracleNoise(drop_p=0.1, seed=3),
    Layout(), Layout("sine", amplitude=2.0, period=6.0),
    PageConfig(), PageConfig(chars_per_line=(3, 8), layout=Layout("rot90")),
    StageConfig(), StageConfig(halve_every=2, noise=OracleNoise(jitter_sigma=0.1),
                               decode=DecodeConfig(max_steps=9)),
], ids=lambda c: type(c).__name__)
def test_from_doc_reads_back_a_dataclass_as_json(config):
    doc = json.loads(json.dumps(dataclasses.asdict(config)))
    assert _from_doc(type(config), doc, "config") == config


@pytest.mark.parametrize("files, message", [
    (_stage(n_passes=0), "error: stages[0]: n_passes must be >= 1, got 0\n"),
    (_stage(real_prob=1.5), "error: stages[0]: real_prob must be in [0, 1], got 1.5\n"),
    (_stage(seed=-1), "error: stages[0]: seed must be >= 0, got -1\n"),
    (_stage(noise={"seed": -1}), "error: stages[0].noise: seed must be >= 0, got -1\n"),
    ({"config.json": json.dumps({**_DATASET, "dataset": {**_DATASET["dataset"], "seed": -1}})},
     "error: dataset: seed must be >= 0, got -1\n"),
    (_stage(nms_iou=2), "error: stages[0]: nms_iou must be in [0, 1], got 2\n"),
    ({"config.json": json.dumps({**_DATASET, "dataset": {"layout": "zig"}})},
     "error: dataset.layout: unknown layout 'zig', pick from "
     "('horizontal', 'rot90', 'rot180', 'rot270', 'sine')\n"),
    ({"config.json": json.dumps({**_DATASET, "seed": -1})},
     "error: seed must be >= 0, got -1\n"),
    ({"config.json": json.dumps({**_DATASET, "seed": -1, "stages": [{"seed": 0}]})},
     "error: seed must be >= 0, got -1\n"),
    (_stage(stage="warmup"), "error: stages[0]: unknown stage 'warmup'\n"),
], ids=["n-passes", "real-prob", "stage-seed", "noise-seed", "dataset-seed", "nms-iou",
        "layout", "config-seed", "config-seed-stage-seeded", "unknown-stage"])
def test_stage_range_errors_give_the_value(tmp_path, monkeypatch, capsys, files, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(files["config.json"])
    assert main(_TRAIN_SIM) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv", [_TRAIN_SIM, _EXPORT], ids=["train-sim", "export-labels"])
def test_seed_flag_out_of_range_names_the_flag(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(_DATASET))
    (tmp_path / "store.jsonl").write_text("")
    assert main([*argv, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


def _nan_last_value(path: Path) -> None:
    """Overwrite the last float32 of a binary map file, an rd value, with NaN."""
    raw = path.read_bytes()
    path.write_bytes(raw[:-4] + struct.pack("<f", math.nan))


@pytest.mark.parametrize("corrupt, message", [
    ("p00001.pgnm", "rd: non-finite payload (NaN or inf)"),
    ("p00001.json", "header: missing field 'h_g'"),
], ids=["binary-nan", "json-missing-field"])
def test_decode_error_names_the_map_file(tmp_path, capsys, corrupt, message):
    maps_dir = tmp_path / "maps"
    if corrupt.endswith(".pgnm"):
        assert main(["synth", "--pages", "2", "--lines", "1", "--chars", "3",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _nan_last_value(maps_dir / corrupt)
    else:
        maps_dir.mkdir()
        (maps_dir / "p00000.json").write_text(_MAP)
        (maps_dir / corrupt).write_text(json.dumps(_without(json.loads(_MAP), "h_g")))
    assert main(["decode", "--maps-dir", str(maps_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {maps_dir / corrupt}: {message}\n"


@pytest.mark.parametrize("files, argv, message", [
    ({"config.json": b"{bad"}, _TRAIN_SIM, "error: config.json: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)\n"),
    ({"results.jsonl": b"\xff\xfe", "annotations.jsonl": _jsonl(_ANNOT).encode()}, _EVAL,
     "error: results.jsonl: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte\n"),
], ids=["config-bad-json", "results-not-utf8"])
def test_unreadable_input_errors_name_the_file(tmp_path, monkeypatch, capsys, files, argv,
                                              message):
    monkeypatch.chdir(tmp_path)
    for name, raw in files.items():
        (tmp_path / name).write_bytes(raw)
    assert main(argv) == 2
    assert capsys.readouterr().err == message


# Inputs on which each command below runs.
_RUNNABLE = {
    "config.json": json.dumps(_DATASET), "store.jsonl": _jsonl(_LABEL),
    "results.jsonl": _jsonl(_RESULT), "annotations.jsonl": _jsonl(_ANNOT), "maps/pg.json": _MAP,
}


@pytest.mark.parametrize("argv, path", [
    (["synth", "--pages", "1", "--lines", "1", "--chars", "2", "--out"], "out"),
    (["decode", "--maps-dir", "maps", "--out"], "out.jsonl"),
    ([*_EVAL, "--out"], "out.json"),
    (_TRAIN_SIM[:-1], "out"),
    ([*_EXPORT, "--out"], "out.jsonl"),
    (["viz", "--results", "results.jsonl", "--out"], "out.svg"),
    (["decode", "--maps-dir"], "maps"),
], ids=["synth", "decode", "eval", "train-sim", "export-labels", "viz", "decode-maps-dir"])
def test_empty_path_flag_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, argv, path):
    monkeypatch.chdir(tmp_path)
    for name, text in _RUNNABLE.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    before = _tree(tmp_path)
    assert main([*argv, ""]) == 2
    assert capsys.readouterr() == ("", f"error: {argv[-1]}: empty path\n")
    assert _tree(tmp_path) == before
    assert main([*argv, path]) == 0  # the same command runs once the flag names a path


def _subparser(command: str) -> argparse.ArgumentParser:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


def test_flags_not_given_leave_no_trace_in_the_namespace():
    # The dataclasses hold the only defaults: a flag of theirs that is not
    # given must not reach them.
    assert set(vars(_subparser("synth").parse_args([]))) == {"func", "seed", "out", "pages",
                                                            "emit_maps"}
    assert set(vars(_subparser("decode").parse_args([]))) == {"func", "out", "maps", "maps_dir"}


@pytest.mark.parametrize("flags, config", [
    ([], PageConfig()),
    (["--chars", "6"], PageConfig(chars_per_line=(6, 6))),
    (["--chars-max", "12"], PageConfig(chars_per_line=(10, 12))),
    (["--chars", "6", "--chars-max", "12"], PageConfig(chars_per_line=(6, 12))),
    (["--layout", "rot90", "--amplitude", "2", "--grid-w", "40", "--grid-h", "24",
      "--cell-px", "8", "--lines", "3", "--n-cls", "20", "--seed", "3"],
     PageConfig(n_lines=3, n_cls=20, layout=Layout("rot90", amplitude=2.0), w_g=40, h_g=24,
                cell_px=8, seed=3)),
    (["--layout", "sine", "--period", "8"], PageConfig(layout=Layout("sine", period=8.0))),
], ids=["no-flags", "chars", "chars-max", "chars-both", "rot90", "sine"])
def test_synth_manifest_config_is_a_train_sim_dataset(flags, config, capsys):
    assert main(["synth", "--pages", "1", "--no-emit-maps", *flags]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert _from_doc(PageConfig, manifest["config"], "dataset") == config


def test_train_sim_help_names_every_config_field():
    words = set(re.findall(r"\w+", _read_config.__doc__))
    for cls in (PageConfig, Layout, OracleNoise, StageConfig, DecodeConfig):
        # StageConfig.decode is no key: its fields sit flat in the stage.
        missing = [f.name for f in dataclasses.fields(cls)
                   if f.name not in words and (cls, f.name) != (StageConfig, "decode")]
        assert not missing, (cls.__name__, missing)


def _exit_0_or_2_with_one_line(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    assert code in (0, 2), (code, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


_TINY_SYNTH = ["synth", "--pages", "1", "--lines", "1", "--chars", "2", "--grid-w", "12",
               "--grid-h", "12", "--layout", "sine", "--jitter-sigma", "0.1"]


def test_synth_round_trip_mismatch_exits_3_with_one_line(monkeypatch, tmp_path, capsys):
    decode = synth.decode

    def decode_dropping_a_char(maps, config):
        result = decode(maps, config)
        del result.lines[0].chars[-1]
        return result

    monkeypatch.setattr(synth, "decode", decode_dropping_a_char)
    assert main([*_TINY_SYNTH, "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: p00000: zero-noise round trip mismatch\n"


_NUMBER_FLAGS = {
    a.option_strings[0]: a.type for a in _subparser("synth")._actions if a.type in (int, float)
}
_SMALL_INTS = st.integers(-3, 40)  # no draw allocates a large grid


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(sorted(_NUMBER_FLAGS)).flatmap(lambda flag: st.tuples(
    st.just(flag), _SMALL_INTS if _NUMBER_FLAGS[flag] is int else st.floats() | _SMALL_INTS
)))
@example(("--amplitude", math.inf))
@example(("--period", math.nan))
@example(("--jitter-sigma", math.nan))
@example(("--noise-seed", -1))
@example(("--pages", -1))
@example(("--size-sigma", 1000))
@example(("--jitter-sigma", 1e308))
@example(("--period", 1e-310))
def test_any_synth_number_exits_0_or_2(flag_value):
    flag, value = flag_value
    with tempfile.TemporaryDirectory() as out:
        _exit_0_or_2_with_one_line([*_TINY_SYNTH, f"{flag}={value}", "--out", out])


_TINY_CONFIG = {
    "pages": 1,
    "dataset": {"n_lines": 1, "chars_per_line": 2, "n_cls": 5, "w_g": 12, "h_g": 12,
                "layout": {"kind": "sine"}},
    "stages": [{"stage": "train", "real_prob": 1.0, "noise": {"jitter_sigma": 0.1}}],
}
# (path to an object in the config, key) for every key a train-sim config reads.
_CONFIG_KEYS = (
    [((), "seed"), ((), "pages")]
    + [(("dataset",), f.name) for f in dataclasses.fields(PageConfig)]
    + [(("dataset", "layout"), f.name) for f in dataclasses.fields(Layout)]
    + [(("stages", 0), f.name) for f in dataclasses.fields(StageConfig) if f.name != "decode"]
    + [(("stages", 0), f.name) for f in dataclasses.fields(DecodeConfig)]
    + [(("stages", 0, "noise"), f.name) for f in dataclasses.fields(OracleNoise)]
)
_JSON_SCALARS = _SMALL_INTS | st.floats() | st.booleans() | st.text(max_size=8) | st.none()


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(_CONFIG_KEYS), _JSON_SCALARS)
@example((("dataset", "layout"), "amplitude"), math.inf)
@example((("stages", 0), "seed"), -1)
@example((("stages", 0), "halve_every"), -1)
@example((("stages", 0, "noise"), "size_sigma"), math.nan)
@example(((), "pages"), -3)
@example((("stages", 0, "noise"), "size_sigma"), 1000)
@example((("stages", 0, "noise"), "jitter_sigma"), 1e308)
@example((("dataset", "layout"), "period"), 1e-310)
def test_any_train_sim_scalar_exits_0_or_2(where, value):
    config = json.loads(json.dumps(_TINY_CONFIG))
    path, key = where
    doc = config
    for step in path:
        doc = doc[step]
    doc[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config))
        _exit_0_or_2_with_one_line(
            ["train-sim", "--config", str(cfg_path), "--out", str(Path(tmp) / "run")]
        )
