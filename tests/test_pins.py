"""SHA-256 pins of the deterministic CLI outputs of one small pipeline.

A change meant to keep decodes, stores and reports bit-identical must keep
these digests.  A change that means to alter an output updates the pin and
says why.
"""

import hashlib
import json
from pathlib import Path

from gridtext.cli import main

_SYNTH = ["synth", "--pages", "3", "--seed", "5", "--lines", "3", "--chars", "6",
          "--chars-max", "8", "--n-cls", "20", "--jitter-sigma", "0.1",
          "--size-sigma", "0.1", "--label-swap", "0.05", "--drop", "0.05",
          "--spurious", "0.02", "--dir-flip", "0.02", "--noise-seed", "3"]
_CONFIG = {
    "seed": 4,
    "pages": 3,
    "dataset": {"n_lines": 3, "chars_per_line": [5, 7], "n_cls": 10},
    "stages": [
        {"stage": "initialize", "n_passes": 1, "real_prob": 1.0,
         "noise": {"jitter_sigma": 0.1, "label_swap_p": 0.05}},
        {"stage": "train", "n_passes": 2, "real_prob": 0.7, "halve_every": 1,
         "noise": {"jitter_sigma": 0.1, "label_swap_p": 0.05, "drop_p": 0.05}},
    ],
}
PINS = {
    "results.jsonl": "f30d4dc5e8159ef6c0373ce7d302c997852cae5fceb0e07d76ad8be9c3677bfd",
    "eval.json": "7fef1f8053288cf3e156e81b8955768298464930dd05e566f2a269412da8305c",
    "run/store.jsonl": "bc7b8b1bed63359f21aa0a68ecec411c4f88b3f2c766ccbc91bf79c09633004e",
    "run/pass_reports.jsonl": "715e1cfdc04c094c55212726ca4b68d87eaff6d5fb38e09622b4644ea66dbec3",
    "run/labels.jsonl": "d766da631758a78185322bf9022e1406174567529936eb5a75a4a87a38cee6c9",
}


def pipeline_digests(root: Path) -> dict[str, str]:
    """Run synth, decode, eval and train-sim under ``root``; digest each output."""
    data = root / "data"
    assert main([*_SYNTH, "--out", str(data)]) == 0
    assert main(["decode", "--maps-dir", str(data / "maps"),
                 "--out", str(root / "results.jsonl")]) == 0
    assert main(["eval", "--results", str(root / "results.jsonl"),
                 "--annotations", str(data / "annotations.jsonl"),
                 "--out", str(root / "eval.json")]) == 0
    (root / "config.json").write_text(json.dumps(_CONFIG))
    assert main(["train-sim", "--config", str(root / "config.json"),
                 "--out", str(root / "run")]) == 0
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in PINS}


def test_pipeline_outputs_are_pinned(tmp_path, capsys):
    assert pipeline_digests(tmp_path) == PINS
    capsys.readouterr()
