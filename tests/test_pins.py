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
    "results.jsonl": "fdeda3517537b8eeaa8aabd327d21a925cdc0cee0be172273a141c39d1337d53",
    "eval.json": "825065f8d751cc57941c46a519316119addfa0572e8c619de2ed299945e0a766",
    "run/store.jsonl": "6138d74b10f4bdecf5e574db06eef94933eba5bb5f811b56f146788e12d84982",
    "run/pass_reports.jsonl": "20db4a67afc59f960290f368e14987de1b66b4bd25a8b9f50609808400a8c045",
    "run/labels.jsonl": "794a48168cf40680607e1033a293bec77eb8db3876aa038ea285c526408e2887",
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
