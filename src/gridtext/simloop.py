"""Weak-supervision lifecycle: pretrain / initialize / train passes.

Instead of gradient descent, the oracle's noise schedule decreases across
passes, emulating a predictor that improves; the loop verifies that
pseudo-labels converge and losses descend.  A pass visits pages in dataset
order: predict, decode, match against transcripts, spatially filter, update
the pseudo-label store, and (outside the initialize stage) compute the loss
report.  Pages drawn as "synthetic" by the real/synthetic mix, and every
pretrain page, are scored against their full ground truth instead of the
store and never touch it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .decoder import DecodeConfig, decode
from .geometry import ious, ordered_sum
from .jsoncheck import check_ranges, ranged
from .losses import compute_losses
from .matching import match_chars, match_lines, spatial_filter
from .predictions import OracleNoise, oracle_predict
from .pseudolabels import EPSILON_SCALE, PseudoLabel, PseudoLabelStore, build_targets, update
from .synth import SyntheticPage

PRETRAIN = "pretrain"
INITIALIZE = "initialize"
TRAIN = "train"
STAGES = (PRETRAIN, INITIALIZE, TRAIN)


class ConfigError(ValueError):
    """The stage configuration does not match the dataset or store."""


@dataclass
class StageConfig:
    stage: str = TRAIN
    n_passes: int = ranged(1, 1)
    noise: OracleNoise = field(default_factory=OracleNoise)
    halve_every: int | None = ranged(None, 1)  # halve all noise magnitudes every k passes
    real_prob: float = ranged(0.7, 0, 1)
    seed: int = ranged(0, 0)
    th_ar: float = ranged(0.3, -math.inf)
    th_iou: float = ranged(0.5, 0, 1)
    # gamma and the score are at most 1, so each exponential in
    # update_weight is at most e^709 and their sum stays finite.
    epsilon: float = ranged(EPSILON_SCALE, 0, 709)
    decode: DecodeConfig = field(default_factory=DecodeConfig)

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}")
        check_ranges(self, ConfigError)

    def noise_for_pass(self, k: int) -> OracleNoise:
        if self.halve_every is not None:
            return self.noise.scaled(0.5 ** (k // self.halve_every))
        return self.noise


@dataclass
class PassReport:
    pass_idx: int
    stage: str
    losses: dict[str, float] | None
    coverage: float
    mean_iou: float | None
    n_line_matches: int
    n_char_matches: int
    n_filtered: int

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["pass"] = doc.pop("pass_idx")
        return doc


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _gt_labels(page: SyntheticPage) -> dict[tuple[int, int], PseudoLabel]:
    return {
        (q, n): PseudoLabel(box=box, gamma=1.0)
        for q, line in enumerate(page.annotation.boxes, start=1)
        for n, box in enumerate(line, start=1)
    }


def coverage(store: PseudoLabelStore, pages: Sequence[SyntheticPage]) -> float:
    total = sum(p.annotation.n_chars() for p in pages)
    have = sum(len(store.labels(p.page_id)) for p in pages)
    return have / total if total else 0.0


def mean_label_iou(
    store: PseudoLabelStore, pages: Sequence[SyntheticPage]
) -> float | None:
    """Mean IoU between stored pseudo-labels and ground-truth boxes; None
    when the store holds no label of these pages.

    Each page's labels are scored with one :func:`ious` call, and the
    IoUs are summed in store order by :func:`ordered_sum`."""
    vals: list[float] = []
    for page in pages:
        labels = store.labels(page.page_id)
        if labels:
            gt = page.annotation.boxes
            boxes = [label.box for label in labels.values()]
            vals.extend(ious(boxes, [gt[q - 1][n - 1] for q, n in labels], page.shape))
    if not vals:
        return None
    return ordered_sum(vals) / len(vals)


def check_store(store: PseudoLabelStore, dataset: Sequence[SyntheticPage]) -> None:
    """Raise ConfigError unless every stored label is a character of the
    transcript of a dataset page."""
    pages = {page.page_id: page for page in dataset}
    stale = [pid for pid in store.page_ids() if pid not in pages]
    if stale:
        raise ConfigError(f"store holds pages not in the dataset: {stale[:5]}")
    for pid in store.page_ids():
        lines = pages[pid].annotation.lines
        for q, n in store.labels(pid):
            if not (1 <= q <= len(lines) and 1 <= n <= len(lines[q - 1])):
                raise ConfigError(
                    f"store label ({q}, {n}) of page {pid!r} is outside its transcript"
                )


def run_stage(
    dataset: Sequence[SyntheticPage],
    store: PseudoLabelStore,
    config: StageConfig,
) -> list[PassReport]:
    """Run one stage over the dataset, mutating the store; returns reports.

    Deterministic in (dataset, initial store, config): the oracle seed is
    derived per (stage seed, pass, page) and the path/mix draws come from
    stage-seeded generators consumed in page order.

    Every pass of every stage predicts a page from its one ``page.plan``,
    read for each page before the first pass, so a page whose characters
    collide raises GridCollisionError before any pass touches the store.
    """
    dataset = list(dataset)
    ids = Counter(p.page_id for p in dataset)
    dup = sorted(pid for pid, n in ids.items() if n > 1)
    if dup:
        raise ConfigError(f"duplicate page ids in the dataset: {dup[:5]}")
    check_store(store, dataset)

    for page in dataset:
        page.plan  # a colliding page raises GridCollisionError here
    mix_rng = np.random.default_rng([config.seed, 1])
    reports: list[PassReport] = []
    for k in range(config.n_passes):
        noise_k = config.noise_for_pass(k)
        path_rng = np.random.default_rng([config.seed, 2, k])
        loss_sums: dict[str, float] = {}
        n_loss_pages = 0
        n_ml = n_mc = n_filtered = 0

        for idx, page in enumerate(dataset):
            maps = oracle_predict(page, replace(noise_k, seed=_derived_seed(config.seed, k, idx)))
            result = decode(maps, config.decode)
            as_real = config.stage != PRETRAIN and mix_rng.random() < config.real_prob

            if as_real:
                transcripts = result.transcripts()
                m_l = match_lines(transcripts, page.annotation.lines, config.th_ar)
                m_c, m_ce = match_chars(m_l)
                m_c_kept = spatial_filter(
                    m_c, result, store.labels(page.page_id), page.shape, config.th_iou
                )
                n_ml += len(m_l)
                n_mc += len(m_c)
                n_filtered += len(m_c) - len(m_c_kept)
                update(store, page.page_id, m_c_kept, result, config.epsilon)
                labels = store.labels(page.page_id)
            else:
                # Synthetic treatment: full ground truth stands in for the
                # store; all result characters supply presence negatives.
                labels = _gt_labels(page)
                m_ce = {
                    (p, m)
                    for p, line in enumerate(result.lines, start=1)
                    for m in range(1, len(line.chars) + 1)
                }
            if config.stage != INITIALIZE:
                targets = build_targets(
                    labels, page.annotation, result, m_ce, page.shape, path_rng
                )
                report = compute_losses(maps, targets, labels, page.annotation)
                n_loss_pages += 1
                for name, value in report.terms().items():
                    loss_sums[name] = loss_sums.get(name, 0.0) + value
                loss_sums["total"] = loss_sums.get("total", 0.0) + report.l_total

        losses = None
        if n_loss_pages:
            losses = {name: value / n_loss_pages for name, value in loss_sums.items()}
        reports.append(
            PassReport(
                pass_idx=k,
                stage=config.stage,
                losses=losses,
                coverage=coverage(store, dataset),
                mean_iou=mean_label_iou(store, dataset),
                n_line_matches=n_ml,
                n_char_matches=n_mc,
                n_filtered=n_filtered,
            )
        )
    return reports


def export_labels(
    store: PseudoLabelStore, dataset: Sequence[SyntheticPage]
) -> tuple[list[dict], dict]:
    """Pseudo-labels as annotation rows plus a quality report.

    The report carries label coverage and the mean IoU between
    pseudo-labels and ground truth.  A store that does not fit the dataset
    raises ConfigError.
    """
    check_store(store, dataset)
    rows = list(store.rows(page.page_id for page in dataset))
    report = {
        "n_labels": len(rows),
        "n_chars": sum(p.annotation.n_chars() for p in dataset),
        "coverage": coverage(store, dataset),
        "mean_iou": mean_label_iou(store, dataset),
    }
    return rows, report
