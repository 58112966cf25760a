"""Page-level evaluation: AR*/CR*, detection P/R/F, and classic AR/CR.

AR*/CR* pair result lines with annotated transcripts per page using the
same greedy descending-AR matching as training-time line matching, but
without any threshold.  Characters of unmatched result lines count as
insertions and characters of unmatched annotation lines as deletions, so
the metrics reflect detection as well as recognition quality.  AR* may be
negative and is never clamped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

from .geometry import Box, GridShape, iou
from .matching import edit_counts, match_lines

logger = logging.getLogger(__name__)


@dataclass
class ErrorCounts:
    n_ie: int = 0
    n_de: int = 0
    n_se: int = 0
    n_total: int = 0

    def add(self, other: "ErrorCounts") -> None:
        self.n_ie += other.n_ie
        self.n_de += other.n_de
        self.n_se += other.n_se
        self.n_total += other.n_total


def _page_counts(
    results: Sequence[Sequence[int]], annots: Sequence[Sequence[int]]
) -> ErrorCounts:
    pairs = match_lines(results, annots, th_ar=float("-inf"))
    counts = ErrorCounts(n_total=sum(len(a) for a in annots))
    matched_p = {p for p, _ in pairs}
    matched_q = {q for _, q in pairs}
    for p, q in pairs:
        ie, de, se = edit_counts(results[p - 1], annots[q - 1])
        counts.n_ie += ie
        counts.n_de += de
        counts.n_se += se
    for p, res in enumerate(results, start=1):
        if p not in matched_p:
            counts.n_ie += len(res)
    for q, ann in enumerate(annots, start=1):
        if q not in matched_q:
            counts.n_de += len(ann)
    return counts


def ar_star(
    results: Mapping[str, Sequence[Sequence[int]]],
    annots: Mapping[str, Sequence[Sequence[int]]],
) -> tuple[float, float, ErrorCounts]:
    """(AR*, CR*, accumulated error counts) over per-page line sets.

    Matching runs per page; pages present on only one side contribute all
    their characters as insertions (results) or deletions (annotations).
    """
    total = ErrorCounts()
    for page_id in sorted(set(results) | set(annots)):
        total.add(_page_counts(results.get(page_id, []), annots.get(page_id, [])))
    if total.n_total == 0:
        raise ValueError("AR* needs at least one annotated character")
    n = total.n_total
    ar = (n - total.n_ie - total.n_de - total.n_se) / n
    cr = (n - total.n_de - total.n_se) / n
    return ar, cr, total


def det_counts(
    results: Sequence[tuple[Box, int, float]],
    gts: Sequence[tuple[Box, int]],
    shape: GridShape,
    iou_th: float = 0.5,
    require_class: bool = True,
) -> tuple[int, int, int]:
    """Detection (tp, fp, fn) of one page's (box, class[, score]) sets.

    Results are matched greedily in descending score order to the free
    ground truth with the highest IoU at or above ``iou_th`` (and equal
    class when ``require_class``).
    """
    order = sorted(range(len(results)), key=lambda k: -results[k][2])
    taken = [False] * len(gts)
    tp = 0
    for k in order:
        box, cls_id, _ = results[k]
        best = -1
        best_iou = 0.0
        for g, (gbox, gcls) in enumerate(gts):
            if taken[g]:
                continue
            if require_class and gcls != cls_id:
                continue
            v = iou(box, gbox, shape)
            if v >= iou_th and v > best_iou:
                best = g
                best_iou = v
        if best >= 0:
            taken[best] = True
            tp += 1
    return tp, len(results) - tp, len(gts) - tp


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision/recall/F from counts; zero denominators define 0."""
    if tp + fp == 0 or tp + fn == 0:
        logger.debug("det_prf with empty side: tp=%d fp=%d fn=%d", tp, fp, fn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def det_prf(
    results: Sequence[tuple[Box, int, float]],
    gts: Sequence[tuple[Box, int]],
    shape: GridShape,
    iou_th: float = 0.5,
    require_class: bool = True,
) -> tuple[float, float, float]:
    """Detection precision/recall/F of one page; see :func:`det_counts`."""
    return prf(*det_counts(results, gts, shape, iou_th, require_class))


def page_ar_cr(result: Sequence[int], annot: Sequence[int]) -> tuple[float, float]:
    """Classic AR/CR on one concatenated page-level sequence."""
    if len(annot) == 0:
        raise ValueError("page AR/CR needs a non-empty annotation")
    ie, de, se = edit_counts(result, annot)
    n = len(annot)
    return (n - ie - de - se) / n, (n - de - se) / n
