"""Page-level evaluation: AR*/CR*, detection P/R/F, and classic AR/CR.

AR*/CR* pair result lines with annotated transcripts per page using the
same greedy descending-AR matching as training-time line matching, but
without any threshold, and count the errors of each matched pair off the
edit script that line matching returns.  Line matching scores each pair by
its edit distance and backtraces a script only for the pairs it matches,
from the columns its packed pass already holds, so a page costs one packed
pass per result line and one backtrace per matched pair.
Characters of unmatched result lines count as insertions and characters of
unmatched annotation lines as deletions, so the metrics reflect detection
as well as recognition quality.  AR* may be negative and is never clamped.

Detection P/R/F matches each page's results to its ground truth greedily
by score.  Class-aware matching tests a result only against the ground
truth of its own class; class-agnostic matching tests it against all.
Either way a ground-truth box that does not overlap the result in x is
skipped before its IoU is computed, as it could not be matched.
"""

from __future__ import annotations

import logging
from typing import Mapping, Sequence

from .geometry import Box, Corners, GridShape, corner_iou
from .matching import ErrorCounts, edit_script, match_lines, script_counts

logger = logging.getLogger(__name__)


def page_counts(
    results: Sequence[Sequence[int]], annots: Sequence[Sequence[int]]
) -> ErrorCounts:
    """One page's AR* error counts: each matched line pair counts by its
    script, an unmatched result line as insertions and an unmatched
    annotation line as deletions."""
    pairs = match_lines(results, annots, th_ar=float("-inf"))
    counts = script_counts([op for script in pairs.values() for op in script])
    matched_p = {p for p, _ in pairs}
    matched_q = {q for _, q in pairs}
    n_ie = sum(len(res) for p, res in enumerate(results, 1) if p not in matched_p)
    n_de = sum(len(ann) for q, ann in enumerate(annots, 1) if q not in matched_q)
    counts.add(ErrorCounts(n_ie=n_ie, n_de=n_de, n_total=n_de))
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
        total.add(page_counts(results.get(page_id, []), annots.get(page_id, [])))
    return (*total.rates(), total)


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
    class when ``require_class``); an IoU tie goes to the lowest index.

    The ground truth is bucketed by class (one bucket for all of it
    without ``require_class``), each bucket in ascending index order, and
    a result is tested only against the free boxes of its own bucket.
    This is exact: a box of another class could never be chosen, the
    boxes tested are visited in the same relative order, and the strict
    ``>`` keeps the first of equal IoUs, so the same box wins as when
    every ground-truth box is tested in index order.  A matched box
    leaves its bucket, as it would be skipped as taken.  Each box's corners
    are computed once.

    A free box wholly left or right of the result, ``gx1 >= ax2`` or
    ``gx2 <= ax1``, is skipped before :func:`corner_iou`.  This is exact
    too: for such a pair the x intersection min(ax2, gx2) - max(ax1, gx1)
    is at most 0, or NaN where infinite extents meet, and ``corner_iou``
    returns 0.0 either way, which never beats ``best_iou``: it starts at
    0.0 and ``>`` is strict.  A NaN x corner makes both comparisons false,
    so such a box is tested as before.
    """
    buckets: dict[int | None, list[Corners]] = {}
    for gbox, gcls in gts:
        buckets.setdefault(gcls if require_class else None, []).append(gbox.corners(shape))
    neg_scores = [-r[2] for r in results]
    order = sorted(range(len(results)), key=neg_scores.__getitem__)
    tp = 0
    for k in order:
        box, cls_id, _ = results[k]
        bucket = buckets.get(cls_id if require_class else None, [])
        corners = ax1, _, ax2, _ = box.corners(shape)
        best = -1
        best_iou = 0.0
        for g, gcorners in enumerate(bucket):
            if gcorners[0] >= ax2 or gcorners[2] <= ax1:
                continue
            v = corner_iou(corners, gcorners)
            if v >= iou_th and v > best_iou:
                best = g
                best_iou = v
        if best >= 0:
            del bucket[best]
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
    return script_counts(edit_script(result, annot)).rates()
