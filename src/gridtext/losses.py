"""The six diagnostic loss terms and their sum.

Losses are computed as plain numbers against possibly-incomplete target
sets; an empty target set zeroes its (half-)term and is flagged rather than
raised, since early passes legitimately have no pseudo-labels.  Probabilities
are clamped to [1e-7, 1 - 1e-7] before logs.  Each term gathers its map
values in one indexing call, in the order of its target rows, which
:class:`~gridtext.pseudolabels.LossTargets` keeps sorted as ``sorted``
lists tuples, so its sum adds them in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .geometry import GridShape, abs_to_rel, box_rows, ordered_sum
from .predictions import PredictionMaps
from .pseudolabels import LossTargets, PseudoLabel

if TYPE_CHECKING:
    from .matching import PageAnnotation

CLAMP = 1e-7
BOX_WEIGHTS = (1.0, 1.0, 0.1, 0.1)

TERM_NAMES = ("dis", "box", "cls", "sol", "eol", "rd")


@dataclass
class Term:
    value: float
    count: int
    flags: list[str] = field(default_factory=list)


@dataclass
class LossReport:
    """Each term's value and count in ``TERM_NAMES`` order, the values'
    sum, added in that order, and every term's flags."""

    values: dict[str, float]
    counts: dict[str, int]
    flags: list[str]
    l_total: float

    def terms(self) -> dict[str, float]:
        return self.values


def _mean_neg_log(vals: np.ndarray, flags: list[str], name: str) -> float:
    """Mean of -log over ``vals``, each clamped into [CLAMP, 1 - CLAMP]; the
    logs are summed in order, as Python floats, by :func:`ordered_sum`."""
    if not len(vals):
        flags.append(f"{name}:empty")
        return 0.0
    if ((vals < CLAMP) | (vals > 1.0 - CLAMP)).any():
        flags.append(f"{name}:clamped")
        vals = np.minimum(np.maximum(vals, CLAMP), 1.0 - CLAMP)
    return -ordered_sum(map(math.log, vals.tolist())) / len(vals)


def _gather(arr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``arr[i - 1, j - 1, *rest]`` for each row ``(i, j, *rest)`` of
    ``rows``, 1-based grids, as float64 in the rows' order."""
    return arr[(rows[:, 0] - 1, rows[:, 1] - 1, *rows[:, 2:].T)].astype(np.float64)


def loss_dis(maps: PredictionMaps, targets: LossTargets) -> Term:
    """Balanced presence loss: positives at labeled grids, negatives along
    consecutive-equal search paths, each half weighted 1/2."""
    # Every row of s_c: two labels at one grid both count.
    return _balanced_bce(maps.dis, targets.s_c[:, :2], targets.s_d_neg, "dis")


def loss_box(
    maps: PredictionMaps,
    targets: LossTargets,
    labels: Mapping[tuple[int, int], PseudoLabel],
    shape: GridShape,
) -> Term:
    """Weighted mean square error between predicted and pseudo-label boxes,
    both in cell-relative form; offsets weigh 1.0, extents 0.1.  Each row's
    weighted squares are summed, then the rows, in the order of s_c."""
    flags: list[str] = []
    if not len(targets.s_c):
        flags.append("box:empty")
        return Term(0.0, 0, flags)
    i, j, q, n = targets.s_c.T
    at = (i - 1, j - 1)
    boxes = [labels[key].box for key in zip(q.tolist(), n.tolist())]
    want = abs_to_rel(box_rows(boxes), at, shape)
    with np.errstate(over="ignore"):  # as Python floats, far boxes give inf
        diffs = maps.box[at] - want
        squares = np.array(BOX_WEIGHTS) * diffs * diffs
    total = ordered_sum(map(ordered_sum, squares.tolist()))
    return Term(total / len(targets.s_c), len(targets.s_c), flags)


def loss_cls(
    maps: PredictionMaps, targets: LossTargets, annot: "PageAnnotation"
) -> Term:
    """Cross entropy of the annotated class at each labeled grid."""
    flags: list[str] = []
    i, j, q, n = targets.s_c.T
    cls = [annot.lines[a - 1][b - 1] - 1 for a, b in zip(q.tolist(), n.tolist())]
    rows = np.stack([i, j, np.array(cls, np.intp)], axis=1)
    value = _mean_neg_log(_gather(maps.cls, rows), flags, "cls")
    return Term(value, len(targets.s_c), flags)


def _balanced_bce(grid_map: np.ndarray, pos: np.ndarray, neg: np.ndarray, name: str) -> Term:
    flags: list[str] = []
    p = _mean_neg_log(_gather(grid_map, pos), flags, f"{name}_pos")
    n = _mean_neg_log(1.0 - _gather(grid_map, neg), flags, f"{name}_neg")
    return Term(0.5 * p + 0.5 * n, len(pos) + len(neg), flags)


def loss_sol(maps: PredictionMaps, targets: LossTargets) -> Term:
    return _balanced_bce(maps.sol, targets.s_s_pos, targets.s_s_neg, "sol")


def loss_eol(maps: PredictionMaps, targets: LossTargets) -> Term:
    return _balanced_bce(maps.eol, targets.s_e_pos, targets.s_e_neg, "eol")


def loss_rd(maps: PredictionMaps, targets: LossTargets) -> Term:
    """Cross entropy of the path direction at every generated path grid."""
    flags: list[str] = []
    value = _mean_neg_log(_gather(maps.rd, targets.s_rd), flags, "rd")
    return Term(value, len(targets.s_rd), flags)


def loss_total(terms: Mapping[str, Term]) -> LossReport:
    """The six terms' values, counts, flags and unweighted sum, in
    ``TERM_NAMES`` order."""
    values = {name: terms[name].value for name in TERM_NAMES}
    counts = {name: terms[name].count for name in TERM_NAMES}
    flags = [flag for name in TERM_NAMES for flag in terms[name].flags]
    return LossReport(values, counts, flags, ordered_sum(values.values()))


def compute_losses(
    maps: PredictionMaps,
    targets: LossTargets,
    labels: Mapping[tuple[int, int], PseudoLabel],
    annot: "PageAnnotation",
) -> LossReport:
    """All six terms plus the total for one page."""
    return loss_total(
        {
            "dis": loss_dis(maps, targets),
            "box": loss_box(maps, targets, labels, maps.shape),
            "cls": loss_cls(maps, targets, annot),
            "sol": loss_sol(maps, targets),
            "eol": loss_eol(maps, targets),
            "rd": loss_rd(maps, targets),
        }
    )
