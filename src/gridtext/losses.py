"""The six diagnostic loss terms and their sum.

Losses are computed as plain numbers against possibly-incomplete target
sets; an empty target set zeroes its (half-)term and is flagged rather than
raised, since early passes legitimately have no pseudo-labels.  Probabilities
are clamped to [1e-7, 1 - 1e-7] before logs.  Each term gathers its map
values in one indexing call, in the sorted order of its targets, so its sum
adds them in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Iterable, Mapping

import numpy as np

from .geometry import GridShape, abs_to_rel, cells
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
    l_dis: float
    l_box: float
    l_cls: float
    l_sol: float
    l_eol: float
    l_rd: float
    l_total: float
    counts: dict[str, int]
    flags: list[str]

    def terms(self) -> dict[str, float]:
        return {name: getattr(self, f"l_{name}") for name in TERM_NAMES}


def _log(p: float, flags: list[str], name: str) -> float:
    if p < CLAMP or p > 1.0 - CLAMP:
        if f"{name}:clamped" not in flags:
            flags.append(f"{name}:clamped")
        p = min(max(p, CLAMP), 1.0 - CLAMP)
    return math.log(p)


def _mean_neg_log(values: Iterable[float], flags: list[str], name: str) -> float:
    vals = list(values)
    if not vals:
        flags.append(f"{name}:empty")
        return 0.0
    return -sum(_log(v, flags, name) for v in vals) / len(vals)


def _gather(arr: np.ndarray, cells: Iterable[tuple[int, ...]]) -> list:
    """``arr[i - 1, j - 1, *rest]`` for each cell ``(i, j, *rest)`` of 1-based
    grids, as Python values in the cells' order."""
    idx = np.array(list(cells), dtype=np.intp).T
    if not idx.size:
        return []
    idx[:2] -= 1
    return arr[tuple(idx)].tolist()


def loss_dis(maps: PredictionMaps, targets: LossTargets) -> Term:
    """Balanced presence loss: positives at labeled grids, negatives along
    consecutive-equal search paths, each half weighted 1/2."""
    # A list, not a set: two labels at one grid both count, as in s_c.
    pos = [(i, j) for i, j, _, _ in targets.s_c]
    return _balanced_bce(maps.dis, pos, targets.s_d_neg, "dis")


def loss_box(
    maps: PredictionMaps,
    targets: LossTargets,
    labels: Mapping[tuple[int, int], PseudoLabel],
    shape: GridShape,
) -> Term:
    """Weighted mean square error between predicted and pseudo-label boxes,
    both in cell-relative form; offsets weigh 1.0, extents 0.1."""
    flags: list[str] = []
    if not targets.s_c:
        flags.append("box:empty")
        return Term(0.0, 0, flags)
    s_c = sorted(targets.s_c)
    at = cells((i, j) for i, j, _, _ in s_c)
    boxes = [labels[(q, n)].box for _, _, q, n in s_c]
    want = abs_to_rel(np.array([(b.x, b.y, b.w, b.h) for b in boxes]), at, shape)
    total = 0.0
    for diffs in (maps.box[at] - want).tolist():
        total += sum(w * d * d for w, d in zip(BOX_WEIGHTS, diffs))
    return Term(total / len(targets.s_c), len(targets.s_c), flags)


def loss_cls(
    maps: PredictionMaps, targets: LossTargets, annot: "PageAnnotation"
) -> Term:
    """Cross entropy of the annotated class at each labeled grid."""
    flags: list[str] = []
    value = _mean_neg_log(
        _gather(
            maps.cls,
            ((i, j, annot.lines[q - 1][n - 1] - 1) for i, j, q, n in sorted(targets.s_c)),
        ),
        flags,
        "cls",
    )
    return Term(value, len(targets.s_c), flags)


def _balanced_bce(
    grid_map, pos: Collection[tuple[int, int]], neg: Collection[tuple[int, int]], name: str
) -> Term:
    flags: list[str] = []
    p = _mean_neg_log(_gather(grid_map, sorted(pos)), flags, f"{name}_pos")
    n = _mean_neg_log(
        (1.0 - v for v in _gather(grid_map, sorted(neg))), flags, f"{name}_neg"
    )
    return Term(0.5 * p + 0.5 * n, len(pos) + len(neg), flags)


def loss_sol(maps: PredictionMaps, targets: LossTargets) -> Term:
    return _balanced_bce(maps.sol, targets.s_s_pos, targets.s_s_neg, "sol")


def loss_eol(maps: PredictionMaps, targets: LossTargets) -> Term:
    return _balanced_bce(maps.eol, targets.s_e_pos, targets.s_e_neg, "eol")


def loss_rd(maps: PredictionMaps, targets: LossTargets) -> Term:
    """Cross entropy of the path direction at every generated path grid."""
    flags: list[str] = []
    value = _mean_neg_log(_gather(maps.rd, sorted(targets.s_rd)), flags, "rd")
    return Term(value, len(targets.s_rd), flags)


def loss_total(terms: Mapping[str, Term]) -> LossReport:
    """Unweighted sum of the six terms, with per-term counts and flags."""
    total = 0.0
    flags: list[str] = []
    counts: dict[str, int] = {}
    for name in TERM_NAMES:
        term = terms[name]
        total += term.value
        counts[name] = term.count
        flags.extend(term.flags)
    return LossReport(
        l_dis=terms["dis"].value,
        l_box=terms["box"].value,
        l_cls=terms["cls"].value,
        l_sol=terms["sol"].value,
        l_eol=terms["eol"].value,
        l_rd=terms["rd"].value,
        l_total=total,
        counts=counts,
        flags=flags,
    )


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
