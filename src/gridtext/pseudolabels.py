"""Persistent per-character pseudo-labels and loss-target assembly.

A pseudo-label is an automatically maintained bounding box for one
annotated character, keyed by (page, line q, position n), with a confidence
gamma.  Matched predictions either initialize a label or blend into it with
a softmax weight over the two confidences, so well-corroborated labels
move slowly and low-confidence ones are overwritten quickly.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from .geometry import Box, GridShape, grid_of
from .jsoncheck import check, read_jsonl
from .predictions import staircase

if TYPE_CHECKING:
    from .decoder import PageResult
    from .matching import PageAnnotation

logger = logging.getLogger(__name__)

EPSILON_SCALE = 10.0  # default sharpness of the update weight


@dataclass
class PseudoLabel:
    box: Box
    gamma: float
    count: int = 1


class PseudoLabelStore:
    """Pseudo-labels for many pages: (page_id, q, n) -> PseudoLabel.

    q and n are 1-based line and character indices into the page's
    transcript annotation.
    """

    def __init__(self) -> None:
        self._pages: dict[str, dict[tuple[int, int], PseudoLabel]] = {}

    def page(self, page_id: str) -> dict[tuple[int, int], PseudoLabel]:
        return self._pages.setdefault(page_id, {})

    def get(self, page_id: str, q: int, n: int) -> PseudoLabel | None:
        return self._pages.get(page_id, {}).get((q, n))

    def set(self, page_id: str, q: int, n: int, label: PseudoLabel) -> None:
        self.page(page_id)[(q, n)] = label

    def page_ids(self) -> list[str]:
        return sorted(self._pages)

    def n_labels(self) -> int:
        return sum(len(p) for p in self._pages.values())

    def rows(self, page_ids: Iterable[str]) -> Iterator[dict]:
        """One JSON row per label of each page in ``page_ids``, in (q, n)
        order; :meth:`load` reads the rows back."""
        for page_id in page_ids:
            labels = self._pages.get(page_id, {})
            for (q, n) in sorted(labels):
                lab = labels[(q, n)]
                yield {
                    "page_id": page_id,
                    "q": q,
                    "n": n,
                    "x": lab.box.x,
                    "y": lab.box.y,
                    "w": lab.box.w,
                    "h": lab.box.h,
                    "gamma": lab.gamma,
                    "count": lab.count,
                }

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for row in self.rows(self.page_ids()):
                fh.write(json.dumps(row) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PseudoLabelStore":
        store = cls()
        for page_id, q, n, label in read_jsonl(path, _label_from_row):
            store.set(page_id, q, n, label)
        return store


_LABEL_ROW = {"page_id": str, "q": int, "n": int, **dict.fromkeys("xywh", float), "gamma": float}


def _label_from_row(doc: object) -> tuple[str, int, int, PseudoLabel]:
    row = check(doc, _LABEL_ROW)
    count = check(row.get("count", 1), int, "row.count")
    box = Box(row["x"], row["y"], row["w"], row["h"])
    return row["page_id"], row["q"], row["n"], PseudoLabel(box, float(row["gamma"]), count)


def update_weight(gamma: float, score: float, epsilon: float = EPSILON_SCALE) -> float:
    """Blend weight for the existing label: e^(eps*gamma) over the pair sum."""
    a = math.exp(epsilon * gamma)
    b = math.exp(epsilon * score)
    return a / (a + b)


def update(
    store: PseudoLabelStore,
    page_id: str,
    m_c: Iterable[tuple[int, int, int, int]],
    result: "PageResult",
    epsilon: float = EPSILON_SCALE,
) -> None:
    """Fold matched predictions into the store (Pseudo-label update rule).

    A missing label is copied from the prediction with gamma set to the
    box score; an existing one becomes the convex combination weighted by
    :func:`update_weight`.  Pairs are applied in sorted order so the store
    state is deterministic.
    """
    for p, m, q, n in sorted(m_c):
        char = result.lines[p - 1].chars[m - 1]
        existing = store.get(page_id, q, n)
        if existing is None:
            store.set(page_id, q, n, PseudoLabel(box=char.box, gamma=char.score))
            continue
        lam = update_weight(existing.gamma, char.score, epsilon)
        blended = Box(
            x=lam * existing.box.x + (1 - lam) * char.box.x,
            y=lam * existing.box.y + (1 - lam) * char.box.y,
            w=lam * existing.box.w + (1 - lam) * char.box.w,
            h=lam * existing.box.h + (1 - lam) * char.box.h,
        )
        store.set(
            page_id,
            q,
            n,
            PseudoLabel(
                box=blended,
                gamma=lam * existing.gamma + (1 - lam) * char.score,
                count=existing.count + 1,
            ),
        )


@dataclass
class LossTargets:
    """Grid-level sample sets consumed by the loss terms."""

    s_c: set[tuple[int, int, int, int]] = field(default_factory=set)
    s_d_neg: set[tuple[int, int]] = field(default_factory=set)
    s_s_pos: set[tuple[int, int]] = field(default_factory=set)
    s_s_neg: set[tuple[int, int]] = field(default_factory=set)
    s_e_pos: set[tuple[int, int]] = field(default_factory=set)
    s_e_neg: set[tuple[int, int]] = field(default_factory=set)
    s_rd: set[tuple[int, int, int]] = field(default_factory=set)


def gen_paths(
    labels: Mapping[tuple[int, int], PseudoLabel],
    annot: "PageAnnotation",
    shape: GridShape,
    rng: np.random.Generator,
) -> set[tuple[int, int, int]]:
    """Random monotone paths between grids of consecutive pseudo-labels.

    For each consecutive pair that both exist, the path takes the required
    horizontal and vertical unit moves with the vertical positions drawn
    uniformly at random; every step emits (i, j, direction).
    """
    s_rd: set[tuple[int, int, int]] = set()
    for q, line in enumerate(annot.lines, start=1):
        for n in range(1, len(line)):
            a = labels.get((q, n))
            b = labels.get((q, n + 1))
            if a is None or b is None:
                continue
            src = grid_of(a.box, shape)
            dst = grid_of(b.box, shape)
            total = abs(dst[0] - src[0]) + abs(dst[1] - src[1])
            n_vert = abs(dst[1] - src[1])
            slots = rng.choice(total, size=n_vert, replace=False) if total else []
            for g, d in staircase(src, dst, vertical_slots=[int(s) for s in slots]):
                s_rd.add((g[0], g[1], int(d)))
    return s_rd


def build_targets(
    labels: Mapping[tuple[int, int], PseudoLabel],
    annot: "PageAnnotation",
    result: "PageResult",
    m_ce: Iterable[tuple[int, int]],
    shape: GridShape,
    rng: np.random.Generator,
) -> LossTargets:
    """Assemble every loss-target set for one page.

    s_c maps existing pseudo-labels to their grids (a grid collision keeps
    the higher-gamma label); presence negatives are the search-path grids of
    consecutive-equal result characters; start/end positives are the grids
    of first/last-character labels with all other labeled grids negative.
    """
    targets = LossTargets()

    per_grid: dict[tuple[int, int], tuple[int, int]] = {}
    for (q, n) in sorted(labels):
        g = grid_of(labels[(q, n)].box, shape)
        prev = per_grid.get(g)
        if prev is None:
            per_grid[g] = (q, n)
        else:
            if labels[(q, n)].gamma > labels[prev].gamma:
                per_grid[g] = (q, n)
            logger.debug(
                "pseudo-label grid collision at %s: %s vs %s", g, prev, (q, n)
            )
    for g, (q, n) in per_grid.items():
        targets.s_c.add((g[0], g[1], q, n))

    for p, m in sorted(m_ce):
        line = result.lines[p - 1]
        if m - 1 < len(line.traces):
            for g in line.traces[m - 1].path:
                targets.s_d_neg.add(g)

    for i, j, q, n in targets.s_c:
        if n == 1:
            targets.s_s_pos.add((i, j))
        if n == len(annot.lines[q - 1]):
            targets.s_e_pos.add((i, j))
    all_grids = {(i, j) for i, j, _, _ in targets.s_c}
    targets.s_s_neg = all_grids - targets.s_s_pos
    targets.s_e_neg = all_grids - targets.s_e_pos

    targets.s_rd = gen_paths(labels, annot, shape, rng)
    return targets
