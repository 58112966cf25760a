"""Persistent per-character pseudo-labels and loss-target assembly.

A pseudo-label is an automatically maintained bounding box for one
annotated character, keyed by (page, line q, position n), with a confidence
gamma.  Matched predictions either initialize a label or blend into it with
a softmax weight over the two confidences, so well-corroborated labels
move slowly and low-confidence ones are overwritten quickly.

Each pass turns a page's labels into :class:`LossTargets`.  Every target
set is built here once, as an array of distinct rows in the order
``sorted`` lists them as tuples, which is the order the loss terms gather
and add in; no loss sorts.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from .geometry import Box, GridShape, box_rows, grid_rows
from .jsoncheck import BOX, check, finite, read_jsonl
from .predictions import path_rows, staircase_rows

if TYPE_CHECKING:
    from .decoder import PageResult, SearchTrace
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
        """The labels of one page to write into; an absent page is added."""
        return self._pages.setdefault(page_id, {})

    def labels(self, page_id: str) -> Mapping[tuple[int, int], PseudoLabel]:
        """The labels of one page to read; an absent page reads as empty and
        is not added."""
        return self._pages.get(page_id, {})

    def page_ids(self) -> list[str]:
        return sorted(self._pages)

    def n_labels(self) -> int:
        return sum(len(p) for p in self._pages.values())

    def rows(self, page_ids: Iterable[str]) -> Iterator[dict]:
        """One JSON row per label of each page in ``page_ids``, in (q, n)
        order; :meth:`load` reads the rows back."""
        for page_id in page_ids:
            labels = self.labels(page_id)
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
        """Read the rows of :meth:`save`; a label on two rows is an error."""
        store = cls()

        def add(doc: object) -> None:
            page_id, q, n, label = _label_from_row(doc)
            labels = store.page(page_id)
            if (q, n) in labels:
                raise ValueError(f"label ({page_id!r}, {q}, {n}) appears more than once")
            labels[(q, n)] = label

        read_jsonl(path, add)
        return store


_LABEL_ROW = {"page_id": str, "q": int, "n": int, **dict(zip("xywh", BOX)), "gamma": finite}


def _label_from_row(doc: object) -> tuple[str, int, int, PseudoLabel]:
    row = check(doc, _LABEL_ROW)
    count = check(row.get("count", 1), int, "row.count")
    if count < 1:
        raise ValueError(f"row.count: must be >= 1, got {count}")
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
    state is deterministic.  A page enters the store with its first label.
    """
    pairs = sorted(m_c)
    if not pairs:
        return
    labels = store.page(page_id)
    for p, m, q, n in pairs:
        char = result.lines[p - 1].chars[m - 1]
        existing = labels.get((q, n))
        if existing is None:
            labels[(q, n)] = PseudoLabel(box=char.box, gamma=char.score)
            continue
        lam = update_weight(existing.gamma, char.score, epsilon)
        blended = Box(
            x=lam * existing.box.x + (1 - lam) * char.box.x,
            y=lam * existing.box.y + (1 - lam) * char.box.y,
            w=lam * existing.box.w + (1 - lam) * char.box.w,
            h=lam * existing.box.h + (1 - lam) * char.box.h,
        )
        labels[(q, n)] = PseudoLabel(
            box=blended,
            gamma=lam * existing.gamma + (1 - lam) * char.score,
            count=existing.count + 1,
        )


def _rows(width: int) -> np.ndarray:
    return np.empty((0, width), np.intp)


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an ``(n, k)`` int array, in the order ``sorted``
    lists them as tuples."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


@dataclass(eq=False)
class LossTargets:
    """Grid-level sample sets consumed by the loss terms.

    Each set is an ``(n, k)`` intp array of distinct rows, 1-based grids
    first, in the order ``sorted`` lists them as tuples (see
    :func:`distinct_rows`); the loss terms gather and sum in that order.
    Compare the arrays, not the objects: ``==`` is identity.
    """

    s_c: np.ndarray = field(default_factory=lambda: _rows(4))  # (i, j, q, n)
    s_d_neg: np.ndarray = field(default_factory=lambda: _rows(2))
    s_s_pos: np.ndarray = field(default_factory=lambda: _rows(2))
    s_s_neg: np.ndarray = field(default_factory=lambda: _rows(2))
    s_e_pos: np.ndarray = field(default_factory=lambda: _rows(2))
    s_e_neg: np.ndarray = field(default_factory=lambda: _rows(2))
    s_rd: np.ndarray = field(default_factory=lambda: _rows(3))  # (i, j, d)


def gen_paths(
    keys: np.ndarray,
    grids: np.ndarray,
    annot: "PageAnnotation",
    rng: np.random.Generator,
) -> np.ndarray:
    """Random monotone paths between grids of consecutive pseudo-labels, as
    distinct ``(i, j, d)`` rows in sorted order.

    ``keys`` holds the labels' (q, n) rows in sorted order and ``grids``
    their :func:`grid_rows` rows.  For each consecutive pair in the
    annotation that both exist, the path takes the required horizontal and
    vertical unit moves with the vertical positions drawn uniformly at
    random; each step is a :func:`staircase_rows` (i, j, direction) row.

    One ``rng.random`` call gives every step a key, pairs in (q, n) order;
    a pair's ``n_vert`` smallest keys mark its vertical moves, a uniform
    subset of its steps.
    """
    q, n = keys.T
    # Line lengths by q, 0 for a q outside the annotation.
    lens = np.array([0, *map(len, annot.lines), 0], dtype=np.intp)
    last = np.take(lens, q[1:], mode="clip")
    pair = (q[:-1] == q[1:]) & (n[1:] == n[:-1] + 1) & (n[:-1] >= 1) & (n[1:] <= last)
    src, delta = grids[:-1][pair], grids[1:][pair] - grids[:-1][pair]
    n_vert = np.abs(delta[:, 1])
    total = np.abs(delta[:, 0]) + n_vert

    # Each step's flag says the move is vertical: its key's rank within its
    # pair is below the pair's vertical count.
    pair_of = np.repeat(np.arange(len(total)), total)
    order = np.lexsort((rng.random(len(pair_of)), pair_of))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - (np.cumsum(total) - total)[pair_of]
    vert = rank < n_vert[pair_of]

    return distinct_rows(staircase_rows(src, delta, vert))


def _path_rows(traces: list["SearchTrace"]) -> np.ndarray:
    """The distinct grids of the traces' paths, origins excluded, as
    sorted ``(i, j)`` rows, read from each trace's moves."""
    walks = [t.moves for t in traces]
    moves = np.frombuffer(b"".join(walks), dtype=np.uint8)
    lengths = np.fromiter(map(len, walks), np.intp, len(walks))
    origins = np.fromiter(chain.from_iterable(t.origin for t in traces), np.intp, 2 * len(traces))
    return distinct_rows(path_rows(origins.reshape(-1, 2), lengths, moves))


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
    the higher-gamma label, the first in (q, n) order on a tie); presence
    negatives are the search-path grids of consecutive-equal result
    characters; start/end positives are the grids of first/last-character
    labels with all other labeled grids negative.
    """
    keys_list = sorted(labels)
    keys = np.fromiter(chain.from_iterable(keys_list), np.intp, 2 * len(keys_list)).reshape(-1, 2)
    grids = grid_rows(box_rows([labels[k].box for k in keys_list]), shape)
    gamma = np.array([labels[k].gamma for k in keys_list], dtype=np.float64)

    # Per grid, the label that wins: highest gamma, then first in (q, n).
    order = np.lexsort((np.arange(len(keys)), -gamma, grids[:, 1], grids[:, 0]))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (grids[order[1:]] != grids[order[:-1]]).any(axis=1)
    won = order[first]
    if len(won) < len(keys):
        logger.debug("pseudo-label grid collisions: %d labels lost their grid",
                     len(keys) - len(won))
    s_c = np.concatenate([grids[won], keys[won]], axis=1)

    traces = []
    for p, m in m_ce:
        line = result.lines[p - 1]
        if m - 1 < len(line.traces):
            traces.append(line.traces[m - 1])

    q, n = keys[won].T
    first_char = n == 1
    last_char = n == np.array([len(line) for line in annot.lines], dtype=np.intp)[q - 1]
    return LossTargets(
        s_c=s_c,
        s_d_neg=_path_rows(traces),
        s_s_pos=s_c[first_char, :2],
        s_s_neg=s_c[~first_char, :2],
        s_e_pos=s_c[last_char, :2],
        s_e_neg=s_c[~last_char, :2],
        s_rd=gen_paths(keys, grids, annot, rng),
    )
