"""Grid/image coordinate conversion, boxes, IoU, and non-maximum suppression.

Grid indices are 1-based in the public contract: ``(i, j)`` is the i-th
column and j-th row of a ``w_g x h_g`` lattice over the image.  Boxes store
their center in pixels and their width/height as fractions of the image
dimensions.

Many grids at once are ``at``, a pair of 0-based ``(i - 1, j - 1)`` index
arrays that :func:`cells` makes from 1-based grids and that index a map.
Only this module converts between a map's cell-relative boxes (x_o, y_o,
w_o, h_o), the centre an offset within its cell, and absolute ones:
:func:`rel_to_abs` and :func:`abs_to_rel` map ``(n, 4)`` float64 rows at
``at``.  :meth:`Box.corners` and :func:`corner_iou` score one pair at a
time; :func:`corners` and :func:`corner_ious`, the same float expressions
elementwise, serve the bulk callers :func:`ious` and :func:`nms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

# Image width and height bounds, in pixels.  Inside them a box read from
# finite float32 map values (magnitudes from 1.4e-45 to 3.5e38; the decoder
# floors non-positive extents at 1e-6) has a finite center, finite corners
# and a finite, nonzero area.
IMAGE_SIZE_RANGE = (1e-100, 1e100)


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, as ``sum`` adds floats before
    Python 3.12; every float sum whose bits reach an output uses it."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class GridShape:
    """Lattice geometry: grid columns/rows and the image size in pixels."""

    w_g: int
    h_g: int
    img_w: float
    img_h: float

    def __post_init__(self) -> None:
        if self.w_g < 1 or self.h_g < 1:
            raise ValueError(f"grid dims must be >= 1, got {self.w_g}x{self.h_g}")
        lo, hi = IMAGE_SIZE_RANGE
        if not (lo <= self.img_w <= hi and lo <= self.img_h <= hi):
            raise ValueError(
                f"image dims must be in [{lo}, {hi}], got {self.img_w}x{self.img_h}"
            )

    @property
    def cell_w(self) -> float:
        return self.img_w / self.w_g

    @property
    def cell_h(self) -> float:
        return self.img_h / self.h_g


Corners = tuple[float, float, float, float]  # pixel-space (x1, y1, x2, y2)


@dataclass(slots=True)
class Box:
    """Axis-aligned box: center (x, y) in pixels, w/h as image fractions.

    A slotted value record, built once per decoded character.  Nothing in
    ``gridtext`` mutates or hashes one, so it is not frozen: a frozen
    dataclass's ``__init__`` sets each field through ``object.__setattr__``.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"box center must be finite, got ({self.x}, {self.y})")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extent must be > 0, got ({self.w}, {self.h})")

    def corners(self, shape: GridShape) -> Corners:
        """Pixel-space (x1, y1, x2, y2)."""
        hw = 0.5 * self.w * shape.img_w
        hh = 0.5 * self.h * shape.img_h
        return self.x - hw, self.y - hh, self.x + hw, self.y + hh


Cells = tuple[np.ndarray, np.ndarray]  # 0-based (i - 1, j - 1) index arrays


def cells(grids: Iterable[tuple[int, int]]) -> Cells:
    """The 0-based (i - 1, j - 1) index arrays of 1-based grids."""
    ij = np.fromiter(chain.from_iterable(grids), np.intp).reshape(-1, 2) - 1
    return ij[:, 0], ij[:, 1]


def _float_rows(rows: np.ndarray, at: Cells, shape: GridShape) -> np.ndarray:
    """A float64 copy of ``rows``, once every cell of ``at`` is in the lattice."""
    i0, j0 = at
    out = (i0 < 0) | (i0 >= shape.w_g) | (j0 < 0) | (j0 >= shape.h_g)
    if out.any():
        k = np.argmax(out)
        raise ValueError(f"grid index ({i0[k] + 1}, {j0[k] + 1}) outside {shape.w_g}x{shape.h_g}")
    return rows.astype(np.float64)


def rel_to_abs(rows: np.ndarray, at: Cells, shape: GridShape) -> np.ndarray:
    """Absolute (x, y, w, h) rows of cell-relative (x_o, y_o, w_o, h_o) rows
    at the cells ``at``: x = (i0 + x_o) / w_g * img_w, y likewise; w/h pass
    through."""
    out = _float_rows(rows, at, shape)
    out[:, 0] = (at[0] + out[:, 0]) / shape.w_g * shape.img_w
    out[:, 1] = (at[1] + out[:, 1]) / shape.h_g * shape.img_h
    return out


def abs_to_rel(rows: np.ndarray, at: Cells, shape: GridShape) -> np.ndarray:
    """Exact inverse of :func:`rel_to_abs` at the cells ``at``. Never clamps."""
    out = _float_rows(rows, at, shape)
    out[:, 0] = out[:, 0] / shape.img_w * shape.w_g - at[0]
    out[:, 1] = out[:, 1] / shape.img_h * shape.h_g - at[1]
    return out


def grid_of(box: Box, shape: GridShape) -> tuple[int, int]:
    """The grid cell containing the box center: the :func:`grid_rows` row of
    ``box``, as Python ints."""
    i, j = grid_rows(box_rows([box]), shape)[0].tolist()
    return i, j


def grid_rows(rows: np.ndarray, shape: GridShape) -> np.ndarray:
    """The grid cell of each box center of ``(n, 4)`` float64 ``x, y, w, h``
    rows, as ``(n, 2)`` intp ``(i, j)`` rows: (ceil(x*w_g/W), ceil(y*h_g/H))
    clamped into [1, w_g] x [1, h_g], so a center at 0, past the image edge
    or so huge that its product overflows lands on the lattice."""
    with np.errstate(over="ignore"):  # a huge centre clamps to the edge
        i = np.ceil(rows[:, 0] * shape.w_g / shape.img_w)
        j = np.ceil(rows[:, 1] * shape.h_g / shape.img_h)
    out = np.empty((len(rows), 2), np.intp)
    out[:, 0] = np.clip(i, 1, shape.w_g)
    out[:, 1] = np.clip(j, 1, shape.h_g)
    return out


def corner_iou(a: Corners, b: Corners) -> float:
    """Intersection over union of two pixel-space (x1, y1, x2, y2) corners.

    Areas are derived from the same corner values as the intersection so
    that identical boxes score exactly 1.0.
    """
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0.0 else 0.0


def box_rows(boxes: Sequence[Box]) -> np.ndarray:
    """The ``(n, 4)`` float64 ``x, y, w, h`` rows of ``boxes``."""
    xs, ys = [b.x for b in boxes], [b.y for b in boxes]
    ws, hs = [b.w for b in boxes], [b.h for b in boxes]
    return np.array([xs, ys, ws, hs], dtype=np.float64).T


def corners(rows: np.ndarray, shape: GridShape) -> np.ndarray:
    """:meth:`Box.corners` of ``(n, 4)`` float64 ``x, y, w, h`` rows, with
    the same float expression, as a ``(4, n)`` array of x1, y1, x2, y2."""
    x, y, w, h = rows.T
    with np.errstate(all="ignore"):  # huge extents overflow to inf
        hw = 0.5 * w * shape.img_w
        hh = 0.5 * h * shape.img_h
        return np.array([x - hw, y - hh, x + hw, y + hh])


def corner_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`corner_iou` of each pair of columns of two ``(4, n)`` arrays of
    :func:`corners`, with the same float expression elementwise.

    Its guards answer 0.0 only where the ratio is NaN or negative.  Where a
    corner is NaN, ``np.minimum`` gives NaN where ``min`` may not, but the
    area, and so the union, is NaN either way, and the answer is 0.0.
    """
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    with np.errstate(all="ignore"):  # corners may be inf or NaN
        iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
        ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
        inter = iw * ih
        union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
        return np.where((iw > 0.0) & (ih > 0.0) & (union > 0.0), inter / union, 0.0)


def ious(a: Sequence[Box], b: Sequence[Box], shape: GridShape) -> list[float]:
    """The IoU of each pair ``(a[k], b[k])`` in absolute pixel space, as
    :func:`corner_iou` of their corners gives it; ``ValueError`` when ``a``
    and ``b`` differ in length."""
    both = corners(box_rows([box for pair in zip(a, b, strict=True) for box in pair]), shape)
    return corner_ious(both[:, 0::2], both[:, 1::2]).tolist()


# Candidate pairs listed, tested or passed to the greedy loop at a time.
# This bounds the working memory of nms at a few MB however many boxes
# overlap; only the pairs over the threshold are kept, at 8 bytes each.
_PAIR_CHUNK = 1 << 16


def nms(candidates: np.ndarray, iou_threshold: float, shape: GridShape) -> list[int]:
    """Greedy non-maximum suppression; returns surviving indices, ascending.

    ``candidates`` is an ``(n, 5)`` float64 array of ``x, y, w, h, score``
    rows, each box as a :class:`Box` holds it.  Candidates are visited in
    descending score; equal scores keep input order, so callers that supply
    candidates row-major get row-major ties.  A candidate is suppressed when
    its IoU with an already-kept candidate exceeds ``iou_threshold``, which
    must be >= 0: a negative one would let a pair that does not overlap
    suppress.

    The kept set is exactly the textbook all-pairs loop's:

    - Corners are :func:`corners`, :meth:`Box.corners`'s float expression.
    - Each box spans a range of bucket columns and rows: its corners over
      the cell size, floored and clamped into the lattice (clamped as
      floats, so overhanging, infinite and NaN corners are safe).  A pair
      with ``iw > 0`` and ``ih > 0`` overlaps on an interval in each axis;
      the interval's lower end lies within both boxes' corner ranges, and
      since division, floor and clamping are all monotone, its bucket lies
      within both boxes' bucket ranges.  Only pairs whose ranges intersect
      in both axes can suppress.
    - Sorted by first column, each box is paired with the boxes after it
      whose first column lies in its column range, so each pair whose
      column ranges intersect is listed once, from whichever comes first.
      The listing runs in chunks of ``_PAIR_CHUNK`` pairs.
    - A listed pair whose row ranges also intersect conflicts where its
      :func:`corner_ious` exceeds ``iou_threshold``.  That is
      :func:`corner_iou`'s float, and its 0.0 for a pair that does not
      overlap (or whose union is NaN, as a NaN corner makes it) never
      exceeds a threshold >= 0, so such a box neither suppresses nor is
      suppressed, here as in the loop.
    - A greedy pass takes the conflict pairs in order of the later
      candidate's rank, and suppresses the later one when the earlier one
      is unsuppressed.  The earlier one's fate is settled by then, as all of
      its own pairs come first.  By induction on rank, a candidate is kept
      exactly when no kept candidate before it conflicts with it: the
      kept-box loop.
    """
    if not iou_threshold >= 0.0:
        raise ValueError(f"nms iou_threshold must be >= 0, got {iou_threshold}")
    n = len(candidates)
    rank = np.empty(n, np.intp)
    rank[np.argsort(-candidates[:, 4], kind="stable")] = np.arange(n)
    last_i, last_j = float(shape.w_g - 1), float(shape.h_g - 1)
    conflicts = [np.empty(0, np.intp)]  # later rank * n + earlier rank
    box = corners(candidates[:, :4], shape)
    x1, y1, x2, y2 = box
    with np.errstate(all="ignore"):  # a corner over a tiny cell may overflow to inf
        # Clamp the float before the cast; fmax also sends NaN to bucket 0.
        i_lo, i_hi = (
            np.minimum(np.fmax(v / shape.cell_w, 0.0), last_i).astype(np.intp) for v in (x1, x2)
        )
        j_lo, j_hi = (
            np.minimum(np.fmax(v / shape.cell_h, 0.0), last_j).astype(np.intp) for v in (y1, y2)
        )
        by_i = np.argsort(i_lo, kind="stable")
        count = np.searchsorted(i_lo[by_i], i_hi[by_i], side="right") - np.arange(1, n + 1)
        before = np.concatenate(([0], np.cumsum(count)))
        p = 0
        while p < n:
            q = max(p + 1, int(np.searchsorted(before, before[p] + _PAIR_CHUNK, "right")) - 1)
            a = np.repeat(np.arange(p, q), count[p:q])
            b = a + 1 + np.arange(len(a)) - np.repeat(before[p:q] - before[p], count[p:q])
            a, b = by_i[a], by_i[b]
            near = (j_lo[a] <= j_hi[b]) & (j_lo[b] <= j_hi[a])
            a, b = a[near], b[near]
            hit = corner_ious(box[:, a], box[:, b]) > iou_threshold
            ra, rb = rank[a[hit]], rank[b[hit]]
            conflicts.append(np.maximum(ra, rb) * n + np.minimum(ra, rb))
            p = q
    keys = np.concatenate(conflicts)
    keys.sort()
    suppressed = [False] * n  # by rank
    for start in range(0, len(keys), _PAIR_CHUNK):
        later, earlier = np.divmod(keys[start:start + _PAIR_CHUNK], n)
        for l, e in zip(later.tolist(), earlier.tolist()):
            if not suppressed[e]:
                suppressed[l] = True
    return np.flatnonzero(~np.array(suppressed, dtype=bool)[rank]).tolist()
