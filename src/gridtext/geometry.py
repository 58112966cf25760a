"""Grid/image coordinate conversion, boxes, IoU, and non-maximum suppression.

Grid indices are 1-based in the public contract: ``(i, j)`` is the i-th
column and j-th row of a ``w_g x h_g`` lattice over the image.  Boxes store
their center in pixels and their width/height as fractions of the image
dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Image width and height bounds, in pixels.  Inside them a box read from
# finite float32 map values (magnitudes from 1.4e-45 to 3.5e38; the decoder
# floors non-positive extents at 1e-6) has a finite center, finite corners
# and a finite, nonzero area.
IMAGE_SIZE_RANGE = (1e-100, 1e100)


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

    def in_bounds(self, i: int, j: int) -> bool:
        return 1 <= i <= self.w_g and 1 <= j <= self.h_g


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: center (x, y) in pixels, w/h as image fractions."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"box center must be finite, got ({self.x}, {self.y})")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extent must be > 0, got ({self.w}, {self.h})")

    def corners(self, shape: GridShape) -> tuple[float, float, float, float]:
        """Pixel-space (x1, y1, x2, y2)."""
        hw = 0.5 * self.w * shape.img_w
        hh = 0.5 * self.h * shape.img_h
        return self.x - hw, self.y - hh, self.x + hw, self.y + hh


@dataclass(frozen=True)
class RelBox:
    """Grid-relative box: (x_o, y_o) offsets within a cell, w_o/h_o fractions.

    Offsets are in [0, 1] for boxes centered inside their cell; converting an
    absolute box that drifted outside the cell yields offsets outside that
    range, which callers may clamp.
    """

    x_o: float
    y_o: float
    w_o: float
    h_o: float


def rel_to_abs(rel: RelBox, i: int, j: int, shape: GridShape) -> Box:
    """Convert a cell-relative box at grid (i, j) to absolute coordinates.

    x = (i - 1 + x_o) / w_g * img_w, y likewise; w/h pass through.
    """
    if not shape.in_bounds(i, j):
        raise ValueError(f"grid index ({i}, {j}) outside {shape.w_g}x{shape.h_g}")
    return Box(
        x=(i - 1 + rel.x_o) / shape.w_g * shape.img_w,
        y=(j - 1 + rel.y_o) / shape.h_g * shape.img_h,
        w=rel.w_o,
        h=rel.h_o,
    )


def abs_to_rel(box: Box, i: int, j: int, shape: GridShape) -> RelBox:
    """Exact inverse of :func:`rel_to_abs` at grid (i, j). Never clamps."""
    if not shape.in_bounds(i, j):
        raise ValueError(f"grid index ({i}, {j}) outside {shape.w_g}x{shape.h_g}")
    return RelBox(
        x_o=box.x / shape.img_w * shape.w_g - (i - 1),
        y_o=box.y / shape.img_h * shape.h_g - (j - 1),
        w_o=box.w,
        h_o=box.h,
    )


def grid_of(box: Box, shape: GridShape) -> tuple[int, int]:
    """Grid cell containing the box center: (ceil(x*w_g/W), ceil(y*h_g/H)).

    The ceil result is clamped into [1, w_g] x [1, h_g] so centers at 0 or
    beyond the image edge never index out of range.
    """
    i = math.ceil(box.x * shape.w_g / shape.img_w)
    j = math.ceil(box.y * shape.h_g / shape.img_h)
    return (
        min(max(i, 1), shape.w_g),
        min(max(j, 1), shape.h_g),
    )


def iou(a: Box, b: Box, shape: GridShape) -> float:
    """Intersection over union in absolute pixel space.

    Areas are derived from the same corner values as the intersection so
    that identical boxes score exactly 1.0.
    """
    ax1, ay1, ax2, ay2 = a.corners(shape)
    bx1, by1, bx2, by2 = b.corners(shape)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0.0 else 0.0


def nms(
    candidates: Sequence[tuple[Box, float]],
    iou_threshold: float,
    shape: GridShape,
) -> list[int]:
    """Greedy non-maximum suppression; returns surviving indices, ascending.

    Candidates are visited in descending score; equal scores keep input
    order, so callers that supply candidates row-major get row-major ties.
    A candidate is suppressed when its IoU with an already-kept candidate
    exceeds ``iou_threshold``.

    Kept boxes are bucketed by grid cell: a box is entered in every
    ``cell_w x cell_h`` bucket its corners span, with bucket indices
    clamped into the lattice, and a candidate is tested only against the
    kept boxes in the buckets it spans.  This is exact.  A pair with
    ``iw > 0`` and ``ih > 0`` overlaps on an interval in each axis; the
    interval's lower end lies within both boxes' corner ranges, and since
    division by the cell size, floor and clamping are all monotone, its
    bucket lies within both boxes' bucket ranges.  A pair that shares no
    bucket therefore has ``iw <= 0`` or ``ih <= 0`` and could not suppress.
    The suppress test is the same floating-point expression as the
    textbook all-pairs loop, so the kept set is identical to it.
    """
    corners = [c[0].corners(shape) for c in candidates]
    areas = [(x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in corners]
    order = sorted(range(len(candidates)), key=lambda k: -candidates[k][1])
    cw, ch = shape.cell_w, shape.cell_h
    # Clamp the float before int(): corners may lie far outside the page or
    # be infinite.  max(0.0, v) also sends NaN to bucket 0; a NaN extent
    # never suppresses nor is suppressed, as every comparison with it fails.
    last_i, last_j = float(shape.w_g - 1), float(shape.h_g - 1)
    buckets: dict[int, list[int]] = {}  # cell (i, j) as i * h_g + j, 0-based
    kept: list[int] = []
    for k in order:
        x1, y1, x2, y2 = corners[k]
        i_lo = int(min(last_i, max(0.0, x1 / cw)))
        i_hi = int(min(last_i, max(0.0, x2 / cw)))
        j_lo = int(min(last_j, max(0.0, y1 / ch)))
        j_hi = int(min(last_j, max(0.0, y2 / ch)))
        cells = [
            i * shape.h_g + j
            for i in range(i_lo, i_hi + 1)
            for j in range(j_lo, j_hi + 1)
        ]
        near: set[int] = set()  # a kept box may share several buckets
        for cell in cells:
            near.update(buckets.get(cell, ()))
        area = areas[k]
        ok = True
        for m in near:
            mx1, my1, mx2, my2 = corners[m]
            iw = min(x2, mx2) - max(x1, mx1)
            if iw <= 0.0:
                continue
            ih = min(y2, my2) - max(y1, my1)
            if ih <= 0.0:
                continue
            inter = iw * ih
            if inter / (area + areas[m] - inter) > iou_threshold:
                ok = False
                break
        if ok:
            kept.append(k)
            for cell in cells:
                buckets.setdefault(cell, []).append(k)
    return sorted(kept)
