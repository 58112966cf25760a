"""Synthetic pages: straight, rotated, and sine-curved line layouts.

Characters are geometric objects (a box plus a class id) placed so that
every character owns a distinct grid cell and the corridor between
consecutive characters stays clear of other characters.  A page's
annotation is its ground truth: the class ids and boxes of its lines, in
reading order.  A page is built once and validated by the zero-noise round
trip: exact oracle maps must decode back to the annotation, which is the
generator's definition of a well-formed page, so a mismatch is a defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterator

import numpy as np

from .decoder import DecodeConfig, InvariantError, decode
from .geometry import IMAGE_SIZE_RANGE, Box, GridShape
from .jsoncheck import check_ranges, ranged
from .matching import PageAnnotation
from .predictions import OracleNoise, RenderPlan, oracle_predict, render_plan

ROTATIONS = ("horizontal", "rot90", "rot180", "rot270")
LAYOUT_KINDS = ROTATIONS + ("sine",)

CHAR_SIZE = (0.9, 1.3)  # range of a box's width and height, in cell units
MIN_PERIOD = 1e-6  # shortest sine period in cells: the phase 2*pi*x/period stays finite
UINT32_MAX = (1 << 32) - 1  # a map file's header stores n_cls, w_g and h_g as uint32


class GenerationError(ValueError):
    """The requested characters or lines do not fit the page's grid."""


@dataclass(frozen=True)
class Layout:
    """Page layout: a rotation of straight lines, or sine-curved lines.

    ``amplitude`` and ``period`` are in grid-cell units and only apply to
    the sine layout.
    """

    kind: str = "horizontal"
    amplitude: float = ranged(1.5, 0)
    period: float = ranged(12.0, MIN_PERIOD)

    def __post_init__(self) -> None:
        if self.kind not in LAYOUT_KINDS:
            raise ValueError(f"unknown layout {self.kind!r}, pick from {LAYOUT_KINDS}")
        check_ranges(self)


@dataclass(frozen=True)
class PageConfig:
    n_lines: int = ranged(5, 1)
    chars_per_line: tuple[int, int] = (10, 10)
    n_cls: int = ranged(100, 1, UINT32_MAX)
    layout: Layout = field(default_factory=Layout)
    w_g: int = ranged(32, 1, UINT32_MAX)
    h_g: int = ranged(32, 1, UINT32_MAX)
    cell_px: int = ranged(16, 1)
    seed: int = ranged(0, 0)

    def __post_init__(self) -> None:
        check_ranges(self)
        lo, hi = self.chars_per_line
        if not 1 <= lo <= hi:
            raise ValueError(f"chars_per_line must be [lo, hi], 1 <= lo <= hi, got [{lo}, {hi}]")
        hi = IMAGE_SIZE_RANGE[1]
        if max(self.w_g, self.h_g) * self.cell_px > hi:
            raise ValueError(
                f"image size (w_g, h_g) * cell_px must be <= {hi} pixels, "
                f"got ({self.w_g}, {self.h_g}) * {self.cell_px}"
            )


@dataclass(frozen=True)
class SyntheticPage:
    """A generated, frozen page; ``annotation`` holds its only ground truth,
    and ``plan``, made on first use, its oracle render plan."""

    shape: GridShape
    n_cls: int
    annotation: PageAnnotation
    layout: Layout

    @property
    def page_id(self) -> str:
        return self.annotation.page_id

    @cached_property
    def plan(self) -> RenderPlan:
        """A colliding page raises GridCollisionError on every access."""
        return render_plan(self)


def _rotate(box: Box, kind: str, img_w: float, img_h: float) -> Box:
    if kind == "rot90":
        return Box(img_h - box.y, box.x, box.h, box.w)
    if kind == "rot180":
        return Box(img_w - box.x, img_h - box.y, box.w, box.h)
    if kind == "rot270":
        return Box(box.y, img_w - box.x, box.h, box.w)
    return box


def _build(config: PageConfig, rng: np.random.Generator, page_id: str) -> SyntheticPage:
    """Lay out one page from ``rng``.

    One ``Generator`` call draws each quantity for the whole page, in this
    order: the line lengths, each character's centre x and y jitter, its
    width and height, and its class, characters in reading order.
    ``tests/test_synth.py`` checks pages and the generator's state against
    the per-character loop kept there as ``_build_reference``.
    """
    layout = config.layout
    cell = float(config.cell_px)
    img_w = config.w_g * cell
    img_h = config.h_g * cell

    amp_rows = math.ceil(layout.amplitude) if layout.kind == "sine" else 0
    col_margin = 1
    row_margin = 1 + amp_rows
    avail_cols = config.w_g - 2 * col_margin
    max_chars = config.chars_per_line[1]
    spacing = (avail_cols - 1) // (max_chars - 1) if max_chars > 1 else 2
    if spacing < 2:
        raise GenerationError(
            f"{max_chars} characters do not fit in {config.w_g} grid columns"
        )
    avail_rows = config.h_g - 2 * row_margin
    line_step = avail_rows // config.n_lines
    if line_step < max(2, 2 * amp_rows + 1):
        raise GenerationError(
            f"{config.n_lines} lines do not fit in {config.h_g} grid rows"
        )

    lo, hi = config.chars_per_line
    lens = rng.integers(lo, hi + 1, size=config.n_lines).tolist()
    n = sum(lens)
    jitter = (rng.uniform(-0.2, 0.2, (n, 2)) * cell).tolist()
    sizes = (rng.uniform(*CHAR_SIZE, (n, 2)) * cell).tolist()
    classes = rng.integers(1, config.n_cls + 1, size=n).tolist()
    lines: list[list[int]] = []
    boxes: list[list[Box]] = []
    end = 0
    for q, n_chars in enumerate(lens):
        row = row_margin + q * line_step + (line_step + 1) // 2
        start, end = end, end + n_chars
        line_boxes = []
        for k, ((dx, dy), (sw, sh)) in enumerate(zip(jitter[start:end], sizes[start:end])):
            col = col_margin + 1 + k * spacing
            cx = (col - 0.5) * cell + dx
            cy = (row - 0.5) * cell + dy
            if layout.kind == "sine":
                cy += layout.amplitude * cell * math.sin(
                    2 * math.pi * cx / (layout.period * cell)
                )
            box = Box(cx, cy, sw / img_w, sh / img_h)
            line_boxes.append(_rotate(box, layout.kind, img_w, img_h))
        boxes.append(line_boxes)
        lines.append(classes[start:end])

    if layout.kind in ("rot90", "rot270"):
        shape = GridShape(config.h_g, config.w_g, img_h, img_w)
    else:
        shape = GridShape(config.w_g, config.h_g, img_w, img_h)

    annotation = PageAnnotation(lines=lines, boxes=boxes, page_id=page_id)
    return SyntheticPage(shape=shape, n_cls=config.n_cls, annotation=annotation, layout=layout)


def _round_trip_ok(page: SyntheticPage) -> bool:
    maps = oracle_predict(page, OracleNoise())
    result = decode(maps, DecodeConfig())
    # The plan holds every character's grid and class, in reading order.
    plan = page.plan
    i0, j0 = plan.char_at
    chars = iter(zip(zip((i0 + 1).tolist(), (j0 + 1).tolist()), (plan.char_cls + 1).tolist()))
    want = {tuple(islice(chars, len(line))) for line in page.annotation.lines}
    got = {tuple((c.grid, c.cls_id) for c in line.chars) for line in result.lines}
    return want == got and not result.dropped


def gen_page(config: PageConfig, page_index: int = 0) -> SyntheticPage:
    """Generate one page; deterministic in (config.seed, page_index).

    The page's annotation, with id ``p{page_index:05d}``, carries its
    transcript and boxes.  The page is built once and must pass the
    zero-noise round trip; a page that does not raises InvariantError.
    """
    page_id = f"p{page_index:05d}"
    page = _build(config, np.random.default_rng([config.seed, page_index]), page_id)
    if not _round_trip_ok(page):
        raise InvariantError(f"{page_id}: zero-noise round trip mismatch")
    return page


def gen_dataset(config: PageConfig, n_pages: int) -> Iterator[SyntheticPage]:
    """Pages with per-index seeds derived from the master seed."""
    if n_pages < 1:
        raise ValueError(f"pages must be >= 1, got {n_pages}")
    for idx in range(n_pages):
        yield gen_page(config, page_index=idx)
