import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import RecordingGenerator
from gridtext import synth
from gridtext.geometry import Box, GridShape, grid_of
from gridtext.matching import PageAnnotation
from gridtext.synth import (
    CHAR_SIZE,
    LAYOUT_KINDS,
    GenerationError,
    Layout,
    PageConfig,
    SyntheticPage,
    gen_dataset,
    gen_page,
)


def test_single_char_page():
    page = gen_page(PageConfig(n_lines=1, chars_per_line=(1, 1), n_cls=5, seed=1))
    [[cls_id]] = page.annotation.lines
    assert 1 <= cls_id <= 5


def test_fixed_seed_reproducible():
    cfg = PageConfig(seed=17)
    a = gen_page(cfg, page_index=3)
    b = gen_page(cfg, page_index=3)
    assert a.annotation == b.annotation


def test_sine_amplitude_zero_matches_horizontal():
    base = PageConfig(seed=23)
    flat_sine = dataclasses.replace(base, layout=Layout("sine", amplitude=0.0))
    a = gen_page(base, page_index=1)
    b = gen_page(flat_sine, page_index=1)
    assert a.annotation == b.annotation


def test_grid_uniqueness():
    for layout in ("horizontal", "rot90", "rot180", "rot270", "sine"):
        page = gen_page(PageConfig(seed=9, layout=Layout(layout)), page_index=2)
        grids = [grid_of(box, page.shape) for line in page.annotation.boxes for box in line]
        assert len(set(grids)) == len(grids)


def test_rotated_shapes_swap_grid_dims():
    cfg = PageConfig(w_g=32, h_g=24, seed=4, n_lines=3, chars_per_line=(6, 6))
    assert gen_page(cfg).shape.w_g == 32
    rot = dataclasses.replace(cfg, layout=Layout("rot90"))
    page = gen_page(rot)
    assert (page.shape.w_g, page.shape.h_g) == (24, 32)


def test_infeasible_config_raises():
    with pytest.raises(GenerationError):
        gen_page(PageConfig(n_lines=1, chars_per_line=(30, 30), w_g=16, h_g=16))
    with pytest.raises(GenerationError):
        gen_page(PageConfig(n_lines=20, chars_per_line=(3, 3), w_g=16, h_g=16))


def test_gen_dataset_count_and_determinism():
    cfg = PageConfig(n_lines=2, chars_per_line=(4, 4), n_cls=10, seed=31)
    pages = list(gen_dataset(cfg, 4))
    again = list(gen_dataset(cfg, 4))
    assert len(pages) == 4
    assert [p.page_id for p in pages] == ["p00000", "p00001", "p00002", "p00003"]
    assert all(a.annotation == b.annotation for a, b in zip(pages, again))
    transcripts = {tuple(tuple(line) for line in p.annotation.lines) for p in pages}
    assert len(transcripts) == 4  # distinct pages w.h.p.


def test_variable_chars_per_line():
    page = gen_page(PageConfig(n_lines=4, chars_per_line=(3, 8), n_cls=10, seed=2))
    lengths = [len(line) for line in page.annotation.lines]
    assert all(3 <= n <= 8 for n in lengths)


@pytest.mark.parametrize("fields, name", [
    ({"n_lines": 0}, "n_lines"),
    ({"chars_per_line": (0, 3)}, "chars_per_line"),
    ({"chars_per_line": (5, 3)}, "chars_per_line"),
    ({"n_cls": 0}, "n_cls"),
    ({"w_g": 0}, "w_g"),
    ({"h_g": 0}, "h_g"),
    ({"cell_px": 0}, "cell_px"),
    ({"seed": -1}, "seed"),
    ({"n_cls": 2**32}, "n_cls"),  # a map file's header stores a uint32
    ({"w_g": 2**32}, "w_g"),
    ({"h_g": 2**32}, "h_g"),
])
def test_page_config_rejects_out_of_range_field(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        PageConfig(**fields)


@pytest.mark.parametrize("fields, name", [
    ({"kind": "sine", "amplitude": math.inf}, "amplitude"),
    ({"amplitude": math.nan}, "amplitude"),
    ({"amplitude": -1.0}, "amplitude"),
    ({"kind": "sine", "period": math.nan}, "period"),
    ({"period": math.inf}, "period"),
    ({"period": 0.0}, "period"),
    ({"kind": "sine", "period": 1e-310}, "period"),
])
def test_layout_rejects_out_of_range_field(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        Layout(**fields)


@pytest.mark.parametrize("n_pages", [0, -1])
def test_gen_dataset_rejects_fewer_than_one_page(n_pages):
    with pytest.raises(ValueError, match="^pages must be >= 1"):
        list(gen_dataset(PageConfig(), n_pages))


# (lines, characters per line) of a paper-default, a dense and a large page.
_FIRST_BUILD_SIZES = {32: (5, (10, 10)), 64: (12, (16, 20)), 128: (27, (30, 36))}


@pytest.mark.parametrize("kind", LAYOUT_KINDS)
@pytest.mark.parametrize("grid", sorted(_FIRST_BUILD_SIZES))
@settings(deadline=None, max_examples=3)
@given(seed=st.integers(0, 2**32 - 1), page_index=st.integers(0, 99_999),
       amplitude=st.sampled_from([1.0, 1.5]))
def test_first_build_round_trips(grid, kind, seed, page_index, amplitude):
    # gen_page builds a page once and has no retry, so every first build of a
    # config that fits must pass the zero-noise round trip, which raises
    # GridCollisionError on a collision.
    n_lines, chars = _FIRST_BUILD_SIZES[grid]
    config = PageConfig(n_lines=n_lines, chars_per_line=chars, n_cls=100,
                        layout=Layout(kind, amplitude=amplitude), w_g=grid, h_g=grid,
                        seed=seed)
    rng = np.random.default_rng([seed, page_index])
    try:
        page = synth._build(config, rng, "p")
    except GenerationError:
        assume(False)  # amplitude-1.5 sine lines fit only at 32x32
    assert synth._round_trip_ok(page)


def _build_reference(config: PageConfig, rng: np.random.Generator, page_id: str) -> SyntheticPage:
    """``synth._build`` with one scalar Generator call per drawn value, the
    values in ``_build``'s order: every line length, every character's x
    and y jitter, every width and height, then every class."""
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
    lens = [int(rng.integers(lo, hi + 1)) for _ in range(config.n_lines)]
    n = sum(lens)
    jitter = [(float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2))) for _ in range(n)]
    sizes = [(float(rng.uniform(*CHAR_SIZE)), float(rng.uniform(*CHAR_SIZE))) for _ in range(n)]
    classes = [int(rng.integers(1, config.n_cls + 1)) for _ in range(n)]
    lines: list[list[int]] = []
    boxes: list[list[Box]] = []
    c = 0  # the character's index in reading order
    for q, n_chars in enumerate(lens):
        row = row_margin + q * line_step + (line_step + 1) // 2
        lines.append([])
        boxes.append([])
        for k in range(n_chars):
            col = col_margin + 1 + k * spacing
            cx = (col - 0.5) * cell + jitter[c][0] * cell
            cy = (row - 0.5) * cell + jitter[c][1] * cell
            if layout.kind == "sine":
                cy += layout.amplitude * cell * math.sin(
                    2 * math.pi * cx / (layout.period * cell)
                )
            sw = sizes[c][0] * cell
            sh = sizes[c][1] * cell
            box = Box(cx, cy, sw / img_w, sh / img_h)
            boxes[q].append(synth._rotate(box, layout.kind, img_w, img_h))
            lines[q].append(classes[c])
            c += 1

    if layout.kind in ("rot90", "rot270"):
        shape = GridShape(config.h_g, config.w_g, img_h, img_w)
    else:
        shape = GridShape(config.w_g, config.h_g, img_w, img_h)

    annotation = PageAnnotation(lines=lines, boxes=boxes, page_id=page_id)
    return SyntheticPage(shape=shape, n_cls=config.n_cls, annotation=annotation, layout=layout)


def _build_outcome(build, config, seed, warmup):
    """What ``build`` makes of ``config``: the annotation with every box
    field as its bits, or the error; and the generator's state after."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 100, size=warmup)
    try:
        page = build(config, rng, "p")
    except GenerationError as exc:
        return str(exc), rng.bit_generator.state
    annot = page.annotation
    bits = [[(b.x.hex(), b.y.hex(), b.w.hex(), b.h.hex()) for b in line] for line in annot.boxes]
    return (page.shape, annot.lines, bits), rng.bit_generator.state


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(LAYOUT_KINDS),
    amplitude=st.sampled_from([0.0, 1.0, 1.5]),
    n_lines=st.integers(1, 12),
    chars=st.tuples(st.integers(1, 14), st.integers(0, 6)).map(lambda t: (t[0], t[0] + t[1])),
    n_cls=st.sampled_from([1, 2, 100, 2**31 - 1, 2**32 - 1]) | st.integers(1, 1000),
    slack=st.tuples(st.integers(-3, 12), st.integers(-3, 12)),
    seed=st.integers(0, 2**32 - 1),
    warmup=st.integers(0, 1),
)
def test_build_matches_the_per_draw_loop(kind, amplitude, n_lines, chars, n_cls, slack, seed,
                                         warmup):
    # Every layout, lo == hi (a one-value length draw takes nothing),
    # n_cls == 1 (so does a class draw), grids around the smallest that fit,
    # so some configs raise GenerationError, and a buffered half-word at the
    # start (an odd warm-up).
    w_g = 2 * chars[1] + 2 + slack[0]
    h_g = 3 * n_lines + 4 + slack[1]
    config = PageConfig(n_lines=n_lines, chars_per_line=chars, n_cls=n_cls,
                        layout=Layout(kind, amplitude=amplitude), w_g=w_g, h_g=h_g)
    got = _build_outcome(synth._build, config, seed, warmup)
    assert got == _build_outcome(_build_reference, config, seed, warmup)


@settings(deadline=None, max_examples=100)
@given(
    kind=st.sampled_from(LAYOUT_KINDS),
    n_lines=st.integers(1, 8),
    chars=st.tuples(st.integers(1, 10), st.integers(0, 6)).map(lambda t: (t[0], t[0] + t[1])),
    n_cls=st.sampled_from([1, 2, 2**32 - 1]) | st.integers(1, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_draws_every_quantity_in_its_range(kind, n_lines, chars, n_cls, seed):
    """``_build``'s four column draws, in order: the line lengths in
    ``chars_per_line``, every character's jitter within 0.2 cell, its width
    and height in ``CHAR_SIZE`` and its class in [1, n_cls]; one value per
    line or per character."""
    config = PageConfig(n_lines=n_lines, chars_per_line=chars, n_cls=n_cls,
                        layout=Layout(kind, amplitude=1.0), w_g=2 * chars[1] + 4,
                        h_g=3 * n_lines + 6)
    rng = RecordingGenerator(seed)
    page = synth._build(config, rng, "p")
    names, (lens, jitter, sizes, classes) = zip(*rng.calls)
    assert names == ("integers", "uniform", "uniform", "integers")
    n = sum(map(len, page.annotation.lines))
    assert lens.tolist() == [len(line) for line in page.annotation.lines]
    assert chars[0] <= lens.min() and lens.max() <= chars[1]
    assert jitter.shape == sizes.shape == (n, 2)
    assert -0.2 <= jitter.min() and jitter.max() < 0.2
    assert CHAR_SIZE[0] <= sizes.min() and sizes.max() < CHAR_SIZE[1]
    assert classes.tolist() == [c for line in page.annotation.lines for c in line]
    assert 1 <= classes.min() and classes.max() <= n_cls
